package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/celltree"
	"repro/internal/dominance"
	"repro/internal/geom"
	"repro/internal/lp"
	"repro/internal/rtree"
)

// querySolverPool shares LP workspaces across queries, batch items
// included: the serial-path solver and the per-worker rank-bound solvers
// are drawn here and returned when the query finishes, so repeated
// queries stop rebuilding simplex arenas.
var querySolverPool sync.Pool

// getPooledSolver draws a solver from the query pool, rebound to stats.
func getPooledSolver(stats *lp.Stats) *lp.Solver {
	if sv, ok := querySolverPool.Get().(*lp.Solver); ok {
		sv.SetStats(stats)
		return sv
	}
	return lp.NewSolver(stats)
}

// putPooledSolver returns a solver to the query pool.
func putPooledSolver(sv *lp.Solver) {
	sv.SetStats(nil)
	querySolverPool.Put(sv)
}

// Run answers a kSPR query: it reports every region of the preference space
// where focal ranks within the top opts.K records of the indexed dataset.
// focalID is the index of the focal record inside the dataset, or -1 when
// the focal record is not part of it.
func Run(tree *rtree.Tree, focal geom.Vector, focalID int, opts Options) (*Result, error) {
	return runQuery(tree, focal, focalID, opts, nil)
}

// runQuery runs one kSPR query. forks is the batch-wide insertion token
// pool when the query is a batch item, nil otherwise.
func runQuery(tree *rtree.Tree, focal geom.Vector, focalID int, opts Options, forks *celltree.Forks) (*Result, error) {
	if opts.K <= 0 {
		return nil, fmt.Errorf("core: K must be positive, got %d", opts.K)
	}
	if len(focal) != tree.Dim {
		return nil, fmt.Errorf("core: focal record has %d dims, index has %d", len(focal), tree.Dim)
	}
	if tree.Dim < 2 {
		return nil, fmt.Errorf("core: kSPR needs at least 2 data dimensions")
	}
	if opts.VolumeSamples <= 0 {
		opts.VolumeSamples = 10000
	}
	start := time.Now()
	r := &runner{tree: tree, focal: focal, focalID: focalID, opts: opts, batchForks: forks}
	res, err := r.run()
	// All insertion forks and rank-bound workers have joined: hand the
	// query's pooled LP workspaces back (on the error path too — solvers
	// carry no state between solves).
	r.releaseSolvers()
	if err != nil {
		return nil, err
	}
	res.Stats.Elapsed = time.Since(start)
	return res, nil
}

// cancelled reports context.Cause of Ctx once the query's context is done
// (Ctx.Err(), unless it was cancelled with a cause). It is the single
// cancellation check shared by every processing loop; with a nil Ctx it
// is a constant-time no-op.
func (r *runner) cancelled() error {
	if r.opts.Ctx == nil {
		return nil
	}
	select {
	case <-r.opts.Ctx.Done():
		return context.Cause(r.opts.Ctx)
	default:
		return nil
	}
}

// runner holds the per-query state shared by the algorithm variants.
type runner struct {
	tree    *rtree.Tree
	focal   geom.Vector
	focalID int
	opts    Options

	// space geometry
	dim    int // preference-space dimensionality (d-1 transformed, d original)
	bounds []geom.Constraint

	// dominance filtering (§3.1): the dominators are listed, everything
	// else is tested per record (see skip and rankSkip)
	baseRank int   // records dominating focal: they outrank it everywhere
	domIDs   []int // the dominators themselves (ascending), for Region.Outscorers
	kAdj     int   // K - baseRank: threshold inside the CellTree

	ct      *celltree.Tree
	lpStats lp.Stats
	// boundsIdx is the candidate index LP-CTA's look-ahead rank bounds
	// traverse: the candIndex tree, an aggregate R-tree over exactly this
	// query's non-skip k-skyband in ascending dataset id. The bound
	// decisions (group MBRs, counts, traversal order) are therefore a pure
	// function of the candidate set, identical across dataset generations
	// that leave it untouched (incremental maintenance's keep-path
	// guarantee). nil when the query has no candidates or no look-ahead.
	boundsIdx *rtree.Tree
	// solver is the coordinating goroutine's reusable LP workspace, drawn
	// from querySolverPool on first use; engine workers get their own (see
	// parallel.go).
	solver *lp.Solver
	// workerSolvers / workerStats are the rank-bound workers' persistent
	// arenas, created once per query so solver workspaces survive across
	// progressive batches.
	workerSolvers []*lp.Solver
	workerStats   []lp.Stats

	// score bounds machinery (per-space objective for S(p))
	pObj   geom.Vector
	pConst float64

	// batchForks is the batch-wide insertion token pool: nil for a
	// standalone Run, and for a batch whose slots take all its workers.
	batchForks *celltree.Forks

	result *Result
}

// lpSolver returns the runner's serial-path LP solver, drawn from the
// query pool on first use and accounting into the query's LP totals.
func (r *runner) lpSolver() *lp.Solver {
	if r.solver == nil {
		r.solver = getPooledSolver(&r.lpStats)
	}
	return r.solver
}

// releaseSolvers returns every pooled LP workspace the query acquired:
// the serial-path solver, the rank bound workers' solvers, and the cell
// tree's insertion solver. Called once per query after all workers have
// joined.
func (r *runner) releaseSolvers() {
	if r.solver != nil {
		putPooledSolver(r.solver)
		r.solver = nil
	}
	for _, sv := range r.workerSolvers {
		putPooledSolver(sv)
	}
	r.workerSolvers = nil
	if r.ct != nil {
		r.ct.ReleaseSolvers()
	}
}

// lpWorkerSolvers returns the query's persistent per-worker solvers with
// their stats counters reset, ready for one parallel phase. workers is
// constant for a query (r.workers()), so the slices are sized once and the
// solvers' stats pointers stay valid for the query's lifetime.
func (r *runner) lpWorkerSolvers(workers int) ([]*lp.Solver, []lp.Stats) {
	if r.workerSolvers == nil {
		r.workerStats = make([]lp.Stats, workers)
		r.workerSolvers = make([]*lp.Solver, workers)
		for w := range r.workerSolvers {
			r.workerSolvers[w] = getPooledSolver(&r.workerStats[w])
		}
	}
	for w := range r.workerStats {
		r.workerStats[w] = lp.Stats{}
	}
	return r.workerSolvers, r.workerStats
}

// skip reports whether record id is excluded from hyperplane processing:
// the focal itself, its dominators (counted in baseRank), the records it
// dominates, and its exact ties (the paper ignores ties). Like
// internal/kernel, it is exact only on NaN-free input.
func (r *runner) skip(id int) bool {
	return id == r.focalID || geom.Compare(r.focal, r.tree.Records[id]) != geom.DomNone
}

// rankSkip reports whether record id is excluded from rank bound
// computations: the focal itself, the records it dominates, and its exact
// ties can never outscore it. Dominators stay IN rank bounds: they count
// toward K there.
func (r *runner) rankSkip(id int) bool {
	return id == r.focalID || WeakDominates(r.focal, r.tree.Records[id])
}

func (r *runner) run() (*Result, error) {
	d := r.tree.Dim

	domSpan := r.opts.Trace.Span(PhaseDominance)
	r.domIDs = r.tree.Dominators(r.focal, func(id int) bool { return id == r.focalID })
	domSpan.End()

	r.baseRank = len(r.domIDs)
	r.kAdj = r.opts.K - r.baseRank
	r.result = &Result{Focal: r.focal.Clone(), K: r.opts.K, Space: r.opts.Space}
	r.result.Stats.BaseRank = r.baseRank
	if r.kAdj <= 0 {
		// p is beaten everywhere by at least K records: empty result.
		return r.finish(), nil
	}

	// Space-dependent machinery.
	switch r.opts.Space {
	case Transformed:
		r.dim = d - 1
		r.bounds = geom.SpaceBoundsTransformed(r.dim)
		r.ct = celltree.New(r.dim, r.kAdj, r.bounds, geom.SimplexCenter(r.dim), &r.lpStats)
		r.pObj = make(geom.Vector, r.dim)
		for j := 0; j < r.dim; j++ {
			r.pObj[j] = r.focal[j] - r.focal[d-1]
		}
		r.pConst = r.focal[d-1]
	case Original:
		r.dim = d
		r.bounds = geom.SpaceBoundsOriginal(d)
		center := make(geom.Vector, d)
		for j := range center {
			center[j] = 0.5
		}
		r.ct = celltree.New(r.dim, r.kAdj, r.bounds, center, &r.lpStats)
		r.pObj = r.focal.Clone()
		r.pConst = 0
	default:
		return nil, fmt.Errorf("core: unknown space %d", r.opts.Space)
	}
	// Insertions may fan disjoint cell subtrees out across goroutines: a
	// batch item draws tokens from the pool it shares with its siblings,
	// a standalone query on w > 1 workers gets w-1 of its own. A batch
	// item without a pool runs a one-worker engine.
	r.ct.Forks = r.batchForks
	if w := r.workers(); r.ct.Forks == nil && w > 1 {
		r.ct.Forks = celltree.NewForks(w - 1)
	}

	var err error
	switch r.opts.Algorithm {
	case CTA:
		err = r.runCTA(r.allCandidateIDs())
	case KSkybandCTA:
		bandSpan := r.opts.Trace.Span(PhaseSkyband)
		ids := r.kSkybandIDs()
		bandSpan.End()
		err = r.runCTA(ids)
	case PCTA, LPCTA:
		err = r.runProgressive()
	default:
		err = fmt.Errorf("core: unknown algorithm %d", r.opts.Algorithm)
	}
	if err != nil {
		return nil, err
	}

	// Emit every surviving leaf (rank is exact there). The walk collects in
	// DFS order; finalization fans out and appends in that same order.
	var pending []pendingRegion
	var walkErr error
	r.ct.LiveLeaves(func(n *celltree.Node) bool {
		if err := r.cancelled(); err != nil {
			walkErr = err
			return false
		}
		rank := r.baseRank + r.ct.Rank(n)
		if rank <= r.opts.K {
			pending = append(pending, pendingRegion{leaf: n, rank: rank, exact: true})
		}
		return true
	})
	if walkErr != nil {
		return nil, walkErr
	}
	if err := r.emitAll(pending); err != nil {
		return nil, err
	}
	return r.finish(), nil
}

// maximalPivots drops pivots dominated by other pivots: by transitivity
// their dominance regions are subsumed, so the AnyNotDominated check is
// unchanged while the per-entry dominance tests shrink drastically.
func maximalPivots(ids []int, dg *dominance.Graph) []int {
	if len(ids) <= 1 {
		return ids
	}
	inSet := make(map[int]bool, len(ids))
	for _, id := range ids {
		inSet[id] = true
	}
	out := ids[:0]
	for _, id := range ids {
		maximal := true
		for _, dom := range dg.Dominators(id) {
			if inSet[dom] {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, id)
		}
	}
	return out
}

// pivotKey canonicalizes a sorted pivot id list for caching.
func pivotKey(ids []int) string {
	sort.Ints(ids)
	var b []byte
	for _, id := range ids {
		b = appendInt(b, id)
		b = append(b, ',')
	}
	return string(b)
}

func appendInt(b []byte, v int) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}

// hyperplane maps record id to its hyperplane in the processing space.
func (r *runner) hyperplane(id int) geom.Hyperplane {
	rec := r.tree.Records[id]
	if r.opts.Space == Original {
		return geom.NewHyperplaneOriginal(id, rec, r.focal)
	}
	return geom.NewHyperplaneTransformed(id, rec, r.focal)
}

// allCandidateIDs returns every record that competes with focal (CTA's
// processing order: dataset order).
func (r *runner) allCandidateIDs() []int {
	ids := make([]int, 0, r.tree.Len())
	for id := range r.tree.Records {
		if !r.skip(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// kSkybandCandidates returns the K-skyband of the dataset with the focal
// record excluded, in ascending id order. It is read from the tree's band
// table, which the generation's first query deep enough fills (or the
// warm-loaded index brings), so every later query is a table scan.
func (r *runner) kSkybandCandidates() []int {
	return r.tree.KSkybandExcluding(r.opts.K, r.focalID)
}

// kSkybandIDs returns the K-skyband of the dataset minus skipped records
// (Appendix B: by Lemma 6 only these can matter).
func (r *runner) kSkybandIDs() []int {
	band := r.kSkybandCandidates()
	ids := band[:0]
	for _, id := range band {
		if !r.skip(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// candIndex is the candidate record index the progressive algorithms run
// their pivot reportability checks against: an aggregate R-tree whose
// record id ci maps to dataset id orig[ci]. A nil candIndex means no
// candidates at all.
type candIndex struct {
	tree *rtree.Tree
	orig []int
}

// anyUnprocessedEscapes reports whether some still-unprocessed candidate
// escapes the pivots' dominance regions (the Lemma 5 reportability test).
func (ci *candIndex) anyUnprocessedEscapes(pivots []geom.Vector, processed map[int]bool) bool {
	if ci == nil {
		return false
	}
	return ci.tree.AnyNotDominated(pivots, func(i int) bool { return processed[ci.orig[i]] })
}

// buildCandIndex assembles the candidate index for this query: only
// K-skyband records can matter (Lemma 6's argument extends to the
// reportability test: a non-skyband escapee implies either a skyband
// escapee or enough accounted dominators to disqualify the cell). The
// index is a dedicated tree over just this query's candidates.
func (r *runner) buildCandIndex() (*candIndex, error) {
	candIDs := r.kSkybandCandidates()
	candRecs := make([]geom.Vector, 0, len(candIDs))
	candOrig := make([]int, 0, len(candIDs))
	for _, id := range candIDs {
		if !r.skip(id) {
			candRecs = append(candRecs, r.tree.Records[id])
			candOrig = append(candOrig, id)
		}
	}
	if len(candRecs) == 0 {
		return nil, nil
	}
	tree, err := rtree.Build(candRecs)
	if err != nil {
		return nil, err
	}
	return &candIndex{tree: tree, orig: candOrig}, nil
}

// runCTA inserts the given records' hyperplanes one by one (§4).
func (r *runner) runCTA(ids []int) error {
	span := r.opts.Trace.Span(PhaseExpand)
	defer span.End()
	for _, id := range ids {
		if r.ct.Done() {
			return nil
		}
		if err := r.cancelled(); err != nil {
			return err
		}
		h := r.hyperplane(id)
		if h.Kind != geom.Proper {
			// Ties and constant shifts were filtered out; anything left is a
			// degenerate duplicate — ignore it, it cannot alter any ranking.
			continue
		}
		if err := r.ct.Insert(h, nil); err != nil {
			return err
		}
		r.result.Stats.ProcessedRecords++
	}
	return nil
}

// runProgressive implements Algorithms 2 and 3: batch processing in
// dominance order with pivot-based early reporting, plus (for LP-CTA)
// look-ahead rank bounds on freshly created cells.
func (r *runner) runProgressive() error {
	dg := dominance.New()
	processed := make(map[int]bool)

	// Candidate index for the pivot checks; LP-CTA's rank bounds walk the
	// same tree.
	bandSpan := r.opts.Trace.Span(PhaseSkyband)
	cand, err := r.buildCandIndex()
	if err != nil {
		return err
	}
	lookahead := r.opts.Algorithm == LPCTA
	if lookahead && cand != nil {
		r.boundsIdx = cand.tree
	}

	// First batch: the skyline of the competing records (Invariant 1).
	batch := r.tree.Skyline(r.skip)
	bandSpan.End()

	r.ct.TakeFreshLeaves() // the root cell's bounds are trivially [1, n]

	for len(batch) > 0 && !r.ct.Done() {
		r.result.Stats.Batches++
		sort.Ints(batch)
		expandSpan := r.opts.Trace.Span(PhaseExpand)
		for _, id := range batch {
			if r.ct.Done() {
				break
			}
			if err := r.cancelled(); err != nil {
				return err
			}
			h := r.hyperplane(id)
			processed[id] = true
			if h.Kind != geom.Proper {
				continue
			}
			dg.Add(id, r.tree.Records[id])
			dom := dg.Dominators(id)
			var domSet map[int]bool
			if len(dom) > 0 {
				domSet = make(map[int]bool, len(dom))
				for _, d := range dom {
					domSet[d] = true
				}
			}
			if err := r.ct.Insert(h, domSet); err != nil {
				return err
			}
			r.result.Stats.ProcessedRecords++
		}
		expandSpan.End()
		if r.ct.Done() {
			break
		}

		// LP-CTA: rank bounds for the cells created by this batch (§6.4).
		if lookahead {
			if err := r.boundFreshLeaves(); err != nil {
				return err
			}
		} else {
			r.ct.TakeFreshLeaves() // keep the buffer from growing
		}
		if r.ct.Done() {
			break
		}

		// Pivot-based reporting and the union of non-pivots (Algorithm 2
		// lines 13-19).
		pivotSpan := r.opts.Trace.Span(PhasePivots)
		np := make(map[int]bool)
		var reportErr error
		var toReport, toPrune []*celltree.Node
		// The pivot check depends only on the (maximal) pivot set, which
		// many sibling cells share; cache it per batch.
		checkCache := make(map[string]bool)
		r.ct.LiveLeaves(func(c *celltree.Node) bool {
			if r.ct.Rank(c) > r.kAdj {
				// Rank grew past the budget through an ancestor's cover set
				// without the leaf being revisited; it is not promising.
				toPrune = append(toPrune, c)
				return true
			}
			pivotIDs := maximalPivots(r.ct.Pivots(c), dg)
			key := pivotKey(pivotIDs)
			affected, seen := checkCache[key]
			if !seen {
				pivots := make([]geom.Vector, len(pivotIDs))
				for i, id := range pivotIDs {
					pivots[i] = r.tree.Records[id]
				}
				affected = cand.anyUnprocessedEscapes(pivots, processed)
				checkCache[key] = affected
			}
			if affected {
				// Some unprocessed record may still affect c.
				for _, id := range r.ct.NonPivots(c) {
					np[id] = true
				}
				return true
			}
			toReport = append(toReport, c)
			return true
		})
		for _, c := range toPrune {
			r.ct.Prune(c)
		}
		pivotSpan.End()
		if len(toReport) > 0 {
			pending := make([]pendingRegion, len(toReport))
			for i, c := range toReport {
				pending[i] = pendingRegion{leaf: c, rank: r.baseRank + r.ct.Rank(c), exact: true}
			}
			if err := r.emitAll(pending); err != nil {
				reportErr = err
			}
			for _, c := range toReport {
				r.ct.Report(c)
			}
		}
		if reportErr != nil {
			return reportErr
		}
		if r.ct.Done() {
			break
		}

		// Next batch: unprocessed records on the skyline of D minus the
		// non-pivot union (Algorithm 2 lines 20-21).
		skySpan := r.opts.Trace.Span(PhaseSkyband)
		sky := r.tree.Skyline(func(id int) bool { return r.skip(id) || np[id] })
		batch = batch[:0]
		for _, id := range sky {
			if !processed[id] {
				batch = append(batch, id)
			}
		}
		skySpan.End()
		if len(batch) == 0 {
			// Should be impossible while live cells remain (every live cell
			// admits an unprocessed record outside its pivots' dominance
			// region, and such a record surfaces in the skyline of D\NP).
			// Defensive fallback: finish exactly with plain insertion.
			var rest []int
			for id := range r.tree.Records {
				if !processed[id] && !r.skip(id) {
					rest = append(rest, id)
				}
			}
			sort.Ints(rest)
			return r.runCTA(rest)
		}
	}
	return nil
}
