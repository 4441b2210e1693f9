package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/celltree"
	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/lp"
	"repro/internal/rtree"
)

// Run answers a kSPR query: it reports every region of the preference space
// where focal ranks within the top opts.K records of the indexed dataset.
// focalID is the index of the focal record inside the dataset, or -1 when
// the focal record is not part of it.
func Run(tree *rtree.Tree, focal geom.Vector, focalID int, opts Options) (*Result, error) {
	if opts.VolumeSamples <= 0 {
		opts.VolumeSamples = 10000
	}
	start := time.Now()
	r, err := newRunner(tree, focal, focalID, opts)
	if err != nil {
		return nil, err
	}
	res, err := r.run()
	if err != nil {
		return nil, err
	}
	res.Stats.Elapsed = time.Since(start)
	return res, nil
}

// newRunner validates a query and runs Run's set-up: the focal's
// dominators (§3.1), counted into baseRank, and the processing space.
func newRunner(tree *rtree.Tree, focal geom.Vector, focalID int, opts Options) (*runner, error) {
	if opts.K <= 0 {
		return nil, fmt.Errorf("core: K must be positive, got %d", opts.K)
	}
	if len(focal) != tree.Dim {
		return nil, fmt.Errorf("core: focal record has %d dims, index has %d", len(focal), tree.Dim)
	}
	if tree.Dim < 2 {
		return nil, fmt.Errorf("core: kSPR needs at least 2 data dimensions")
	}
	r := &runner{tree: tree, focal: focal, focalID: focalID, opts: opts}

	domSpan := r.opts.Trace.Span(PhaseDominance)
	r.domIDs = r.tree.Dominators(r.focal, r.focalID)
	domSpan.End()
	r.baseRank = len(r.domIDs)
	r.kAdj = r.opts.K - r.baseRank
	r.result = &Result{Focal: r.focal.Clone(), K: r.opts.K, Space: r.opts.Space}
	r.result.Stats.BaseRank = r.baseRank

	d := tree.Dim
	switch r.opts.Space {
	case Transformed:
		r.dim = d - 1
		r.bounds = geom.SpaceBoundsTransformed(r.dim)
	case Original:
		r.dim = d
		r.bounds = geom.SpaceBoundsOriginal(d)
	default:
		return nil, fmt.Errorf("core: unknown space %d", r.opts.Space)
	}
	r.pObj, r.pConst = r.recordObj(r.focal, make(geom.Vector, d-1))
	return r, nil
}

// indexCandidates builds boundsIdx over the candidates ids (ascending).
func (r *runner) indexCandidates(ids []int) error {
	if len(ids) == 0 {
		return nil
	}
	recs := make([]geom.Vector, len(ids))
	for i, id := range ids {
		recs[i] = r.tree.Records[id]
	}
	idx, err := rtree.Build(recs)
	r.boundsIdx = idx
	return err
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
	// else is tested per record (see skip)
	baseRank int   // records dominating focal: they outrank it everywhere
	domIDs   []int // the dominators themselves (ascending), for Region.Outscorers
	kAdj     int   // K - baseRank: threshold inside the CellTree

	ct      *celltree.Tree
	lpStats lp.Stats
	// boundsIdx is the candidate index LP-CTA's look-ahead rank bounds
	// traverse: an aggregate R-tree over exactly this query's non-skip
	// k-skyband in ascending dataset id, the pivot checks' candidates.
	// The bound decisions (group MBRs, counts, traversal order) are
	// therefore a pure function of the candidate set, identical across
	// dataset generations that leave it untouched (incremental
	// maintenance's keep-path guarantee). nil when the query has no
	// candidates or no look-ahead.
	boundsIdx *rtree.Tree

	// S(p) as a transformed-space objective and constant, for the score
	// bounds in either space
	pObj   geom.Vector
	pConst float64

	result *Result
}

// skip reports whether record id is excluded from hyperplane processing:
// the focal itself, its dominators (counted in baseRank), the records it
// dominates, and its exact ties (the paper ignores ties). Like
// internal/kernel, it is exact only on NaN-free input.
func (r *runner) skip(id int) bool {
	return id == r.focalID || geom.Compare(r.focal, r.tree.Records[id]) != geom.DomNone
}

func (r *runner) run() (*Result, error) {
	if r.kAdj <= 0 {
		// p is beaten everywhere by at least K records: empty result.
		return r.finish(), nil
	}
	interior := geom.SimplexCenter(r.dim)
	if r.opts.Space == Original {
		interior = make(geom.Vector, r.dim)
		for j := range interior {
			interior[j] = 0.5
		}
	}
	r.ct = celltree.New(r.dim, r.kAdj, r.bounds, interior, &r.lpStats)
	if r.opts.Space == Original && r.dim > 3 {
		// An original-space cell is a cone whose apex, the origin, lies on
		// every record hyperplane: clipping 4-d cones costs more than the
		// LPs their vertices save (EXPERIMENTS.md, fig22), so cones carry
		// vertices only up to 3-d.
		r.ct.Root.Geom = nil
	}
	r.ct.Ctx = r.opts.Ctx

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

// kSkybandIDs returns the K-skyband of the dataset minus skipped records
// (Appendix B: by Lemma 6 only these can matter), in ascending id order.
// The band is read from the tree's band table, which the generation's
// first query deep enough fills (or the warm-loaded index brings), so
// every later query is a table scan.
func (r *runner) kSkybandIDs() []int {
	band := r.tree.KSkybandExcluding(r.opts.K, r.focalID)
	ids := band[:0]
	for _, id := range band {
		if !r.skip(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// escapeCheck is the Lemma 5 reportability test of the progressive
// algorithms, run over bitsets, and the source of their batches. Bit i
// stands for candidate i: the query's non-skip K-skyband in ascending id
// (only K-skyband records can matter: Lemma 6's argument extends to the
// test, since a non-skyband escapee implies either a skyband escapee or
// enough accounted dominators to disqualify the cell). open holds the
// candidates not yet processed. Every record inserted into the cell tree
// owns a row of the same width, the candidates it dominates, filled word
// by word the first time a test reads that word. A cell's pivots let a
// candidate escape iff open minus the OR of their rows is non-empty.
type escapeCheck struct {
	d, words int
	ids      []int     // candidate dataset ids, ascending
	cands    []float64 // candidate records, row-major
	open     []uint64
	order    []int       // candidate indexes, each after its dominators
	slot     map[int]int // inserted record id -> its row
	added    []int       // row s's record id
	inserted []float64   // inserted records, row-major by row
	rows     []uint64    // row s is rows[s*words : (s+1)*words]
	filled   []int       // leading words of row s filled so far
	scratch  []int       // a cell's pivot rows
}

// newEscapeCheck packs the candidates ids (ascending) of the d-dimensional
// records recs, all of them open, and orders them by descending
// coordinate sum, ties by descending values: a dominator's sum is never
// smaller (float rounding is monotone), and at an equal sum its values
// are lexicographically larger, so it sorts before every record it
// dominates.
func newEscapeCheck(ids []int, recs []geom.Vector, d int) *escapeCheck {
	e := &escapeCheck{d: d, words: (len(ids) + 63) / 64, ids: ids, slot: make(map[int]int)}
	e.open = make([]uint64, e.words)
	e.cands = make([]float64, 0, len(ids)*d)
	e.order = make([]int, len(ids))
	sums := make([]float64, len(ids))
	for i, id := range ids {
		e.cands = append(e.cands, recs[id]...)
		e.open[i/64] |= 1 << (i % 64)
		e.order[i] = i
		sums[i] = recs[id].Sum()
	}
	slices.SortFunc(e.order, func(a, b int) int {
		if c := cmp.Compare(sums[b], sums[a]); c != 0 {
			return c
		}
		return slices.Compare(e.cand(b), e.cand(a))
	})
	return e
}

// cand returns candidate i's values.
func (e *escapeCheck) cand(i int) []float64 { return e.cands[i*e.d : (i+1)*e.d] }

// batch overwrites dst with the open candidates on the skyline of the
// candidates outside np, a bitset over the candidates, in ascending id.
// No record outside the K-skyband dominates one inside it: if x
// dominates y, every dominator of x dominates y too, so y has more
// dominators than x. So this is the skyline of D minus the skipped
// records and np, restricted to the band: Algorithm 2's batch less the
// records Lemma 6 shows cannot matter.
func (e *escapeCheck) batch(np []uint64, dst []int) []int {
	dst = dst[:0]
	sky := kernel.NewBand(e.d)
	for _, i := range e.order {
		bit := uint64(1) << (i % 64)
		if np[i/64]&bit != 0 {
			continue
		}
		v := e.cand(i)
		if sky.CountDominatorsCapped(v, 1) > 0 {
			continue
		}
		sky.Push(v)
		if e.open[i/64]&bit != 0 {
			dst = append(dst, e.ids[i])
		}
	}
	slices.Sort(dst)
	return dst
}

// process closes candidate id's bit; other ids are ignored.
func (e *escapeCheck) process(id int) {
	if i, ok := slices.BinarySearch(e.ids, id); ok {
		e.open[i/64] &^= 1 << (i % 64)
	}
}

// add gives the record id, with values v, an unfilled row.
func (e *escapeCheck) add(id int, v geom.Vector) {
	e.slot[id] = len(e.filled)
	e.added = append(e.added, id)
	e.filled = append(e.filled, 0)
	e.rows = append(e.rows, make([]uint64, e.words)...)
	e.inserted = append(e.inserted, v...)
}

// dominators overwrites dst with the ids of the added records that
// dominate v, in the order they were added.
func (e *escapeCheck) dominators(v geom.Vector, dst []int) []int {
	dst = dst[:0]
	d := e.d
	for s, id := range e.added {
		if geom.Dominates(e.inserted[s*d:(s+1)*d], v) {
			dst = append(dst, id)
		}
	}
	return dst
}

// escapes reports whether some open candidate is dominated by none of
// pivots, ids of added records. Each word stops at the first pivot that
// empties it, and the test at the first word left non-empty.
func (e *escapeCheck) escapes(pivots []int) bool {
	rows := e.scratch[:0]
	for _, id := range pivots {
		rows = append(rows, e.slot[id])
	}
	e.scratch = rows
	d := e.d
	for w, open := range e.open {
		for _, s := range rows {
			if open == 0 {
				break
			}
			row := e.rows[s*e.words : (s+1)*e.words]
			if f := e.filled[s]; f <= w {
				lo, hi := f*64*d, min((w+1)*64*d, len(e.cands))
				kernel.DominatedBits(e.cands[lo:hi], d, e.inserted[s*d:(s+1)*d], row[f:w+1])
				e.filled[s] = w + 1
			}
			open &^= row[w]
		}
		if open != 0 {
			return true
		}
	}
	return false
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
	// The pivot checks' candidates, which every batch is drawn from;
	// LP-CTA's rank bounds walk an R-tree over the same records.
	bandSpan := r.opts.Trace.Span(PhaseSkyband)
	cands := r.kSkybandIDs()
	esc := newEscapeCheck(cands, r.tree.Records, r.tree.Dim)
	lookahead := r.opts.Algorithm == LPCTA
	if lookahead {
		if err := r.indexCandidates(cands); err != nil {
			return err
		}
	}

	// First batch: the skyline of the competing records (Invariant 1).
	// np is the non-pivot union, a bitset over the candidates.
	np := make([]uint64, esc.words)
	batch := esc.batch(np, nil)
	bandSpan.End()

	r.ct.TakeFreshLeaves() // the root cell's bounds are trivially [1, n]

	// Scratch reused across every batch: an inserted record's processed
	// dominators (the insert walk's shortcut, Algorithm 2's optInsert), and
	// a leaf's pivot and non-pivot ids.
	var doms, neg, pos []int
	for len(batch) > 0 && !r.ct.Done() {
		r.result.Stats.Batches++
		expandSpan := r.opts.Trace.Span(PhaseExpand)
		for _, id := range batch {
			if r.ct.Done() {
				break
			}
			if err := r.cancelled(); err != nil {
				return err
			}
			h := r.hyperplane(id)
			esc.process(id)
			if h.Kind != geom.Proper {
				continue
			}
			// A batch is a skyline of the candidates minus the non-pivot
			// union, and every non-skipped dominator of a candidate is a
			// candidate, so every non-skipped dominator of a batch record
			// was inserted before it: the rows hold them all.
			doms = esc.dominators(r.tree.Records[id], doms)
			if err := r.ct.Insert(h, doms); err != nil {
				return err
			}
			esc.add(id, r.tree.Records[id])
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
		// lines 13-19). Every pivot was inserted, so it is a candidate.
		pivotSpan := r.opts.Trace.Span(PhasePivots)
		clear(np)
		var reportErr error
		var toReport, toPrune []*celltree.Node
		r.ct.LiveLeaves(func(c *celltree.Node) bool {
			if r.ct.Rank(c) > r.kAdj {
				// Rank grew past the budget through an ancestor's cover set
				// without the leaf being revisited; it is not promising.
				toPrune = append(toPrune, c)
				return true
			}
			neg, pos = r.ct.PivotSets(c, neg[:0], pos[:0])
			if esc.escapes(neg) {
				// Some unprocessed record may still affect c.
				for _, id := range pos {
					if i, ok := slices.BinarySearch(cands, id); ok {
						np[i/64] |= 1 << (i % 64)
					}
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

		// Next batch: open candidates on the skyline of the candidates
		// outside the non-pivot union (Algorithm 2 lines 20-21).
		skySpan := r.opts.Trace.Span(PhaseSkyband)
		batch = esc.batch(np, batch)
		skySpan.End()
		if len(batch) == 0 {
			// Should be impossible while live cells remain: a live cell
			// lets some open candidate c escape its pivots, and a maximal
			// record among c and its dominators outside the non-pivot
			// union is on this skyline. It is open: c is, and a processed
			// dominator outside the union would be a negative pivot of
			// the cell, so c could not escape. Defensive fallback: finish
			// exactly with plain insertion of the open candidates.
			var rest []int
			for i, id := range cands {
				if esc.open[i/64]&(1<<(i%64)) != 0 {
					rest = append(rest, id)
				}
			}
			return r.runCTA(rest)
		}
	}
	return nil
}
