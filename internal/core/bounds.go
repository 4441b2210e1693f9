package core

import (
	"repro/internal/celltree"
	"repro/internal/geom"
	"repro/internal/lp"
	"repro/internal/rtree"
)

// boundFreshLeaves computes look-ahead rank bounds for every leaf created
// since the previous batch and prunes / reports cells whose bounds decide
// them (§6.4, Algorithm 3). Classification is a pure function of the
// (immutable) cell and the index, so with engine workers available it fans
// out across them, each on its own reusable LP solver; decisions apply in
// leaf order below either way, keeping results bit-identical to the serial
// path.
func (r *runner) boundFreshLeaves() error {
	span := r.opts.Trace.Span(PhaseRankBounds)
	fresh := r.ct.TakeFreshLeaves()
	live := fresh[:0]
	for _, leaf := range fresh {
		if !leaf.Closed() {
			live = append(live, leaf)
		}
	}
	type decision struct {
		lower, upper int
	}
	decisions := make([]decision, len(live))
	if workers := r.workers(); workers > 1 && len(live) >= parallelLeafThreshold {
		solvers, stats := r.lpWorkerSolvers(workers)
		err := parallelDo(workers, len(live), func(w, i int) error {
			if err := r.cancelled(); err != nil {
				return err
			}
			lo, hi, err := r.rankBounds(live[i], solvers[w])
			if err != nil {
				return err
			}
			decisions[i] = decision{lo, hi}
			return nil
		})
		for i := range stats {
			r.lpStats.Add(stats[i])
		}
		if err != nil {
			return err
		}
	} else {
		sv := r.lpSolver()
		for i, leaf := range live {
			if err := r.cancelled(); err != nil {
				return err
			}
			lo, hi, err := r.rankBounds(leaf, sv)
			if err != nil {
				return err
			}
			decisions[i] = decision{lo, hi}
		}
	}
	var pending []pendingRegion
	for i, leaf := range live {
		r.result.Stats.RankBoundCells++
		switch {
		case decisions[i].lower > r.opts.K:
			r.ct.Prune(leaf)
			r.result.Stats.EarlyPruned++
		case decisions[i].upper <= r.opts.K:
			pending = append(pending, pendingRegion{leaf: leaf, rank: decisions[i].upper})
			r.ct.Report(leaf)
			r.result.Stats.EarlyReported++
		}
	}
	// Close the classification span before finalization so the emit work
	// accounts to PhaseFinalize, keeping the phases non-overlapping.
	span.End()
	return r.emitAll(pending)
}

// cellBounds carries the per-cell quantities shared across the index
// traversal: the focal score interval and (transformed space only) the
// min/max-vectors that power the fast bounds of §6.3.
type cellBounds struct {
	cons       []geom.Constraint
	pMin, pMax float64
	// sv solves this cell's bound LPs (and accounts them); per-worker when
	// bounds are computed in parallel.
	sv *lp.Solver
	// idx is the record index the traversal walks (the query's candidate
	// bounds index, or the full dataset tree for the approximate engine);
	// skip excludes record ids from leaf-level decisions. The query bounds
	// leave skip nil — their candidate index already contains only relevant
	// records — while the approximate engine sets it to the runner's
	// rankSkip.
	idx  *rtree.Tree
	skip rtree.ExcludeFunc
	// fast bounds (transformed space, FastBounds mode only)
	useFast bool
	wL, wU  geom.Vector // original-space d-dimensional corner weight vectors
	// verts, when non-nil, holds the cell's exact vertices; linear score
	// intervals are then min/max over the vertices instead of LP solves.
	// This is an exact acceleration (a linear function attains its extrema
	// over a polytope at vertices) that pays off in low-dimensional
	// preference spaces; higher dimensions fall back to the LP bounds the
	// paper describes.
	verts []geom.Vector
	// objA/objB are reusable objective buffers for recordObj and
	// diffInterval, replacing the per-record allocations that dominated
	// the rank traversal's GC pressure at large candidate counts. Two
	// buffers, because groupDecide holds the low- and high-corner
	// objectives simultaneously.
	objA, objB geom.Vector
}

// scratchA returns the first reusable objective buffer at length n.
func (cb *cellBounds) scratchA(n int) geom.Vector {
	if cap(cb.objA) < n {
		cb.objA = make(geom.Vector, n)
	}
	return cb.objA[:n]
}

// scratchB returns the second reusable objective buffer at length n.
func (cb *cellBounds) scratchB(n int) geom.Vector {
	if cap(cb.objB) < n {
		cb.objB = make(geom.Vector, n)
	}
	return cb.objB[:n]
}

// boundEps is the safety margin rank-bound comparisons keep from strict
// equality, so that tiny numerical error in LP/vertex extrema can only make
// the bounds looser (correct), never tighter (wrong).
const boundEps = 1e-9

// vertexBoundsMaxDim bounds the preference-space dimensionality for which
// per-cell vertex enumeration is attempted, and vertexBoundsMaxFacets the
// facet count beyond which it is abandoned.
const vertexBoundsMaxDim = 3

// intervalOverVertices returns [min, max] of obj·v + c across the vertices.
func intervalOverVertices(verts []geom.Vector, obj geom.Vector, c float64) (float64, float64) {
	lo := obj.Dot(verts[0]) + c
	hi := lo
	for _, v := range verts[1:] {
		s := obj.Dot(v) + c
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	return lo, hi
}

// rankBounds computes [Rank(c), Rank̄(c)] for a cell: the best and worst
// rank the focal record can attain inside it. The traversal runs over the
// query's candidate bounds index (the non-skip k-skyband) with the
// focal's dominators folded in as a constant: a dominator outranks the
// focal everywhere, and a record outside the k-skyband can only beat the
// focal where at least K skyband records already do (Lemma 6's argument),
// so 1 + baseRank + [certain, possible] skyband beaters brackets the true
// rank exactly. Beyond being tighter and cheaper than a full-dataset
// traversal, this makes every bound decision a pure function of the
// candidate set — the property incremental maintenance relies on. sv is
// the calling worker's LP solver.
func (r *runner) rankBounds(leaf *celltree.Node, sv *lp.Solver) (int, int, error) {
	cb := &cellBounds{cons: r.ct.PathConstraints(leaf), sv: sv}
	base := 1 + r.baseRank

	if r.opts.Space == Original {
		// Appendix C: every original-space cell touches the origin, so raw
		// score intervals all start at 0 and are useless; bound the
		// difference S(r) - S(p) instead.
		return r.rankBoundsOriginal(leaf, cb, base)
	}

	if g := leaf.Geom; g != nil {
		cb.verts = g.Verts
	}
	lower, upper := base, base
	if r.boundsIdx == nil {
		// No candidate can ever outscore the focal record: its rank is
		// exactly 1 + baseRank throughout the cell.
		return lower, upper, nil
	}
	cb.idx = r.boundsIdx
	var err error
	cb.pMin, cb.pMax, err = r.interval(cb, r.pObj, r.pConst)
	if err != nil {
		return 0, 0, err
	}

	if r.opts.Bounds == FastBounds {
		cb.wL, cb.wU, err = r.cornerVectors(cb)
		if err != nil {
			return 0, 0, err
		}
		cb.useFast = true
	}

	if r.opts.Bounds == RecordBounds {
		return r.rankBoundsByRecords(cb, lower, upper)
	}
	err = r.updateRank(r.boundsIdx.Root, cb, &lower, &upper)
	return lower, upper, err
}

// rankBoundsOriginal derives rank bounds in the original space by
// minimizing/maximizing S(r) - S(p) per entry (Appendix C), over the same
// candidate bounds index as the transformed space. Fast bounds do not
// apply there (the min-vector would always be the origin).
func (r *runner) rankBoundsOriginal(leaf *celltree.Node, cb *cellBounds, base int) (int, int, error) {
	if g := leaf.Geom; g != nil {
		cb.verts = g.Verts
	}
	lower, upper := base, base
	if r.boundsIdx == nil {
		return lower, upper, nil
	}
	cb.idx = r.boundsIdx
	if r.opts.Bounds == RecordBounds {
		for _, rec := range r.boundsIdx.Records {
			if err := r.recordDecideOriginal(rec, cb, &lower, &upper); err != nil {
				return 0, 0, err
			}
			if lower > r.opts.K {
				return lower, upper, nil
			}
		}
		return lower, upper, nil
	}
	err := r.updateRankOriginal(r.boundsIdx.Root, cb, &lower, &upper)
	return lower, upper, err
}

// interval returns [min, max] of obj·w + c over the cell closure, using
// cached vertices when available and LPs otherwise.
func (r *runner) interval(cb *cellBounds, obj geom.Vector, c float64) (float64, float64, error) {
	if cb.verts != nil {
		lo, hi := intervalOverVertices(cb.verts, obj, c)
		return lo, hi, nil
	}
	return scoreInterval(cb.sv, cb.cons, obj, c)
}

// diffInterval returns min (wantMax=false) or max of (v - focal)·w over the
// cell closure.
func (r *runner) diffInterval(cb *cellBounds, v geom.Vector, wantMax bool) (float64, error) {
	obj := cb.scratchA(len(v))
	for j := range obj {
		obj[j] = v[j] - r.focal[j]
	}
	if cb.verts != nil {
		lo, hi := intervalOverVertices(cb.verts, obj, 0)
		if wantMax {
			return hi, nil
		}
		return lo, nil
	}
	val, _, st, err := cb.sv.Bound(cb.cons, obj, wantMax)
	if err != nil {
		return 0, err
	}
	if st != lp.Optimal {
		return 0, errStatus(st)
	}
	return val, nil
}

func (r *runner) updateRankOriginal(n *rtree.Node, cb *cellBounds, lower, upper *int) error {
	if *lower > r.opts.K {
		return nil
	}
	for i := range n.Entries {
		e := &n.Entries[i]
		if e.Child != nil {
			// min over cell of S(GL)-S(p) > 0: the whole group beats p
			// everywhere in the cell.
			minLo, err := r.diffInterval(cb, e.Low, false)
			if err != nil {
				return err
			}
			if minLo > boundEps {
				*lower += e.Count
				*upper += e.Count
			} else {
				// max of S(GU)-S(p) <= 0: the group never beats p.
				maxHi, err := r.diffInterval(cb, e.High, true)
				if err != nil {
					return err
				}
				if maxHi > -boundEps {
					if err := r.updateRankOriginal(e.Child, cb, lower, upper); err != nil {
						return err
					}
				}
			}
			if *lower > r.opts.K {
				return nil
			}
			continue
		}
		if cb.skip != nil && cb.skip(e.RecordID) {
			continue
		}
		if err := r.recordDecideOriginal(cb.idx.Records[e.RecordID], cb, lower, upper); err != nil {
			return err
		}
		if *lower > r.opts.K {
			return nil
		}
	}
	return nil
}

func (r *runner) recordDecideOriginal(rec geom.Vector, cb *cellBounds, lower, upper *int) error {
	minD, err := r.diffInterval(cb, rec, false)
	if err != nil {
		return err
	}
	if minD > boundEps {
		*lower++
		*upper++
		return nil
	}
	maxD, err := r.diffInterval(cb, rec, true)
	if err != nil {
		return err
	}
	if maxD > -boundEps {
		*upper++
	}
	return nil
}

// scoreInterval returns [min, max] of obj·w + c over the cell closure,
// solving both LPs on sv.
func scoreInterval(sv *lp.Solver, cons []geom.Constraint, obj geom.Vector, c float64) (float64, float64, error) {
	lo, _, st, err := sv.Bound(cons, obj, false)
	if err != nil {
		return 0, 0, err
	}
	if st != lp.Optimal {
		return 0, 0, errStatus(st)
	}
	hi, _, st, err := sv.Bound(cons, obj, true)
	if err != nil {
		return 0, 0, err
	}
	if st != lp.Optimal {
		return 0, 0, errStatus(st)
	}
	return lo + c, hi + c, nil
}

type errStatus lp.Status

func (e errStatus) Error() string { return "core: score-bound LP " + lp.Status(e).String() }

// cornerVectors computes the min-vector wL and max-vector wU of a cell
// (§6.3): original-space weight vectors such that for every record r and
// every w in the cell, S(r, wL) <= S(r, w) <= S(r, wU). Component j < d-1
// is the min/max of w_j over the cell; the last component is the min/max of
// w_d = 1 - Σ w_j, i.e. one minus the opposite bound of the sum.
func (r *runner) cornerVectors(cb *cellBounds) (geom.Vector, geom.Vector, error) {
	d := r.tree.Dim
	wL := make(geom.Vector, d)
	wU := make(geom.Vector, d)
	axis := make(geom.Vector, r.dim)
	for j := 0; j < r.dim; j++ {
		for i := range axis {
			axis[i] = 0
		}
		axis[j] = 1
		lo, hi, err := r.interval(cb, axis, 0)
		if err != nil {
			return nil, nil, err
		}
		wL[j], wU[j] = lo, hi
	}
	ones := make(geom.Vector, r.dim)
	for i := range ones {
		ones[i] = 1
	}
	sumLo, sumHi, err := r.interval(cb, ones, 0)
	if err != nil {
		return nil, nil, err
	}
	wL[d-1], wU[d-1] = 1-sumHi, 1-sumLo
	return wL, wU, nil
}

// recordObj returns the score objective of a data-space vector v in the
// processing space, as (objective, constant). In the transformed space
// the objective is written into dst (a cellBounds scratch buffer); the
// original space returns v itself.
func (r *runner) recordObj(v, dst geom.Vector) (geom.Vector, float64) {
	if r.opts.Space == Original {
		return v, 0
	}
	d := r.tree.Dim
	obj := dst[:r.dim]
	for j := 0; j < r.dim; j++ {
		obj[j] = v[j] - v[d-1]
	}
	return obj, v[d-1]
}

// updateRank is Algorithm 3's UpdateRank: traverse the aggregate R-tree,
// comparing each entry's score interval in the cell against the focal
// interval, with the fast bounds as a filtering step.
func (r *runner) updateRank(n *rtree.Node, cb *cellBounds, lower, upper *int) error {
	if *lower > r.opts.K {
		return nil // already prunable; no need to tighten further
	}
	for i := range n.Entries {
		e := &n.Entries[i]
		if e.Child != nil {
			decided, err := r.groupDecide(e, cb, lower, upper)
			if err != nil {
				return err
			}
			if !decided {
				if err := r.updateRank(e.Child, cb, lower, upper); err != nil {
					return err
				}
			}
			if *lower > r.opts.K {
				return nil
			}
			continue
		}
		if cb.skip != nil && cb.skip(e.RecordID) {
			continue
		}
		if err := r.recordDecide(cb.idx.Records[e.RecordID], cb, lower, upper); err != nil {
			return err
		}
		if *lower > r.opts.K {
			return nil
		}
	}
	return nil
}

// groupDecide tries to classify an entire subtree against the focal score
// interval. It returns true when the subtree was fully accounted for.
func (r *runner) groupDecide(e *rtree.Entry, cb *cellBounds, lower, upper *int) (bool, error) {
	// Fast filtering step (§6.3).
	if cb.useFast {
		fastLo := cb.wL.Dot(e.Low)
		fastHi := cb.wU.Dot(e.High)
		if done := applyInterval(fastLo, fastHi, e.Count, cb, lower, upper); done {
			return true, nil
		}
	}
	// Tight group bounds (§6.2): interval of S over [GL, GU] across the cell.
	loObj, loC := r.recordObj(e.Low, cb.scratchA(r.dim))
	hiObj, hiC := r.recordObj(e.High, cb.scratchB(r.dim))
	if cb.verts != nil {
		gLo, _ := intervalOverVertices(cb.verts, loObj, loC)
		_, gHi := intervalOverVertices(cb.verts, hiObj, hiC)
		return applyInterval(gLo, gHi, e.Count, cb, lower, upper), nil
	}
	gLo, _, st, err := cb.sv.Bound(cb.cons, loObj, false)
	if err != nil {
		return false, err
	}
	if st != lp.Optimal {
		return false, errStatus(st)
	}
	gHi, _, st, err := cb.sv.Bound(cb.cons, hiObj, true)
	if err != nil {
		return false, err
	}
	if st != lp.Optimal {
		return false, errStatus(st)
	}
	return applyInterval(gLo+loC, gHi+hiC, e.Count, cb, lower, upper), nil
}

// applyInterval implements the three decisive outcomes of Algorithm 3 for a
// group with score interval [lo, hi] and cardinality count:
//
//   - lo > pMax: every record outscores p everywhere in the cell — both
//     bounds advance;
//   - hi < pMin: no record ever outscores p — the group is irrelevant;
//   - [lo, hi] inside [pMin, pMax]: records can never beat p everywhere,
//     but may beat it somewhere — only the upper bound advances.
//
// It returns false when the interval is inconclusive and the caller must
// refine (tighter bounds or descend).
func applyInterval(lo, hi float64, count int, cb *cellBounds, lower, upper *int) bool {
	switch {
	case lo > cb.pMax+boundEps:
		*lower += count
		*upper += count
		return true
	case hi < cb.pMin-boundEps:
		return true
	case lo >= cb.pMin-boundEps && hi <= cb.pMax+boundEps:
		*upper += count
		return true
	default:
		return false
	}
}

// recordDecide classifies a single record: fast filter first, then tight
// per-record score bounds (§6.1).
func (r *runner) recordDecide(rec geom.Vector, cb *cellBounds, lower, upper *int) error {
	if cb.useFast {
		fastLo := cb.wL.Dot(rec)
		fastHi := cb.wU.Dot(rec)
		if applyInterval(fastLo, fastHi, 1, cb, lower, upper) {
			return nil
		}
	}
	obj, c := r.recordObj(rec, cb.scratchA(r.dim))
	rLo, rHi, err := r.interval(cb, obj, c)
	if err != nil {
		return err
	}
	if !applyInterval(rLo, rHi, 1, cb, lower, upper) {
		// Tight bounds straddle the focal interval: the record may or may
		// not beat p depending on w — count it toward the worst case only.
		*upper++
	}
	return nil
}

// rankBoundsByRecords is the record_bounds ablation (§6.1 without the
// index structure): exact per-record score intervals for every candidate.
func (r *runner) rankBoundsByRecords(cb *cellBounds, lower, upper int) (int, int, error) {
	for _, rec := range r.boundsIdx.Records {
		if err := r.recordDecide(rec, cb, &lower, &upper); err != nil {
			return 0, 0, err
		}
		if lower > r.opts.K {
			// Enough to prune; bail out early like the traversal does.
			return lower, upper, nil
		}
	}
	return lower, upper, nil
}
