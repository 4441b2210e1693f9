package core

import (
	"repro/internal/geom"
	"repro/internal/lp"
	"repro/internal/rtree"
)

// boundFreshLeaves computes look-ahead rank bounds for every leaf created
// since the previous batch and prunes / reports cells whose bounds decide
// them (§6.4, Algorithm 3). Classification is a pure function of the
// (immutable) cell and the candidate index, so from parallelLeafThreshold
// fresh leaves on it fans out across the engine's workers, each counting
// its LPs apart; decisions apply in leaf order below either way, keeping
// results bit-identical to the serial path.
func (r *runner) boundFreshLeaves() error {
	span := r.opts.Trace.Span(PhaseRankBounds)
	fresh := r.ct.TakeFreshLeaves()
	live := fresh[:0]
	for _, leaf := range fresh {
		if !leaf.Closed() {
			live = append(live, leaf)
		}
	}
	workers := 1
	if len(live) >= parallelLeafThreshold {
		workers = r.workers()
	}
	type decision struct {
		lower, upper int
	}
	decisions := make([]decision, len(live))
	stats := make([]lp.Stats, workers)
	err := parallelDo(workers, len(live), func(w, i int) error {
		if err := r.cancelled(); err != nil {
			return err
		}
		var verts []geom.Vector
		if g := live[i].Geom; g != nil {
			verts = g.Verts
		}
		lo, hi, err := r.rankBounds(r.ct.PathConstraints(live[i]), verts, &stats[w])
		decisions[i] = decision{lo, hi}
		return err
	})
	for i := range stats {
		r.lpStats.Add(stats[i])
	}
	if err != nil {
		return err
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
// traversal: the cell in transformed coordinates (an original-space cell's
// Σw = 1 slice), its LP accounting, the focal score interval and
// (FastBounds only) the min/max-vectors that power the fast bounds of §6.3.
type cellBounds struct {
	cons []geom.Constraint
	// verts, when non-nil, holds the cell's exact vertices; linear score
	// intervals are then min/max over the vertices instead of LP solves.
	// This is an exact acceleration (a linear function attains its extrema
	// over a polytope at vertices) that pays off in low-dimensional
	// preference spaces; higher dimensions fall back to the LP bounds the
	// paper describes.
	verts []geom.Vector
	// stats counts the calling goroutine's LPs.
	stats      *lp.Stats
	pMin, pMax float64
	// wL, wU are the cell's corner weight vectors, lifted to d
	// dimensions; nil when the fast bounds are off.
	wL, wU geom.Vector
	// objA/objB are reusable objective buffers for recordObj, replacing
	// the per-record allocations that dominated the rank traversal's GC
	// pressure at large candidate counts. Two buffers, because decide
	// holds the low- and high-corner objectives simultaneously.
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

// rankBounds computes [Rank(c), Rank̄(c)] for the cell-tree leaf given by
// the constraints cons and, when known, its vertices verts: the best and
// worst rank the focal record can attain inside it. It is Algorithm 3's
// UpdateRank over the query's candidate bounds index (the non-skip
// k-skyband) with the focal's dominators folded in as a constant: a
// dominator outranks the focal everywhere, and a record outside the
// k-skyband can only beat the focal where at least K skyband records
// already do (Lemma 6's argument), so 1 + baseRank + [certain, possible]
// skyband beaters brackets the true rank wherever it is at most K. Beyond
// being tighter and cheaper than a full-dataset traversal, this makes
// every bound decision a pure function of the candidate set — the
// property incremental maintenance relies on. An original-space cell is
// bounded over its Σw = 1 slice (see slice). stats counts the calling
// goroutine's LPs.
func (r *runner) rankBounds(cons []geom.Constraint, verts []geom.Vector, stats *lp.Stats) (int, int, error) {
	lower, upper := 1+r.baseRank, 1+r.baseRank
	if r.boundsIdx == nil {
		// No candidate can ever outscore the focal record: its rank is
		// exactly 1 + baseRank throughout the cell.
		return lower, upper, nil
	}
	if r.opts.Space == Original {
		cons, verts = r.slice(cons, verts)
	}
	cb := &cellBounds{cons: cons, verts: verts, stats: stats}
	var err error
	if cb.pMin, cb.pMax, err = interval(cb, r.pObj, r.pConst); err != nil {
		return 0, 0, err
	}
	if r.opts.Bounds == FastBounds {
		if cb.wL, cb.wU, err = r.cornerVectors(cb); err != nil {
			return 0, 0, err
		}
	}
	if r.opts.Bounds == RecordBounds {
		// The record_bounds ablation (§6.1 without the index structure):
		// exact per-record score intervals for every candidate, stopping
		// like the traversal once the cell is prunable.
		for _, rec := range r.boundsIdx.Records {
			var decided bool
			if decided, err = r.decide(rec, rec, 1, cb, &lower, &upper); err != nil {
				break
			}
			if !decided {
				upper++
			}
			if lower > r.opts.K {
				break
			}
		}
	} else {
		err = r.updateRank(r.boundsIdx.Root, cb, &lower, &upper)
	}
	if err != nil {
		return 0, 0, err
	}
	return lower, upper, nil
}

// updateRank is Algorithm 3's UpdateRank: traverse the aggregate R-tree,
// deciding each entry (a group, or a record as a group of one) against the
// focal in the cell, and descending into the groups its bounds leave
// undecided.
func (r *runner) updateRank(n *rtree.Node, cb *cellBounds, lower, upper *int) error {
	if *lower > r.opts.K {
		return nil // already prunable; no need to tighten further
	}
	for i := range n.Entries {
		e := &n.Entries[i]
		decided, err := r.decide(e.Low, e.High, e.Count, cb, lower, upper)
		if err == nil && !decided {
			if e.Child != nil {
				err = r.updateRank(e.Child, cb, lower, upper)
			} else {
				// The record may or may not beat p depending on w: it
				// counts toward the worst case only.
				*upper++
			}
		}
		if err != nil {
			return err
		}
		if *lower > r.opts.K {
			return nil
		}
	}
	return nil
}

// decide tries to account for count records lying between the corners lo
// and hi — a group's MBR (§6.2), or one record as both corners (§6.1) —
// against the focal throughout the cell. It returns false when the bounds are
// inconclusive.
func (r *runner) decide(lo, hi geom.Vector, count int, cb *cellBounds, lower, upper *int) (bool, error) {
	// Fast filtering step (§6.3).
	if cb.wL != nil && applyInterval(cb.wL.Dot(lo), cb.wU.Dot(hi), count, cb, lower, upper) {
		return true, nil
	}
	// Tight bounds: the interval of S over [lo, hi] across the cell. A
	// single record is both corners, so one interval serves it.
	loObj, loC := r.recordObj(lo, cb.scratchA(r.tree.Dim-1))
	if count == 1 {
		sLo, sHi, err := interval(cb, loObj, loC)
		if err != nil {
			return false, err
		}
		return applyInterval(sLo, sHi, 1, cb, lower, upper), nil
	}
	hiObj, hiC := r.recordObj(hi, cb.scratchB(r.tree.Dim-1))
	sLo, err := extremum(cb, loObj, loC, false)
	if err != nil {
		return false, err
	}
	sHi, err := extremum(cb, hiObj, hiC, true)
	if err != nil {
		return false, err
	}
	return applyInterval(sLo, sHi, count, cb, lower, upper), nil
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

// extremum returns min (wantMax=false) or max of obj·w + c over the cell
// closure, using cached vertices when available and an LP otherwise.
func extremum(cb *cellBounds, obj geom.Vector, c float64, wantMax bool) (float64, error) {
	if cb.verts != nil {
		lo, hi := intervalOverVertices(cb.verts, obj, c)
		if wantMax {
			return hi, nil
		}
		return lo, nil
	}
	val, _, st, err := lp.Bound(cb.cons, obj, wantMax, cb.stats)
	if err != nil {
		return 0, err
	}
	if st != lp.Optimal {
		return 0, errStatus(st)
	}
	return val + c, nil
}

// interval returns [min, max] of obj·w + c over the cell closure, in one
// pass over cached vertices when available.
func interval(cb *cellBounds, obj geom.Vector, c float64) (float64, float64, error) {
	if cb.verts != nil {
		lo, hi := intervalOverVertices(cb.verts, obj, c)
		return lo, hi, nil
	}
	lo, err := extremum(cb, obj, c, false)
	if err != nil {
		return 0, 0, err
	}
	hi, err := extremum(cb, obj, c, true)
	if err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
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
	axis := make(geom.Vector, d-1)
	for j := range axis {
		for i := range axis {
			axis[i] = 0
		}
		axis[j] = 1
		lo, hi, err := interval(cb, axis, 0)
		if err != nil {
			return nil, nil, err
		}
		wL[j], wU[j] = lo, hi
	}
	ones := make(geom.Vector, d-1)
	for i := range ones {
		ones[i] = 1
	}
	sumLo, sumHi, err := interval(cb, ones, 0)
	if err != nil {
		return nil, nil, err
	}
	wL[d-1], wU[d-1] = 1-sumHi, 1-sumLo
	return wL, wU, nil
}

// recordObj returns the transformed-space score objective of a data-space
// vector v, as (objective, constant), the objective written into dst (at
// least d-1 long): v·w = obj·w' + constant on Σw = 1, w' = w[:d-1].
func (r *runner) recordObj(v, dst geom.Vector) (geom.Vector, float64) {
	d := r.tree.Dim
	obj := dst[:d-1]
	for j := range obj {
		obj[j] = v[j] - v[d-1]
	}
	return obj, v[d-1]
}

// slice maps an original-space cell (Appendix C), given by its path
// constraints and, when known, its vertices, onto its slice at Σw = 1 in
// transformed coordinates. The cell is a cone cut by the box 0 < w < 1,
// which w ↦ w/Σw takes onto the slice, and the sign of S(r) - S(p) is
// constant along each ray from the origin: the slice's bounds decide the
// cell exactly. A label row a·w <= b becomes recordObj(a)·w' <= b - a_d,
// renormalized (a row left without coefficients cannot cut the slice).
// Every vertex but the origin has some w_j = 1 tight, so a sum of at
// least 1; scaled to Σw = 1, those vertices span the slice.
func (r *runner) slice(cons []geom.Constraint, verts []geom.Vector) ([]geom.Constraint, []geom.Vector) {
	d := r.tree.Dim
	out := geom.SpaceBoundsTransformed(d - 1)
	for _, c := range cons[len(r.bounds):] {
		a, shift := r.recordObj(c.A, make(geom.Vector, d-1))
		n := a.Norm()
		if n <= geom.Eps {
			continue
		}
		for j := range a {
			a[j] /= n
		}
		out = append(out, geom.Constraint{A: a, B: (c.B - shift) / n, Strict: c.Strict})
	}
	if verts == nil {
		return out, nil
	}
	sliced := make([]geom.Vector, 0, len(verts)-1)
	for _, v := range verts {
		sum := v.Sum()
		if sum < 0.5 {
			continue // the origin
		}
		u := make(geom.Vector, d-1)
		for j := range u {
			u[j] = v[j] / sum
		}
		sliced = append(sliced, u)
	}
	return out, sliced
}
