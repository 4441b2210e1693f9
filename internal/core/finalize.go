package core

import (
	"sort"

	"repro/internal/celltree"
	"repro/internal/lp"
	"repro/internal/polytope"
)

// pendingRegion queues a decided CellTree leaf for finalization: rank is
// the focal record's rank to report, exact whether that rank is exact (a
// surviving leaf) or an upper bound (an early-reported cell).
type pendingRegion struct {
	leaf  *celltree.Node
	rank  int
	exact bool
}

// buildRegion materializes one result region from a decided leaf,
// optionally computing its exact geometry via halfspace intersection (the
// paper's finalization step at the end of §4.2 — the only place exact
// intersection happens). index is the region's final position in the
// result; it seeds volume estimation, so a region's volume is independent
// of how the build work was scheduled. buildRegion only reads shared query
// state, so distinct leaves finalize concurrently as long as each call
// gets its own lpStats.
func (r *runner) buildRegion(p pendingRegion, index int, lpStats *lp.Stats) (Region, error) {
	region := Region{
		Constraints: r.ct.PathConstraints(p.leaf),
		Witness:     p.leaf.WStar,
		Outscorers:  r.outscorers(p.leaf),
		Rank:        p.rank,
		RankExact:   p.exact,
	}
	if r.opts.FinalizeGeometry || r.opts.ComputeVolumes {
		var poly *polytope.Polytope
		if g := p.leaf.Geom; g != nil {
			// Incrementally maintained geometry: already exact.
			poly = &polytope.Polytope{Dim: r.dim, Facets: g.Facets, Vertices: g.Verts}
		} else {
			var err error
			poly, err = polytope.FromConstraints(region.Constraints, r.dim, lpStats)
			if err != nil {
				return Region{}, err
			}
		}
		if r.opts.FinalizeGeometry {
			region.Vertices = poly.Vertices
		}
		if r.opts.ComputeVolumes {
			region.Volume = poly.Volume(r.opts.VolumeSamples, r.opts.Seed+int64(index))
		}
	}
	return region, nil
}

// outscorers collects the dataset record ids proven to strictly outscore
// the focal record throughout the leaf's cell: the focal's global
// dominators (they outrank it everywhere) plus every record contributing a
// positive halfspace to the leaf's path — the cell-tree facts Rank counts
// (Lemma 1), so for an exact-rank leaf the set has exactly rank-1 members.
// The ids are ascending; dominators and positive-halfspace records are
// disjoint because dominators are excluded from hyperplane processing.
func (r *runner) outscorers(leaf *celltree.Node) []int {
	_, np := r.ct.PivotSets(leaf, nil, nil)
	if len(np) == 0 && len(r.domIDs) == 0 {
		return nil
	}
	out := make([]int, 0, len(r.domIDs)+len(np))
	out = append(out, r.domIDs...)
	out = append(out, np...)
	sort.Ints(out)
	return out
}

// appendRegion adds a finished region to the result and fires the
// progressive callback; always called in deterministic region order.
func (r *runner) appendRegion(region Region) {
	r.result.Regions = append(r.result.Regions, region)
	if r.opts.OnRegion != nil {
		r.opts.OnRegion(region)
	}
}

// emitAll finalizes the pending cells — concurrently when the engine has
// more than one worker and geometry work makes it worthwhile — and appends
// them in order, so the result list and the OnRegion callback sequence are
// identical to a serial run.
func (r *runner) emitAll(pending []pendingRegion) error {
	if len(pending) == 0 {
		return nil
	}
	span := r.opts.Trace.Span(PhaseFinalize)
	defer span.End()
	workers := r.workers()
	heavy := r.opts.FinalizeGeometry || r.opts.ComputeVolumes
	if workers <= 1 || len(pending) < 2 || !heavy {
		for _, p := range pending {
			if err := r.cancelled(); err != nil {
				return err
			}
			region, err := r.buildRegion(p, len(r.result.Regions), &r.lpStats)
			if err != nil {
				return err
			}
			r.appendRegion(region)
		}
		return nil
	}
	base := len(r.result.Regions)
	regions := make([]Region, len(pending))
	stats := make([]lp.Stats, workers)
	err := parallelDo(workers, len(pending), func(w, i int) error {
		if err := r.cancelled(); err != nil {
			return err
		}
		region, err := r.buildRegion(pending[i], base+i, &stats[w])
		if err != nil {
			return err
		}
		regions[i] = region
		return nil
	})
	for i := range stats {
		r.lpStats.Add(stats[i])
	}
	if err != nil {
		return err
	}
	for _, region := range regions {
		r.appendRegion(region)
	}
	return nil
}

// finish snapshots the statistics into the result.
func (r *runner) finish() *Result {
	st := &r.result.Stats
	st.Regions = len(r.result.Regions)
	st.LPSolves = r.lpStats.Solves
	st.LPPivots = r.lpStats.Pivots
	st.Parallelism = r.workers()
	if r.ct != nil {
		st.CellTreeNodes = r.ct.CountNodes()
		st.FeasibilityTests = r.ct.Stats.FeasibilityTests
		st.ConstraintRows = r.ct.Stats.ConstraintRows
		st.WStarSkips = r.ct.Stats.WStarSkips
		st.DomShortcuts = r.ct.Stats.DomShortcuts
		st.CellsPruned = int(r.ct.PrunedCells.Load())
	}
	return r.result
}
