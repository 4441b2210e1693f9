package core

import (
	"container/heap"
	"context"
	"fmt"
	"math"

	"repro/internal/celltree"
	"repro/internal/geom"
	"repro/internal/polytope"
	"repro/internal/rtree"
)

// ApproxResult is the outcome of the approximate kSPR algorithm: certain
// regions (the focal record is provably top-K everywhere inside), plus the
// residual uncertain regions whose total measure is bounded by the accuracy
// target. The paper names approximate kSPR with accuracy guarantees as
// future work (§8); this implements it by adaptive subdivision of the
// preference space driven by the same look-ahead rank bounds LP-CTA uses.
type ApproxResult struct {
	Result
	// Uncertain holds the unresolved boxes: the true kSPR region boundary
	// lies inside their union.
	Uncertain []Region
	// UncertainVolume is an upper bound on the measure of the uncertain
	// set; the guarantee is UncertainVolume <= Epsilon * (space measure),
	// unless MaxCells stopped refinement first (check Converged).
	UncertainVolume float64
	// Converged reports whether the epsilon target was met.
	Converged bool
}

// ApproxOptions tunes RunApprox.
type ApproxOptions struct {
	// K is the shortlist size.
	K int
	// Epsilon is the accuracy target: the measure of the uncertain set,
	// relative to the whole preference space, that is acceptable.
	Epsilon float64
	// MaxCells caps the number of boxes examined (0 = 1<<20).
	MaxCells int
	// Ctx, when non-nil, cancels the refinement loop; RunApprox then
	// returns context.Cause(ctx), as Run does. A nil Ctx never cancels.
	Ctx context.Context
}

// boxItem is a subdivision box ordered by volume (largest first), so
// refinement always attacks the biggest contributor to the uncertainty.
type boxItem struct {
	lo, hi geom.Vector
	vol    float64
}

type boxHeap []boxItem

func (h boxHeap) Len() int            { return len(h) }
func (h boxHeap) Less(i, j int) bool  { return h[i].vol > h[j].vol }
func (h boxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxHeap) Push(x interface{}) { *h = append(*h, x.(boxItem)) }
func (h *boxHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// RunApprox answers kSPR approximately: it subdivides the transformed
// preference space into boxes, classifies each box with the rank bounds of
// §6 (upper bound <= K: certainly in; lower bound > K: certainly out), and
// splits inconclusive boxes until their total volume drops below
// Epsilon x the space's volume. Runtime is independent of the arrangement
// complexity — no CellTree is built — which is exactly the trade the
// paper's future-work remark anticipates.
func RunApprox(tree *rtree.Tree, focal geom.Vector, focalID int, opts ApproxOptions) (*ApproxResult, error) {
	if opts.K <= 0 {
		return nil, fmt.Errorf("core: K must be positive, got %d", opts.K)
	}
	if math.IsNaN(opts.Epsilon) || math.IsInf(opts.Epsilon, 0) {
		return nil, fmt.Errorf("core: Epsilon must be finite, got %v", opts.Epsilon)
	}
	if len(focal) != tree.Dim {
		return nil, fmt.Errorf("core: focal record has %d dims, index has %d", len(focal), tree.Dim)
	}
	if opts.Epsilon <= 0 {
		opts.Epsilon = 0.01
	}
	if opts.MaxCells <= 0 {
		opts.MaxCells = 1 << 20
	}
	dim := tree.Dim - 1
	r := &runner{
		tree: tree, focal: focal, focalID: focalID,
		opts:   Options{K: opts.K, Algorithm: LPCTA, Ctx: opts.Ctx},
		dim:    dim,
		bounds: geom.SpaceBoundsTransformed(dim),
	}
	r.pObj = make(geom.Vector, dim)
	d := tree.Dim
	for j := 0; j < dim; j++ {
		r.pObj[j] = focal[j] - focal[d-1]
	}
	r.pConst = focal[d-1]

	res := &ApproxResult{}
	res.Focal = focal.Clone()
	res.K = opts.K
	res.Space = Transformed

	// The whole transformed space is the simplex of volume 1/dim!.
	spaceVol := 1.0
	for i := 2; i <= dim; i++ {
		spaceVol /= float64(i)
	}
	budget := opts.Epsilon * spaceVol

	boxes := &boxHeap{}
	root := boxItem{lo: make(geom.Vector, dim), hi: onesVec(dim), vol: 1}
	heap.Push(boxes, root)
	var uncertainVol float64 = root.vol
	examined := 0

	for boxes.Len() > 0 && uncertainVol > budget && examined < opts.MaxCells {
		if err := r.cancelled(); err != nil {
			return nil, err
		}
		box := heap.Pop(boxes).(boxItem)
		uncertainVol -= box.vol
		examined++

		cons := r.boxConstraints(box)
		// Skip boxes fully outside the simplex.
		if box.lo.Sum() >= 1 {
			continue
		}
		cb := &cellBounds{cons: cons, sv: r.lpSolver(), idx: r.tree, skip: r.rankSkip}
		lower, upper, err := r.boxRankBounds(cb)
		if err != nil {
			return nil, err
		}
		switch {
		case upper <= opts.K:
			res.Regions = append(res.Regions, Region{
				Constraints: cons,
				Witness:     boxCenter(box),
				Rank:        upper,
				RankExact:   false,
				Volume:      r.clippedVolume(cons, box),
			})
		case lower > opts.K:
			// certainly out: drop
		default:
			// Split along the widest axis.
			axis, width := 0, box.hi[0]-box.lo[0]
			for j := 1; j < dim; j++ {
				if w := box.hi[j] - box.lo[j]; w > width {
					axis, width = j, w
				}
			}
			if width < 1e-6 {
				// Numerically unsplittable: keep as uncertain forever.
				res.Uncertain = append(res.Uncertain, Region{
					Constraints: cons, Witness: boxCenter(box), Volume: r.clippedVolume(cons, box),
				})
				continue
			}
			mid := (box.lo[axis] + box.hi[axis]) / 2
			for _, half := range splitBox(box, axis, mid) {
				if half.lo.Sum() >= 1 {
					continue // fully outside the simplex
				}
				heap.Push(boxes, half)
				uncertainVol += half.vol
			}
		}
	}

	// Whatever remains queued is uncertain.
	for _, box := range *boxes {
		cons := r.boxConstraints(box)
		res.Uncertain = append(res.Uncertain, Region{
			Constraints: cons,
			Witness:     boxCenter(box),
			Volume:      r.clippedVolume(cons, box),
		})
	}
	for _, u := range res.Uncertain {
		res.UncertainVolume += u.Volume
	}
	res.Converged = res.UncertainVolume <= budget
	res.Stats.Regions = len(res.Regions)
	res.Stats.RankBoundCells = examined
	res.Stats.LPSolves = r.lpStats.Solves
	return res, nil
}

// boxRankBounds computes rank bounds for a box cell, using its exact corner
// geometry when the dimension permits.
func (r *runner) boxRankBounds(cb *cellBounds) (int, int, error) {
	if r.dim <= celltree.GeomMaxDim {
		if g := celltree.BuildCellGeom(cb.cons, r.dim); g != nil {
			cb.verts = g.Verts
		}
	}
	var err error
	cb.pMin, cb.pMax, err = r.interval(cb, r.pObj, r.pConst)
	if err != nil {
		return 0, 0, err
	}
	cb.wL, cb.wU, err = r.cornerVectors(cb)
	if err != nil {
		return 0, 0, err
	}
	cb.useFast = true
	lower, upper := 1, 1
	err = r.updateRank(r.tree.Root, cb, &lower, &upper)
	return lower, upper, err
}

// boxConstraints renders a box (clipped by the simplex) as constraint rows.
func (r *runner) boxConstraints(box boxItem) []geom.Constraint {
	cons := append([]geom.Constraint(nil), r.bounds...)
	for j := 0; j < r.dim; j++ {
		lo := make(geom.Vector, r.dim)
		lo[j] = -1
		cons = append(cons, geom.Constraint{A: lo, B: -box.lo[j]})
		hi := make(geom.Vector, r.dim)
		hi[j] = 1
		cons = append(cons, geom.Constraint{A: hi, B: box.hi[j]})
	}
	return cons
}

func splitBox(box boxItem, axis int, mid float64) [2]boxItem {
	a := boxItem{lo: box.lo.Clone(), hi: box.hi.Clone()}
	b := boxItem{lo: box.lo.Clone(), hi: box.hi.Clone()}
	a.hi[axis] = mid
	b.lo[axis] = mid
	a.vol = rawBoxVolume(a)
	b.vol = rawBoxVolume(b)
	return [2]boxItem{a, b}
}

func rawBoxVolume(box boxItem) float64 {
	v := 1.0
	for j := range box.lo {
		v *= box.hi[j] - box.lo[j]
	}
	return v
}

// clippedVolume measures box ∩ simplex: exact (via the cell geometry) in
// low dimensions, falling back to the raw box volume — a safe overestimate
// — when geometry is unavailable.
func (r *runner) clippedVolume(cons []geom.Constraint, box boxItem) float64 {
	if r.dim <= celltree.GeomMaxDim {
		if g := celltree.BuildCellGeom(cons, r.dim); g != nil {
			p := polytope.Polytope{Dim: r.dim, Facets: g.Facets, Vertices: g.Verts}
			return p.Volume(4000, 1)
		}
		return 0 // degenerate sliver outside or on the simplex boundary
	}
	return rawBoxVolume(box)
}

func boxCenter(box boxItem) geom.Vector {
	c := make(geom.Vector, len(box.lo))
	for j := range c {
		c[j] = (box.lo[j] + box.hi[j]) / 2
	}
	return c
}

func onesVec(dim int) geom.Vector {
	v := make(geom.Vector, dim)
	for i := range v {
		v[i] = 1
	}
	return v
}
