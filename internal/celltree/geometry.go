package celltree

import (
	"repro/internal/geom"
	"repro/internal/polytope"
)

// CellGeom is the exact geometry of a node's region: a minimal facet list
// and the vertex set of the closure. It is maintained incrementally — a
// child's geometry is its parent's clipped by the child's edge label: the
// parent's vertices on the kept side plus the points where the label's
// plane meets dim-1 of the parent's facets, so each node costs
// C(len(Facets), dim-1) tiny linear solves instead of LP solves.
// Geometry is kept only for preference spaces of dimension <= GeomMaxDim;
// elsewhere (and for degenerate cells) nodes carry nil geometry and every
// decision falls back to the paper's LP machinery. Each CellGeom owns its
// vertex storage: no two cells share vertex memory.
type CellGeom struct {
	Facets []geom.Constraint
	Verts  []geom.Vector
}

// GeomMaxDim bounds the dimensionality for which per-node geometry is
// maintained: data of up to 5 dimensions in the transformed space
// (internal/core keeps original-space cones at 3). It equals polytope's
// maxStackDim, the largest dimension whose clip solves run
// allocation-free; exact volumes stop at 3 (Polytope.Volume).
const GeomMaxDim = 4

// geomTol is the tightness tolerance used when pruning facets.
const geomTol = 1e-7

// BuildCellGeom enumerates vertices over rows (plus the implicit axis
// facets, which polytope.EnumerateVertices owns) and prunes rows that are
// tight at no vertex. It returns nil when the region is lower-dimensional
// or empty (fewer than dim+1 vertices).
func BuildCellGeom(rows []geom.Constraint, dim int) *CellGeom {
	verts := polytope.EnumerateVertices(rows, dim)
	if len(verts) < dim+1 {
		return nil
	}
	var facets []geom.Constraint
	for _, c := range rows {
		facets = keepFacet(facets, c, verts)
	}
	for i := 0; i < dim; i++ {
		a := make(geom.Vector, dim)
		a[i] = -1
		facets = keepFacet(facets, geom.Constraint{A: a, B: 0}, verts)
	}
	return &CellGeom{Facets: facets, Verts: verts}
}

// Cut returns the geometry of the region clipped by one more halfspace
// row, or nil when the clipped region is lower-dimensional or empty. The
// facets are scanned as BuildCellGeom scans its rows: the parent's facets,
// then row, each kept when tight at a new vertex and not a duplicate plane.
func (g *CellGeom) Cut(row geom.Constraint, dim int) *CellGeom {
	verts := polytope.ClipVertices(g.Verts, g.Facets, row, dim)
	if len(verts) < dim+1 {
		return nil
	}
	facets := make([]geom.Constraint, 0, len(g.Facets)+1)
	for _, c := range g.Facets {
		facets = keepFacet(facets, c, verts)
	}
	facets = keepFacet(facets, row, verts)
	return &CellGeom{Facets: facets, Verts: verts}
}

// keepFacet appends c to facets when it is tight at some vertex (within
// geomTol) and no equivalent plane is already kept.
func keepFacet(facets []geom.Constraint, c geom.Constraint, verts []geom.Vector) []geom.Constraint {
	for _, v := range verts {
		if d := c.A.Dot(v) - c.B; d > -geomTol && d < geomTol {
			if containsPlane(facets, c) {
				return facets
			}
			return append(facets, c)
		}
	}
	return facets
}

// Centroid returns the vertex mean — strictly interior for full-dimensional
// regions by convexity.
func (g *CellGeom) Centroid() geom.Vector {
	c := make(geom.Vector, len(g.Verts[0]))
	for _, v := range g.Verts {
		for i, x := range v {
			c[i] += x
		}
	}
	for i := range c {
		c[i] /= float64(len(g.Verts))
	}
	return c
}

// EvalRange returns the min and max of h's signed evaluation across the
// vertices; used to classify a hyperplane against the cell in O(|Verts|).
func (g *CellGeom) EvalRange(h geom.Hyperplane) (float64, float64) {
	lo := h.Eval(g.Verts[0])
	hi := lo
	for _, v := range g.Verts[1:] {
		e := h.Eval(v)
		if e < lo {
			lo = e
		}
		if e > hi {
			hi = e
		}
	}
	return lo, hi
}

// containsPlane reports whether an equivalent facet plane is already kept
// (space bounds, box rows and the implicit axis rows can coincide; keeping
// duplicates would, among other things, double-count facet pyramids in
// exact volume computation).
func containsPlane(facets []geom.Constraint, c geom.Constraint) bool {
	for _, f := range facets {
		if len(f.A) != len(c.A) {
			continue
		}
		same := f.B-c.B < geomTol && c.B-f.B < geomTol
		for j := 0; same && j < len(f.A); j++ {
			d := f.A[j] - c.A[j]
			same = d < geomTol && d > -geomTol
		}
		if same {
			return true
		}
	}
	return false
}
