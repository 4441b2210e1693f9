package celltree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/lp"
	"repro/internal/polytope"
)

func TestBuildCellGeomSimplex(t *testing.T) {
	g := BuildCellGeom(geom.SpaceBoundsTransformed(2), 2)
	if g == nil {
		t.Fatal("simplex geometry is nil")
	}
	if len(g.Verts) != 3 {
		t.Fatalf("simplex has %d vertices, want 3", len(g.Verts))
	}
	for _, f := range g.Facets {
		tight := false
		for _, v := range g.Verts {
			if math.Abs(f.A.Dot(v)-f.B) < 1e-6 {
				tight = true
			}
		}
		if !tight {
			t.Fatalf("facet %+v tight nowhere", f)
		}
	}
	c := g.Centroid()
	if !geom.InSimplex(c) {
		t.Fatalf("centroid %v not interior", c)
	}
}

func TestBuildCellGeomDegenerate(t *testing.T) {
	cons := append(geom.SpaceBoundsTransformed(2),
		geom.Constraint{A: geom.Vector{1, 0}, B: 0.5},
		geom.Constraint{A: geom.Vector{-1, 0}, B: -0.5},
	)
	if g := BuildCellGeom(cons, 2); g != nil {
		t.Fatalf("degenerate region produced geometry with %d vertices", len(g.Verts))
	}
}

func TestBuildCellGeomDeduplicatesFacets(t *testing.T) {
	// Bounds repeated twice: facet list must not contain duplicates.
	cons := append(geom.SpaceBoundsTransformed(2), geom.SpaceBoundsTransformed(2)...)
	g := BuildCellGeom(cons, 2)
	if g == nil {
		t.Fatal("geometry nil")
	}
	for i := range g.Facets {
		for j := i + 1; j < len(g.Facets); j++ {
			if containsPlane(g.Facets[i:i+1], g.Facets[j]) {
				t.Fatalf("duplicate facet planes %d and %d", i, j)
			}
		}
	}
}

// sameGeom reports how g differs from want: vertex sets equal within
// geom.Eps in both directions, and the same facet rows in the same order.
func sameGeom(g, want *CellGeom) string {
	if (g == nil) != (want == nil) {
		return fmt.Sprintf("nil=%v, want nil=%v", g == nil, want == nil)
	}
	if g == nil {
		return ""
	}
	for _, pair := range [][2][]geom.Vector{{g.Verts, want.Verts}, {want.Verts, g.Verts}} {
		for _, v := range pair[0] {
			if !slices.ContainsFunc(pair[1], v.Equal) {
				return fmt.Sprintf("vertex %v of %v missing from %v", v, pair[0], pair[1])
			}
		}
	}
	if len(g.Facets) != len(want.Facets) {
		return fmt.Sprintf("%d facets, want %d", len(g.Facets), len(want.Facets))
	}
	for i, f := range g.Facets {
		w := want.Facets[i]
		if f.B != w.B || !slices.Equal(f.A, w.A) {
			return fmt.Sprintf("facet %d is %+v, want %+v", i, f, w)
		}
	}
	return ""
}

// cutThrough returns a random row that properly cuts g: a unit normal
// through a point between g's centroid and its farthest vertex, so the
// kept side holds the centroid and both sides are full-dimensional.
func cutThrough(rng *rand.Rand, g *CellGeom, dim int) geom.Constraint {
	for {
		a := make(geom.Vector, dim)
		for j := range a {
			a[j] = rng.NormFloat64()
		}
		n := a.Norm()
		if n < 1e-9 {
			continue
		}
		for j := range a {
			a[j] /= n
		}
		c := a.Dot(g.Centroid())
		hi := c
		for _, v := range g.Verts {
			hi = max(hi, a.Dot(v))
		}
		if hi-c > 1e-6 {
			return geom.Constraint{A: a, B: c + rng.Float64()*0.9*(hi-c)}
		}
	}
}

func TestCutMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		dim := 2 + trial%2
		rows := geom.SpaceBoundsTransformed(dim)
		g := BuildCellGeom(rows, dim)
		for cut := 0; cut < 12; cut++ {
			row := cutThrough(rng, g, dim)
			if cut%4 == 3 {
				row.B += 2 // a row the whole cell satisfies: no new vertex, no new facet
			}
			rows = append(rows, row)
			g = g.Cut(row, dim)
			if diff := sameGeom(g, BuildCellGeom(rows, dim)); diff != "" {
				t.Fatalf("trial %d cut %d: incremental vs scratch: %s", trial, cut, diff)
			}
			if g == nil {
				t.Fatalf("trial %d cut %d: a cut through the centroid emptied the cell", trial, cut)
			}
		}
		// A row no point of the cell satisfies: no geometry either way.
		row := cutThrough(rng, g, dim)
		row.B -= 2
		if diff := sameGeom(g.Cut(row, dim), BuildCellGeom(append(rows, row), dim)); diff != "" {
			t.Fatalf("trial %d, emptying cut: incremental vs scratch: %s", trial, diff)
		}
	}
}

// A child's vertices are its own: mutating them leaves the parent (and so
// every other region built from the same tree) untouched.
func TestCutOwnsVertexStorage(t *testing.T) {
	parent := BuildCellGeom(geom.SpaceBoundsTransformed(2), 2)
	before := make([]geom.Vector, len(parent.Verts))
	for i, v := range parent.Verts {
		before[i] = v.Clone()
	}
	child := parent.Cut(geom.Constraint{A: geom.Vector{1, 0}, B: 0.5}, 2)
	for _, v := range child.Verts {
		for j := range v {
			v[j] = 42
		}
	}
	for i, v := range parent.Verts {
		if !slices.Equal(v, before[i]) {
			t.Fatalf("parent vertex %d changed to %v via its child", i, v)
		}
	}
}

// buildCellGeomDupAxis is BuildCellGeom as it was when it appended the axis
// rows itself before polytope.EnumerateVertices appended them again: the
// reference the single-append version must reproduce bit for bit.
func buildCellGeomDupAxis(rows []geom.Constraint, dim int) *CellGeom {
	all := append([]geom.Constraint(nil), rows...)
	for i := 0; i < dim; i++ {
		a := make(geom.Vector, dim)
		a[i] = -1
		all = append(all, geom.Constraint{A: a, B: 0})
	}
	verts := polytope.EnumerateVertices(all, dim, 0)
	if len(verts) < dim+1 {
		return nil
	}
	var facets []geom.Constraint
	for _, c := range all {
		facets = keepFacet(facets, c, verts)
	}
	return &CellGeom{Facets: facets, Verts: verts}
}

func TestBuildCellGeomMatchesDuplicateAxisReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 400; trial++ {
		dim := 2 + trial%2
		rows := geom.SpaceBoundsTransformed(dim)
		for i, extra := 0, rng.Intn(6); i < extra; i++ {
			a := make(geom.Vector, dim)
			var b float64
			if trial%4 < 2 {
				// Integer grid: ties, coincident planes, degenerate vertices.
				for j := range a {
					a[j] = float64(rng.Intn(5) - 2)
				}
				b = float64(rng.Intn(9)-2) / 4
			} else {
				for j := range a {
					a[j] = rng.NormFloat64()
				}
				b = rng.Float64()*0.6 - 0.1
			}
			rows = append(rows, geom.Constraint{A: a, B: b})
		}
		got, want := BuildCellGeom(rows, dim), buildCellGeomDupAxis(rows, dim)
		if (got == nil) != (want == nil) {
			t.Fatalf("trial %d: nil=%v, reference nil=%v", trial, got == nil, want == nil)
		}
		if got == nil {
			continue
		}
		if len(got.Verts) != len(want.Verts) {
			t.Fatalf("trial %d: %d vertices, reference %d", trial, len(got.Verts), len(want.Verts))
		}
		for i, v := range got.Verts {
			if !slices.Equal(v, want.Verts[i]) {
				t.Fatalf("trial %d: vertex %d is %v, reference %v", trial, i, v, want.Verts[i])
			}
		}
		if diff := sameGeom(got, want); diff != "" {
			t.Fatalf("trial %d: %s", trial, diff)
		}
	}
}

func TestEvalRangeClassification(t *testing.T) {
	g := BuildCellGeom(geom.SpaceBoundsTransformed(2), 2)
	// Hyperplane w1 = w2 cuts the simplex: eval range must straddle zero.
	h := geom.NewHyperplaneTransformed(0, geom.Vector{1, 0, 0}, geom.Vector{0, 1, 0})
	lo, hi := g.EvalRange(h)
	if !(lo < 0 && hi > 0) {
		t.Fatalf("cutting hyperplane classified [%g, %g]", lo, hi)
	}
	// A hyperplane far outside: strictly one-sided.
	far := geom.Hyperplane{ID: 1, Coef: geom.Vector{1, 0}, RHS: 5, Kind: geom.Proper}
	lo, hi = g.EvalRange(far)
	if hi >= 0 {
		t.Fatalf("far hyperplane classified [%g, %g], want all negative", lo, hi)
	}
}

// Tree-level invariant: every live leaf with geometry agrees with
// from-scratch halfspace intersection of its path constraints.
func TestNodeGeometryMatchesPathConstraints(t *testing.T) {
	for dim := 2; dim <= GeomMaxDim; dim++ {
		rng := rand.New(rand.NewSource(13))
		tr := newTestTree(dim, 1<<30)
		for i := 0; i < 10; i++ {
			if err := tr.Insert(randHyperplane(rng, i, dim+1), nil); err != nil {
				t.Fatal(err)
			}
		}
		checked := 0
		tr.LiveLeaves(func(n *Node) bool {
			if n.Geom == nil {
				t.Fatalf("dim %d: live leaf without geometry", dim)
			}
			poly, err := polytope.FromConstraints(tr.PathConstraints(n), tr.Dim, &lp.Stats{})
			if err != nil {
				t.Fatal(err)
			}
			if len(poly.Vertices) != len(n.Geom.Verts) {
				t.Fatalf("dim %d: node geometry has %d vertices, scratch %d",
					dim, len(n.Geom.Verts), len(poly.Vertices))
			}
			for _, pair := range [][2][]geom.Vector{{n.Geom.Verts, poly.Vertices}, {poly.Vertices, n.Geom.Verts}} {
				for _, v := range pair[0] {
					if !slices.ContainsFunc(pair[1], v.Equal) {
						t.Fatalf("dim %d: vertex %v of %v missing from %v", dim, v, pair[0], pair[1])
					}
				}
			}
			checked++
			return true
		})
		if checked < 10 {
			t.Fatalf("dim %d: only %d live leaves checked", dim, checked)
		}
	}
}

func TestGeomDecidesCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := newTestTree(2, 1<<30)
	for i := 0; i < 12; i++ {
		if err := tr.Insert(randHyperplane(rng, i, 3), nil); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Stats.GeomDecides == 0 {
		t.Fatal("geometric classification never fired in 2-d")
	}
}

// decodeCut reads one integer-grid cut from the front of data: dim
// coefficients in [-3, 3], an offset in [-1, 1] on a 1/8 grid shifted by
// up to three units of cutNudge, and a bit choosing which side of the cut
// the chain keeps. ok is false when data runs out.
func decodeCut(data []byte, dim int) (row geom.Constraint, flip bool, rest []byte, ok bool) {
	if len(data) < dim+3 {
		return geom.Constraint{}, false, nil, false
	}
	a := make(geom.Vector, dim)
	for j := range a {
		a[j] = float64(int(data[j]%7) - 3)
	}
	b := float64(int(data[dim]%17)-8)/8 + float64(int(data[dim+1]%7)-3)*cutNudge
	return geom.Constraint{A: a, B: b}, data[dim+2]%2 == 1, data[dim+3:], true
}

// cutNudge moves a grid plane to within 1e-8 of the vertices it passes
// through. It is irrational, so no sum of nudges scaled by the grid's
// small rational (and √3) factors lands a pair of near-coincident
// vertices exactly geom.Eps apart — where two equally valid enumeration
// orders may deduplicate them differently.
var cutNudge = 1e-8 / math.Sqrt2

// negated returns the closed opposite side of c.
func negated(c geom.Constraint) geom.Constraint {
	a := make(geom.Vector, len(c.A))
	for j, x := range c.A {
		a[j] = -x
	}
	return geom.Constraint{A: a, B: -c.B}
}

// FuzzCellGeomCut applies a chain of integer-grid cuts to a transformed
// root cell and checks each Cut, on both sides of the cut, against
// BuildCellGeom over the chain's full row list. Cuts that do not leave
// more than 10*geomTol on both sides are skipped, as Tree.split never
// sees them.
func FuzzCellGeomCut(f *testing.F) {
	// Byte layout: dim selector (0: dim 2, 1: dim 3), then per cut dim
	// coefficient bytes (c%7-3), an offset byte ((b%17-8)/8), a nudge byte
	// ((p%7-3)·cutNudge) and a side byte.
	for _, seed := range [][]byte{
		{1, 4, 4, 2, 8, 3, 0},                                       // w1+w2-w3 <= 0: through the origin vertex
		{1, 4, 2, 3, 8, 3, 0, 3, 2, 4, 8, 3, 1},                     // w1 <= w2, then w3 >= w2: along edges
		{1, 4, 3, 3, 10, 3, 0, 4, 4, 4, 12, 3, 1, 3, 4, 3, 9, 3, 0}, // parallel to facets
		{1, 4, 3, 3, 10, 3, 0, 4, 4, 2, 8, 4, 0, 3, 4, 2, 8, 2, 1},  // within 1e-8 of a vertex
		{1, 2, 6, 4, 16, 4, 1},                                      // within 1e-8 of a simplex corner
		{1, 4, 2, 3, 8, 3, 0, 4, 2, 3, 8, 3, 1, 2, 4, 3, 8, 3, 0},   // the same plane again, both ways
		{0, 4, 2, 8, 3, 0, 4, 4, 12, 3, 1, 4, 3, 10, 4, 0},          // dim 2
		{0, 5, 2, 9, 3, 1, 2, 5, 9, 3, 0, 4, 4, 12, 3, 0, 4, 2, 8, 4, 1},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		dim := 2 + int(data[0]%2)
		data = data[1:]
		rows := geom.SpaceBoundsTransformed(dim)
		g := BuildCellGeom(rows, dim)
		for cuts := 0; cuts < 24 && g != nil; cuts++ {
			row, flip, rest, ok := decodeCut(data, dim)
			if !ok {
				return
			}
			data = rest
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range g.Verts {
				e := row.A.Dot(v) - row.B
				lo, hi = min(lo, e), max(hi, e)
			}
			if lo > -10*geomTol || hi < 10*geomTol {
				continue
			}
			if flip {
				row = negated(row)
			}
			other := negated(row)
			otherRows := append(slices.Clip(rows), other)
			if diff := sameGeom(g.Cut(other, dim), BuildCellGeom(otherRows, dim)); diff != "" {
				t.Fatalf("cut %d, dropped side %+v: %s", cuts, other, diff)
			}
			rows = append(rows, row)
			g = g.Cut(row, dim)
			if diff := sameGeom(g, BuildCellGeom(rows, dim)); diff != "" {
				t.Fatalf("cut %d, kept side %+v: %s", cuts, row, diff)
			}
		}
	})
}
