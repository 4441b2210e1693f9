package polytope

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/lp"
)

// unitBox returns the constraints 0 <= w_i <= hi in dim dimensions.
func unitBox(dim int, hi float64) []geom.Constraint {
	var cons []geom.Constraint
	for i := 0; i < dim; i++ {
		lo := make(geom.Vector, dim)
		lo[i] = -1
		cons = append(cons, geom.Constraint{A: lo, B: 0})
		up := make(geom.Vector, dim)
		up[i] = 1
		cons = append(cons, geom.Constraint{A: up, B: hi})
	}
	return cons
}

func TestUnitSquareVertices(t *testing.T) {
	p, err := FromConstraints(unitBox(2, 1), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Vertices) != 4 {
		t.Fatalf("unit square has %d vertices, want 4", len(p.Vertices))
	}
	if got := p.Volume(0, 1); math.Abs(got-1) > 1e-9 {
		t.Fatalf("unit square area %v, want 1", got)
	}
}

func TestUnitCubeVertices(t *testing.T) {
	p, err := FromConstraints(unitBox(3, 1), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Vertices) != 8 {
		t.Fatalf("unit cube has %d vertices, want 8", len(p.Vertices))
	}
	if got := p.Volume(200000, 1); math.Abs(got-1) > 0.02 {
		t.Fatalf("unit cube Monte-Carlo volume %v, want ~1", got)
	}
}

func TestSimplexGeometry(t *testing.T) {
	// Closed transformed preference simplex in 2-d: right triangle of area 1/2.
	cons := geom.SpaceBoundsTransformed(2)
	p, err := FromConstraints(cons, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Vertices) != 3 {
		t.Fatalf("triangle has %d vertices, want 3", len(p.Vertices))
	}
	if got := p.Volume(0, 1); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("triangle area %v, want 0.5", got)
	}
}

func TestIntervalVolume1D(t *testing.T) {
	cons := []geom.Constraint{
		{A: geom.Vector{-1}, B: -0.25}, // w >= 0.25
		{A: geom.Vector{1}, B: 0.75},   // w <= 0.75
	}
	p, err := FromConstraints(cons, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Volume(0, 1); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("interval length %v, want 0.5", got)
	}
}

func TestRemoveRedundantDropsLooseRows(t *testing.T) {
	cons := unitBox(2, 1)
	// Add rows that can never bind inside the unit square.
	cons = append(cons,
		geom.Constraint{A: geom.Vector{1, 0}, B: 5},
		geom.Constraint{A: geom.Vector{1, 1}, B: 10},
	)
	facets, err := RemoveRedundant(cons, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The lower bounds -w_i <= 0 are redundant against the implicit w >= 0
	// convention, so only the two upper-bound rows survive.
	if len(facets) != 2 {
		t.Fatalf("kept %d rows, want the 2 binding upper bounds", len(facets))
	}
	for _, f := range facets {
		if math.Abs(f.B-1) > 1e-12 {
			t.Fatalf("unexpected surviving row %+v", f)
		}
	}
}

func TestRemoveRedundantKeepsOneDuplicate(t *testing.T) {
	cons := unitBox(2, 1)
	dup := geom.Constraint{A: geom.Vector{1, 0}, B: 0.7} // binding: tighter than w1 <= 1
	cons = append(cons, dup, dup, dup)
	facets, err := RemoveRedundant(cons, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one copy of w1 <= 0.7 must survive, and it supersedes w1 <= 1.
	count := 0
	for _, f := range facets {
		if math.Abs(f.B-0.7) < 1e-12 && math.Abs(f.A[0]-1) < 1e-12 && math.Abs(f.A[1]) < 1e-12 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("duplicate row kept %d times, want 1", count)
	}
	if len(facets) != 2 {
		t.Fatalf("kept %d rows, want 2 (w1 <= 0.7 and w2 <= 1)", len(facets))
	}
}

func TestEmptyRegion(t *testing.T) {
	cons := []geom.Constraint{
		{A: geom.Vector{1, 0}, B: 0},
		{A: geom.Vector{-1, 0}, B: -1}, // w1 >= 1 and w1 <= 0
	}
	p, err := FromConstraints(cons, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Empty() {
		t.Fatalf("empty region produced vertices %v", p.Vertices)
	}
	if p.Volume(0, 1) != 0 {
		t.Fatal("empty region has non-zero volume")
	}
	if p.Centroid() != nil {
		t.Fatal("empty region has a centroid")
	}
}

func TestCentroidInside(t *testing.T) {
	p, err := FromConstraints(geom.SpaceBoundsTransformed(3), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Centroid()
	if !p.Contains(c, 1e-9) {
		t.Fatalf("centroid %v outside polytope", c)
	}
}

func TestFeasibleByVertexEnumAgreesWithLP(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 120; trial++ {
		dim := 1 + rng.Intn(3)
		cons := geom.SpaceBoundsTransformed(dim)
		for i := 0; i < rng.Intn(5); i++ {
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
			cons = append(cons, geom.Constraint{A: a, B: rng.Float64()*0.8 - 0.1, Strict: true})
		}
		in, err := lp.FeasibleInterior(cons, dim, nil)
		if err != nil {
			t.Fatal(err)
		}
		byGeom, err := FeasibleByVertexEnum(cons, dim, nil)
		if err != nil {
			t.Fatal(err)
		}
		if in.Feasible != byGeom {
			// Tolerate disagreement only for razor-thin cells where the two
			// tolerance regimes legitimately differ.
			if in.Feasible && in.Slack > 1e-5 {
				t.Fatalf("trial %d dim %d: LP feasible (slack %g) but vertex enum says empty",
					trial, dim, in.Slack)
			}
			if !in.Feasible && byGeom {
				p, _ := FromConstraints(cons, dim, nil)
				if p.Volume(20000, 1) > 1e-4 {
					t.Fatalf("trial %d dim %d: vertex enum feasible with volume, LP says empty", trial, dim)
				}
			}
		}
	}
}

func TestVerticesSatisfyAllConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		dim := 2 + rng.Intn(2)
		cons := geom.SpaceBoundsTransformed(dim)
		for i := 0; i < 3; i++ {
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
			cons = append(cons, geom.Constraint{A: a, B: rng.Float64() * 0.5})
		}
		p, err := FromConstraints(cons, dim, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range p.Vertices {
			for _, c := range cons {
				if c.A.Dot(v)-c.B > 1e-6 {
					t.Fatalf("vertex %v violates %+v", v, c)
				}
			}
		}
	}
}

func TestPolygonAreaMatchesMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		cons := geom.SpaceBoundsTransformed(2)
		for i := 0; i < 2; i++ {
			a := geom.Vector{rng.NormFloat64(), rng.NormFloat64()}
			n := a.Norm()
			if n < 1e-9 {
				continue
			}
			a[0], a[1] = a[0]/n, a[1]/n
			cons = append(cons, geom.Constraint{A: a, B: rng.Float64() * 0.6})
		}
		p, err := FromConstraints(cons, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.Empty() {
			continue
		}
		exact := p.polygonArea()
		mc := p.monteCarloVolume(80000, 7)
		if math.Abs(exact-mc) > 0.02+(0.05*exact) {
			t.Fatalf("trial %d: shoelace %v vs Monte-Carlo %v", trial, exact, mc)
		}
	}
}

func TestVertexDeduplication(t *testing.T) {
	// A triangle specified with a redundant duplicate facet direction still
	// yields exactly 3 distinct vertices.
	cons := append(geom.SpaceBoundsTransformed(2),
		geom.Constraint{A: geom.Vector{-1, 0}, B: 0}) // duplicate w1 >= 0
	p, err := FromConstraints(cons, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, v := range p.Vertices {
		key := ""
		for _, x := range v {
			key += string(rune(int(math.Round(x * 1e6))))
		}
		if seen[key] {
			t.Fatalf("duplicate vertex %v", v)
		}
		seen[key] = true
	}
	if len(p.Vertices) != 3 {
		t.Fatalf("got %d vertices, want 3", len(p.Vertices))
	}
}

func TestVolumeDeterministicForSeed(t *testing.T) {
	p, err := FromConstraints(unitBox(3, 1), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Volume(5000, 42)
	b := p.Volume(5000, 42)
	if a != b {
		t.Fatalf("same seed gave %v and %v", a, b)
	}
}

func TestSortStability(t *testing.T) {
	// polygonArea must not depend on input vertex order.
	p := &Polytope{Dim: 2, Vertices: []geom.Vector{{0, 0}, {1, 0}, {1, 1}, {0, 1}}}
	base := p.polygonArea()
	perm := []geom.Vector{{1, 1}, {0, 0}, {0, 1}, {1, 0}}
	q := &Polytope{Dim: 2, Vertices: perm}
	if math.Abs(base-q.polygonArea()) > 1e-12 {
		t.Fatal("area depends on vertex order")
	}
	_ = sort.SliceIsSorted // keep sort imported for documentation parity
}

func TestVolume3DUnitCube(t *testing.T) {
	p, err := FromConstraints(unitBox(3, 1), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := p.volume3D()
	if !ok {
		t.Fatal("volume3D failed on the unit cube")
	}
	if math.Abs(v-1) > 1e-9 {
		t.Fatalf("unit cube volume %v, want 1", v)
	}
}

func TestVolume3DSimplex(t *testing.T) {
	// The transformed preference simplex in 3-d has volume 1/6.
	p, err := FromConstraints(geom.SpaceBoundsTransformed(3), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Volume(0, 1); math.Abs(got-1.0/6) > 1e-9 {
		t.Fatalf("simplex volume %v, want 1/6", got)
	}
}

func TestVolume3DMatchesMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		cons := geom.SpaceBoundsTransformed(3)
		for i := 0; i < 3; i++ {
			a := geom.Vector{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			n := a.Norm()
			if n < 1e-9 {
				continue
			}
			for j := range a {
				a[j] /= n
			}
			cons = append(cons, geom.Constraint{A: a, B: rng.Float64() * 0.4})
		}
		p, err := FromConstraints(cons, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.Empty() {
			continue
		}
		exact, ok := p.volume3D()
		if !ok {
			continue
		}
		mc := p.monteCarloVolume(120000, 5)
		if math.Abs(exact-mc) > 0.01+0.08*exact {
			t.Fatalf("trial %d: exact %v vs Monte-Carlo %v", trial, exact, mc)
		}
	}
}

// Clipping a box by a plane through it yields the same vertex set as
// enumerating the clipped box from scratch, in every dimension (dim 5
// exercises the heap-backed scratch above maxStackDim).
func TestClipVerticesMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for dim := 1; dim <= 5; dim++ {
		box := unitBox(dim, 1)
		verts := EnumerateVertices(box, dim)
		for trial := 0; trial < 20; trial++ {
			a := make(geom.Vector, dim)
			for j := range a {
				a[j] = rng.NormFloat64()
			}
			var lo, hi float64
			for _, v := range verts {
				lo, hi = math.Min(lo, a.Dot(v)), math.Max(hi, a.Dot(v))
			}
			row := geom.Constraint{A: a, B: lo + (0.1+0.8*rng.Float64())*(hi-lo)}
			got := ClipVertices(verts, box, row, dim)
			want := EnumerateVertices(append(box[:len(box):len(box)], row), dim)
			if len(got) != len(want) {
				t.Fatalf("dim %d: clip has %d vertices, enumeration %d", dim, len(got), len(want))
			}
			for _, v := range got {
				found := false
				for _, u := range want {
					found = found || u.Equal(v)
				}
				if !found {
					t.Fatalf("dim %d: clipped vertex %v not enumerated", dim, v)
				}
			}
		}
	}
}

// solveSquare reports singular systems instead of dividing by zero.
func TestSolveSquareSingular(t *testing.T) {
	out := make(geom.Vector, 2)
	sys := []geom.Constraint{{A: geom.Vector{1, 1}, B: 1}, {A: geom.Vector{2, 2}, B: 3}}
	if solveSquare(sys, out) {
		t.Fatalf("singular system solved to %v", out)
	}
	sys[1] = geom.Constraint{A: geom.Vector{1, -1}, B: 0}
	if !solveSquare(sys, out) || math.Abs(out[0]-0.5) > 1e-12 || math.Abs(out[1]-0.5) > 1e-12 {
		t.Fatalf("w1+w2=1, w1=w2 solved to %v", out)
	}
}
