// Package polytope materializes the exact geometry of arrangement cells:
// it intersects halfspaces into vertex sets, clips a polytope's vertex set
// by one more halfspace (the cell tree's splits), measures areas/volumes,
// and serves as the expensive "halfspace intersection" baseline the paper
// compares its LP-based feasibility test against (Fig. 16). It replaces the
// qhull library used in the paper's finalization step (§4.2).
package polytope

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/geom"
	"repro/internal/lp"
)

// vertexTol is the tolerance used when checking a candidate vertex against
// the constraint set.
const vertexTol = 1e-7

// Polytope is the exact geometry of a (bounded) convex region in dim
// dimensions, produced from a set of closed halfspace constraints.
type Polytope struct {
	Dim int
	// Facets are the non-redundant constraints (each supports a facet).
	Facets []geom.Constraint
	// Vertices are the extreme points of the region.
	Vertices []geom.Vector
}

// RemoveRedundant returns the subset of cons that actually bound the region
// (each kept row attains equality somewhere on the closure). Rows whose
// removal leaves the feasible set unchanged are dropped. This is the
// LP-based constraint pruning used before vertex enumeration.
//
// Like everything in this package, the region is understood as
// {w : rows} ∩ {w >= 0} (preference-space weights are non-negative by
// definition, and the LP solver shares that convention). Explicit
// non-negativity rows in cons are therefore reported as redundant; the
// axis facets are re-added by FromConstraints.
func RemoveRedundant(cons []geom.Constraint, dim int, stats *lp.Stats) ([]geom.Constraint, error) {
	// Rows are tested one at a time against the currently active set (with
	// the row itself removed); a redundant row stays removed before the next
	// test, so duplicate rows keep exactly one representative.
	active := make([]geom.Constraint, len(cons))
	copy(active, cons)
	for i := 0; i < len(active); {
		c := active[i]
		others := make([]geom.Constraint, 0, len(active)-1)
		others = append(others, active[:i]...)
		others = append(others, active[i+1:]...)
		// Maximize c.A·w over the region defined by the other rows; if the
		// optimum stays <= c.B even then, the row never binds.
		v, _, st, err := lp.Bound(others, c.A, true, stats)
		if err != nil {
			return nil, err
		}
		if st == lp.Infeasible {
			// Empty region: any single row represents it.
			return []geom.Constraint{c}, nil
		}
		if st == lp.Unbounded || v > c.B+vertexTol {
			i++ // binding: keep it
			continue
		}
		active = others // redundant: drop it
	}
	return active, nil
}

// FromConstraints computes the exact geometry of the closed region
// {w : a·w <= b for all rows} ∩ {w >= 0} by eliminating redundant rows and
// then enumerating vertices combinatorially: every dim-subset of facet
// hyperplanes (including the axis hyperplanes w_i = 0) is solved and the
// intersection point kept if it satisfies all constraints. The region must
// be bounded (kSPR cells always are: transformed cells live in the simplex,
// original-space cells in the unit cube).
func FromConstraints(cons []geom.Constraint, dim int, stats *lp.Stats) (*Polytope, error) {
	facets, err := RemoveRedundant(cons, dim, stats)
	if err != nil {
		return nil, err
	}
	// Re-add the implicit non-negativity facets so geometry is
	// self-contained.
	for i := 0; i < dim; i++ {
		a := make(geom.Vector, dim)
		a[i] = -1
		facets = append(facets, geom.Constraint{A: a, B: 0})
	}
	p := &Polytope{Dim: dim, Facets: facets}
	p.Vertices = enumerateVertices(facets, dim)
	return p, nil
}

// EnumerateVertices computes the vertices of {rows} ∩ {w >= 0} directly by
// combinatorial enumeration over ALL rows (no LP-based redundancy
// elimination first). It owns the implicit w >= 0 rows: callers pass cons
// without them. It returns nil when the subset count would exceed
// maxCombos — callers fall back to LP bounds then. This trades the m LP
// solves of RemoveRedundant for C(m+dim, dim) tiny linear solves, which wins
// whenever cells are described by few constraints (the common case thanks
// to Lemma 2). The cell tree calls it only for its root cell and the
// approximate engine's boxes; a split derives child geometry from its
// parent's with ClipVertices instead.
func EnumerateVertices(cons []geom.Constraint, dim, maxCombos int) []geom.Vector {
	rows := make([]geom.Constraint, 0, len(cons)+dim)
	rows = append(rows, cons...)
	for i := 0; i < dim; i++ {
		a := make(geom.Vector, dim)
		a[i] = -1
		rows = append(rows, geom.Constraint{A: a, B: 0})
	}
	if maxCombos > 0 && binomial(len(rows), dim) > maxCombos {
		return nil
	}
	return enumerateVertices(rows, dim)
}

// binomial returns C(n, k) with saturation to avoid overflow.
func binomial(n, k int) int {
	if k > n {
		return 0
	}
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
		if c > 1<<30 {
			return 1 << 30
		}
	}
	return c
}

// enumerateVertices finds all intersection points of dim-subsets of the
// facet hyperplanes that lie inside every constraint.
func enumerateVertices(facets []geom.Constraint, dim int) []geom.Vector {
	var verts []geom.Vector
	n := len(facets)
	if n < dim {
		return nil
	}
	idx := make([]int, dim)
	sys := make([]geom.Constraint, dim)
	v := make(geom.Vector, dim)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == dim {
			for i, fi := range idx {
				sys[i] = facets[fi]
			}
			if !solveSquare(sys, v) {
				return
			}
			for _, c := range facets {
				if c.A.Dot(v)-c.B > vertexTol {
					return
				}
			}
			for _, u := range verts {
				if u.Equal(v) {
					return
				}
			}
			verts = append(verts, v.Clone())
			return
		}
		for i := start; i < n; i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return verts
}

// ClipVertices returns the vertices of P ∩ {w : row.A·w <= row.B}, where P
// is the bounded polytope with vertex set verts and facet rows facets.
// facets must hold every row tight at a vertex of P, axis rows included,
// so that they alone define P. A vertex of the clipped polytope is either a
// vertex of P on the kept side of row, or lies on row's plane and on dim-1
// facets of P; so the clip solves C(len(facets), dim-1) small systems
// instead of re-enumerating every dim-subset of the rows. Kept vertices of
// P come first, in their order, then the new ones in subset order; a new
// point is accepted when it satisfies row, every facet and w >= 0 within
// vertexTol and is not Equal to a vertex already kept. The result owns its
// storage: every vertex is a copy backed by one fresh array.
func ClipVertices(verts []geom.Vector, facets []geom.Constraint, row geom.Constraint, dim int) []geom.Vector {
	var stack [64 * maxStackDim]float64
	pts := stack[:0]
	for _, v := range verts {
		if row.A.Dot(v)-row.B <= vertexTol {
			pts = append(pts, v...)
		}
	}
	k := dim - 1
	if n := len(facets); k <= n {
		var idxBuf [maxStackDim]int
		var sysBuf [maxStackDim]geom.Constraint
		var vBuf [maxStackDim]float64
		var idx []int
		var sys []geom.Constraint
		var v geom.Vector
		if dim <= maxStackDim {
			idx, sys, v = idxBuf[:k], sysBuf[:dim], vBuf[:dim]
		} else {
			idx, sys, v = make([]int, k), make([]geom.Constraint, dim), make(geom.Vector, dim)
		}
		for i := range idx {
			idx[i] = i
		}
		sys[k] = row
		for {
			for i, fi := range idx {
				sys[i] = facets[fi]
			}
			if solveSquare(sys, v) && clipAccepts(v, facets, row, pts, dim) {
				pts = append(pts, v...)
			}
			// Advance idx to the next k-subset in lexicographic order.
			i := k - 1
			for i >= 0 && idx[i] == n-k+i {
				i--
			}
			if i < 0 {
				break
			}
			idx[i]++
			for j := i + 1; j < k; j++ {
				idx[j] = idx[j-1] + 1
			}
		}
	}
	backing := make([]float64, len(pts))
	copy(backing, pts)
	out := make([]geom.Vector, len(pts)/dim)
	for i := range out {
		out[i] = backing[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return out
}

// clipAccepts reports whether the candidate v lies inside row, every facet
// and w >= 0 within vertexTol, and differs from every point already in
// pts (dim coordinates per point).
func clipAccepts(v geom.Vector, facets []geom.Constraint, row geom.Constraint, pts []float64, dim int) bool {
	if row.A.Dot(v)-row.B > vertexTol {
		return false
	}
	for _, c := range facets {
		if c.A.Dot(v)-c.B > vertexTol {
			return false
		}
	}
	for _, x := range v {
		if -x > vertexTol {
			return false
		}
	}
	for i := 0; i < len(pts); i += dim {
		if geom.Vector(pts[i : i+dim]).Equal(v) {
			return false
		}
	}
	return true
}

// maxStackDim is the largest dimension whose linear solves and clip
// scratch live in stack arrays; larger ones allocate.
const maxStackDim = 4

// solveSquare solves the square system sys[i].A·w = sys[i].B (len(sys) ==
// len(out)) into out by Gauss-Jordan elimination with partial pivoting. It
// reports false when the rows are (nearly) linearly dependent. For
// dimensions up to maxStackDim it does not allocate.
func solveSquare(sys []geom.Constraint, out geom.Vector) bool {
	dim := len(out)
	w := dim + 1
	var buf [maxStackDim * (maxStackDim + 1)]float64
	var m []float64
	if dim <= maxStackDim {
		m = buf[:dim*w]
	} else {
		m = make([]float64, dim*w)
	}
	for i, c := range sys {
		copy(m[i*w:i*w+dim], c.A)
		m[i*w+dim] = c.B
	}
	for col := 0; col < dim; col++ {
		p, best := -1, 1e-9
		for r := col; r < dim; r++ {
			if v := math.Abs(m[r*w+col]); v > best {
				p, best = r, v
			}
		}
		if p < 0 {
			return false
		}
		pr := m[col*w : col*w+w]
		if p != col {
			q := m[p*w : p*w+w]
			for j := range pr {
				pr[j], q[j] = q[j], pr[j]
			}
		}
		pv := pr[col]
		for j := col; j <= dim; j++ {
			pr[j] /= pv
		}
		for r := 0; r < dim; r++ {
			if r == col {
				continue
			}
			rr := m[r*w : r*w+w]
			f := rr[col]
			if f == 0 {
				continue
			}
			for j := col; j <= dim; j++ {
				rr[j] -= f * pr[j]
			}
		}
	}
	for i := range out {
		out[i] = m[i*w+dim]
	}
	return true
}

// Empty reports whether the polytope has no vertices (empty or unbounded
// degenerate input).
func (p *Polytope) Empty() bool { return len(p.Vertices) == 0 }

// Centroid returns the mean of the vertices (inside the region by
// convexity); nil for an empty polytope.
func (p *Polytope) Centroid() geom.Vector {
	if p.Empty() {
		return nil
	}
	c := make(geom.Vector, p.Dim)
	for _, v := range p.Vertices {
		for i, x := range v {
			c[i] += x
		}
	}
	for i := range c {
		c[i] /= float64(len(p.Vertices))
	}
	return c
}

// Contains reports whether w satisfies every facet constraint within tol.
func (p *Polytope) Contains(w geom.Vector, tol float64) bool {
	for _, c := range p.Facets {
		if c.A.Dot(w)-c.B > tol {
			return false
		}
	}
	return true
}

// Volume returns the exact measure of the polytope for Dim <= 3 (interval
// length, polygon area, tetrahedralized volume) and falls back to
// Monte-Carlo estimation with the given sample count and seed for higher
// dimensions. The paper uses region volume to quantify market impact (§1).
func (p *Polytope) Volume(samples int, seed int64) float64 {
	switch {
	case p.Empty():
		return 0
	case p.Dim == 1:
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range p.Vertices {
			lo = math.Min(lo, v[0])
			hi = math.Max(hi, v[0])
		}
		return hi - lo
	case p.Dim == 2:
		return p.polygonArea()
	case p.Dim == 3:
		if v, ok := p.volume3D(); ok {
			return v
		}
		return p.monteCarloVolume(samples, seed)
	default:
		return p.monteCarloVolume(samples, seed)
	}
}

// volume3D computes the exact volume by summing pyramids from the centroid
// over the facet polygons: V = Σ_f area(f) · dist(centroid, plane(f)) / 3.
// ok=false when a facet's vertex ring cannot be reconstructed (degenerate
// geometry); callers then fall back to Monte-Carlo.
func (p *Polytope) volume3D() (float64, bool) {
	c := p.Centroid()
	var total float64
	for _, f := range p.Facets {
		onFacet := make([]geom.Vector, 0, 8)
		for _, v := range p.Vertices {
			if d := f.A.Dot(v) - f.B; math.Abs(d) < vertexTol*10 {
				onFacet = append(onFacet, v)
			}
		}
		if len(onFacet) == 0 {
			continue // redundant row; contributes nothing
		}
		if len(onFacet) < 3 {
			continue // edge or vertex contact only: zero area
		}
		area, ok := planarPolygonArea(onFacet, f.A)
		if !ok {
			return 0, false
		}
		// Distance from centroid to the facet plane (rows are
		// unit-normalized at construction; normalize defensively anyway).
		n := f.A.Norm()
		if n < 1e-12 {
			return 0, false
		}
		dist := math.Abs(f.A.Dot(c)-f.B) / n
		total += area * dist / 3
	}
	return total, true
}

// planarPolygonArea computes the area of a convex polygon embedded in the
// plane with normal n, by building an orthonormal basis of the plane,
// projecting, angularly sorting, and applying the shoelace formula.
func planarPolygonArea(verts []geom.Vector, n geom.Vector) (float64, bool) {
	norm := n.Norm()
	if norm < 1e-12 {
		return 0, false
	}
	u := perpendicular(n)
	if u == nil {
		return 0, false
	}
	// v = n × u (3-d cross product), normalized.
	v := geom.Vector{
		n[1]*u[2] - n[2]*u[1],
		n[2]*u[0] - n[0]*u[2],
		n[0]*u[1] - n[1]*u[0],
	}
	vn := v.Norm()
	if vn < 1e-12 {
		return 0, false
	}
	for i := range v {
		v[i] /= vn
	}
	type pt struct{ x, y float64 }
	pts := make([]pt, len(verts))
	var cx, cy float64
	for i, w := range verts {
		pts[i] = pt{u.Dot(w), v.Dot(w)}
		cx += pts[i].x
		cy += pts[i].y
	}
	cx /= float64(len(pts))
	cy /= float64(len(pts))
	sort.Slice(pts, func(i, j int) bool {
		return math.Atan2(pts[i].y-cy, pts[i].x-cx) < math.Atan2(pts[j].y-cy, pts[j].x-cx)
	})
	var area float64
	for i := range pts {
		j := (i + 1) % len(pts)
		area += pts[i].x*pts[j].y - pts[j].x*pts[i].y
	}
	return math.Abs(area) / 2, true
}

// perpendicular returns a unit vector orthogonal to n (3-d).
func perpendicular(n geom.Vector) geom.Vector {
	// Pick the axis least aligned with n.
	best, bestAbs := 0, math.Abs(n[0])
	for i := 1; i < 3; i++ {
		if a := math.Abs(n[i]); a < bestAbs {
			best, bestAbs = i, a
		}
	}
	axis := make(geom.Vector, 3)
	axis[best] = 1
	// Gram-Schmidt against n.
	nn := n.Norm()
	d := n.Dot(axis) / (nn * nn)
	u := make(geom.Vector, 3)
	for i := range u {
		u[i] = axis[i] - d*n[i]
	}
	un := u.Norm()
	if un < 1e-12 {
		return nil
	}
	for i := range u {
		u[i] /= un
	}
	return u
}

// polygonArea sorts the vertices angularly around the centroid and applies
// the shoelace formula.
func (p *Polytope) polygonArea() float64 {
	if len(p.Vertices) < 3 {
		return 0
	}
	c := p.Centroid()
	vs := make([]geom.Vector, len(p.Vertices))
	copy(vs, p.Vertices)
	sort.Slice(vs, func(i, j int) bool {
		ai := math.Atan2(vs[i][1]-c[1], vs[i][0]-c[0])
		aj := math.Atan2(vs[j][1]-c[1], vs[j][0]-c[0])
		return ai < aj
	})
	area := 0.0
	for i := range vs {
		j := (i + 1) % len(vs)
		area += vs[i][0]*vs[j][1] - vs[j][0]*vs[i][1]
	}
	return math.Abs(area) / 2
}

// monteCarloVolume samples the vertex bounding box and counts hits.
func (p *Polytope) monteCarloVolume(samples int, seed int64) float64 {
	if samples <= 0 {
		samples = 10000
	}
	lo := make(geom.Vector, p.Dim)
	hi := make(geom.Vector, p.Dim)
	for i := range lo {
		lo[i], hi[i] = math.Inf(1), math.Inf(-1)
	}
	for _, v := range p.Vertices {
		for i, x := range v {
			lo[i] = math.Min(lo[i], x)
			hi[i] = math.Max(hi[i], x)
		}
	}
	boxVol := 1.0
	for i := range lo {
		boxVol *= hi[i] - lo[i]
	}
	if boxVol <= 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	w := make(geom.Vector, p.Dim)
	hits := 0
	for s := 0; s < samples; s++ {
		for i := range w {
			w[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
		}
		if p.Contains(w, vertexTol) {
			hits++
		}
	}
	return boxVol * float64(hits) / float64(samples)
}

// FeasibleByVertexEnum decides feasibility of the OPEN cell by computing
// its exact geometry, i.e. the way a qhull-based implementation would
// (Fig. 16's slow alternative). The open cell is non-empty iff the closure
// is full-dimensional, which we check by requiring at least Dim+1 distinct
// vertices that do not all lie on one of the facet hyperplanes.
func FeasibleByVertexEnum(cons []geom.Constraint, dim int, stats *lp.Stats) (bool, error) {
	p, err := FromConstraints(cons, dim, stats)
	if err != nil {
		return false, err
	}
	if len(p.Vertices) < dim+1 {
		return false, nil
	}
	// Full-dimensionality check: some facet must NOT contain every vertex.
	for _, c := range p.Facets {
		all := true
		for _, v := range p.Vertices {
			if math.Abs(c.A.Dot(v)-c.B) > vertexTol {
				all = false
				break
			}
		}
		if all {
			return false, nil
		}
	}
	return true, nil
}
