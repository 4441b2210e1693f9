package lp

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/geom"
)

func solveMax(t *testing.T, c []float64, a [][]float64, b []float64) Solution {
	t.Helper()
	sol, err := Maximize(c, a, b, nil)
	if err != nil {
		t.Fatalf("Maximize: %v", err)
	}
	return sol
}

func TestMaximizeSimple2D(t *testing.T) {
	// max x+y s.t. x<=2, y<=3, x+y<=4 -> 4 at e.g. (1,3) or (2,2).
	sol := solveMax(t, []float64{1, 1},
		[][]float64{{1, 0}, {0, 1}, {1, 1}},
		[]float64{2, 3, 4})
	if sol.Status != Optimal || math.Abs(sol.Objective-4) > 1e-9 {
		t.Fatalf("got %+v, want objective 4", sol)
	}
}

func TestMaximizeClassic(t *testing.T) {
	// max 3x+5y s.t. x<=4, 2y<=12, 3x+2y<=18 -> 36 at (2,6).
	sol := solveMax(t, []float64{3, 5},
		[][]float64{{1, 0}, {0, 2}, {3, 2}},
		[]float64{4, 12, 18})
	if math.Abs(sol.Objective-36) > 1e-9 {
		t.Fatalf("objective %v, want 36", sol.Objective)
	}
	if math.Abs(sol.X[0]-2) > 1e-9 || math.Abs(sol.X[1]-6) > 1e-9 {
		t.Fatalf("X = %v, want (2, 6)", sol.X)
	}
}

func TestInfeasible(t *testing.T) {
	// x <= 1 and -x <= -2 (i.e. x >= 2): infeasible.
	sol := solveMax(t, []float64{1},
		[][]float64{{1}, {-1}},
		[]float64{1, -2})
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want Infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// max x with only x >= 1 (as -x <= -1): unbounded above.
	sol := solveMax(t, []float64{1},
		[][]float64{{-1}},
		[]float64{-1})
	if sol.Status != Unbounded {
		t.Fatalf("status %v, want Unbounded", sol.Status)
	}
}

func TestNegativeRHSFeasible(t *testing.T) {
	// x >= 1, x <= 3, max -x -> optimum -1 at x=1 (needs phase 1).
	sol, err := Maximize([]float64{-1},
		[][]float64{{-1}, {1}},
		[]float64{-1, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective+1) > 1e-9 {
		t.Fatalf("got %+v, want objective -1", sol)
	}
}

func TestMinimize(t *testing.T) {
	// min x+y s.t. x+y >= 2 (as -x-y <= -2), x,y >= 0 -> 2.
	sol, err := Minimize([]float64{1, 1},
		[][]float64{{-1, -1}},
		[]float64{-2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-2) > 1e-9 {
		t.Fatalf("got %+v, want objective 2", sol)
	}
}

func TestDegenerateRedundantRows(t *testing.T) {
	// Duplicate and redundant constraints should not break the solver.
	sol := solveMax(t, []float64{1, 1},
		[][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 0}},
		[]float64{1, 1, 1, 5})
	if sol.Status != Optimal || math.Abs(sol.Objective-1) > 1e-9 {
		t.Fatalf("got %+v, want objective 1", sol)
	}
}

func TestEqualityViaTwoInequalities(t *testing.T) {
	// x + y = 1 expressed as <= and >=; max 2x + y -> 2 at (1, 0).
	sol := solveMax(t, []float64{2, 1},
		[][]float64{{1, 1}, {-1, -1}},
		[]float64{1, -1})
	if sol.Status != Optimal || math.Abs(sol.Objective-2) > 1e-9 {
		t.Fatalf("got %+v, want objective 2", sol)
	}
}

func TestRowLengthValidation(t *testing.T) {
	if _, err := Maximize([]float64{1}, [][]float64{{1, 2}}, []float64{1}, nil); err == nil {
		t.Fatal("expected error for ragged row")
	}
	if _, err := Maximize([]float64{1}, [][]float64{{1}}, []float64{1, 2}, nil); err == nil {
		t.Fatal("expected error for RHS length mismatch")
	}
}

func TestStatsCounting(t *testing.T) {
	var st Stats
	solveMaxWithStats(t, &st)
	if st.Solves != 1 {
		t.Fatalf("Solves = %d, want 1", st.Solves)
	}
	if st.Pivots == 0 {
		t.Fatal("expected at least one pivot")
	}
}

// TestPooledWorkspacesConcurrent solves the same LPs from several
// goroutines at once, every solve borrowing a pooled workspace: each
// answer, kept while later solves reuse the workspaces, must equal the
// serial one, and each goroutine's Stats must count exactly its own
// solves.
func TestPooledWorkspacesConcurrent(t *testing.T) {
	type answer struct {
		in     Interior
		lo, hi float64
		x      geom.Vector
	}
	rng := rand.New(rand.NewSource(3))
	cells := make([][]geom.Constraint, 40)
	objs := make([]geom.Vector, len(cells))
	for i := range cells {
		cells[i] = randomCell(rng, 3, 5+rng.Intn(20))
		objs[i] = geom.Vector{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	solveAll := func(st *Stats) ([]answer, error) {
		out := make([]answer, len(cells))
		for i, cons := range cells {
			var err error
			if out[i].in, err = FeasibleInterior(cons, 3, st); err != nil {
				return nil, err
			}
			if out[i].lo, _, _, err = Bound(cons, objs[i], false, st); err != nil {
				return nil, err
			}
			if out[i].hi, out[i].x, _, err = Bound(cons, objs[i], true, st); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	var serialStats Stats
	want, err := solveAll(&serialStats)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	got := make([][]answer, workers)
	stats := make([]Stats, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w], errs[w] = solveAll(&stats[w])
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if stats[w] != serialStats {
			t.Fatalf("worker %d stats %+v, want %+v", w, stats[w], serialStats)
		}
		for i := range want {
			g, s := got[w][i], want[i]
			if g.in.Feasible != s.in.Feasible || !slices.Equal(g.in.Point, s.in.Point) || g.in.Slack != s.in.Slack ||
				g.lo != s.lo || g.hi != s.hi || !slices.Equal(g.x, s.x) {
				t.Fatalf("worker %d cell %d: %+v, want %+v", w, i, g, s)
			}
		}
	}
}

func solveMaxWithStats(t *testing.T, st *Stats) {
	t.Helper()
	if _, err := Maximize([]float64{1, 1},
		[][]float64{{1, 0}, {0, 1}}, []float64{1, 1}, st); err != nil {
		t.Fatal(err)
	}
}

// bruteForceMax evaluates the LP max c·x over Ax<=b, x>=0 by enumerating
// basic feasible points: intersections of every n-subset of the constraint
// set (including the axes x_i = 0). Used as an oracle for random LPs.
func bruteForceMax(c []float64, a [][]float64, b []float64) (float64, bool) {
	n := len(c)
	// Build the full row set: Ax <= b plus -x_i <= 0.
	rows := make([][]float64, 0, len(a)+n)
	rhs := make([]float64, 0, len(a)+n)
	rows = append(rows, a...)
	rhs = append(rhs, b...)
	for i := 0; i < n; i++ {
		r := make([]float64, n)
		r[i] = -1
		rows = append(rows, r)
		rhs = append(rhs, 0)
	}
	best := math.Inf(-1)
	found := false
	idx := make([]int, n)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n {
			x, ok := solveSquare(rows, rhs, idx)
			if !ok {
				return
			}
			for i := range rows {
				s := 0.0
				for j := 0; j < n; j++ {
					s += rows[i][j] * x[j]
				}
				if s > rhs[i]+1e-7 {
					return
				}
			}
			v := 0.0
			for j := 0; j < n; j++ {
				v += c[j] * x[j]
			}
			if v > best {
				best = v
			}
			found = true
			return
		}
		for i := start; i < len(rows); i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return best, found
}

// solveSquare solves the n x n system rows[idx] · x = rhs[idx] by Gaussian
// elimination; ok=false when singular.
func solveSquare(rows [][]float64, rhs []float64, idx []int) ([]float64, bool) {
	n := len(idx)
	m := make([][]float64, n)
	for i, ri := range idx {
		m[i] = make([]float64, n+1)
		copy(m[i], rows[ri][:n])
		m[i][n] = rhs[ri]
	}
	for col := 0; col < n; col++ {
		p := -1
		maxAbs := 1e-9
		for r := col; r < n; r++ {
			if v := math.Abs(m[r][col]); v > maxAbs {
				p, maxAbs = r, v
			}
		}
		if p < 0 {
			return nil, false
		}
		m[col], m[p] = m[p], m[col]
		pv := m[col][col]
		for j := col; j <= n; j++ {
			m[col][j] /= pv
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col]
			if f == 0 {
				continue
			}
			for j := col; j <= n; j++ {
				m[r][j] -= f * m[col][j]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = m[i][n]
	}
	return x, true
}

// Property test: on random bounded LPs, simplex matches the brute-force
// vertex-enumeration oracle.
func TestRandomLPsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(3)
		m := 1 + rng.Intn(5)
		c := make([]float64, n)
		for j := range c {
			c[j] = rng.NormFloat64()
		}
		a := make([][]float64, m)
		b := make([]float64, m)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.NormFloat64()
			}
			b[i] = rng.NormFloat64()
		}
		// Box constraints keep the problem bounded so the oracle applies.
		for j := 0; j < n; j++ {
			row := make([]float64, n)
			row[j] = 1
			a = append(a, row)
			b = append(b, 10)
		}
		sol, err := Maximize(c, a, b, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, feasible := bruteForceMax(c, a, b)
		if !feasible {
			if sol.Status != Infeasible {
				t.Fatalf("trial %d: oracle infeasible, simplex says %v", trial, sol.Status)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: oracle feasible (max %v), simplex says %v", trial, want, sol.Status)
		}
		if math.Abs(sol.Objective-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("trial %d: simplex %v, oracle %v", trial, sol.Objective, want)
		}
	}
}

func TestFeasibleInteriorBasic(t *testing.T) {
	// The 2-d transformed simplex is open and non-empty.
	cons := geom.SpaceBoundsTransformed(2)
	in, err := FeasibleInterior(cons, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Feasible {
		t.Fatal("open simplex reported infeasible")
	}
	if !geom.InSimplex(in.Point) {
		t.Fatalf("witness %v not strictly interior", in.Point)
	}
	if in.Slack <= 0 {
		t.Fatalf("slack %v, want > 0", in.Slack)
	}
}

func TestFeasibleInteriorZeroExtent(t *testing.T) {
	// w1 < 0.5 and w1 > 0.5: empty. w1 < 0.5 and w1 >= 0.5 via touching
	// closed halves would have zero extent; both must be infeasible.
	cons := append(geom.SpaceBoundsTransformed(2),
		geom.Constraint{A: geom.Vector{1, 0}, B: 0.5, Strict: true},
		geom.Constraint{A: geom.Vector{-1, 0}, B: -0.5, Strict: true},
	)
	in, err := FeasibleInterior(cons, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if in.Feasible {
		t.Fatal("zero-extent cell reported feasible")
	}
}

func TestFeasibleInteriorWitnessSatisfiesAll(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		dim := 1 + rng.Intn(4)
		cons := geom.SpaceBoundsTransformed(dim)
		// Add a few random halfspace constraints through the simplex.
		for i := 0; i < rng.Intn(6); i++ {
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
			cons = append(cons, geom.Constraint{A: a, B: rng.Float64() - 0.2, Strict: true})
		}
		in, err := FeasibleInterior(cons, dim, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !in.Feasible {
			continue
		}
		for _, c := range cons {
			if !c.Holds(in.Point, 1e-9) {
				t.Fatalf("witness %v violates %+v", in.Point, c)
			}
		}
	}
}

func TestBoundMinMax(t *testing.T) {
	cons := geom.SpaceBoundsTransformed(2)
	// max w1 over the closed simplex = 1; min = 0.
	maxV, _, st, err := Bound(cons, geom.Vector{1, 0}, true, nil)
	if err != nil || st != Optimal {
		t.Fatalf("max: err=%v status=%v", err, st)
	}
	if math.Abs(maxV-1) > 1e-9 {
		t.Fatalf("max w1 = %v, want 1", maxV)
	}
	minV, _, st, err := Bound(cons, geom.Vector{1, 0}, false, nil)
	if err != nil || st != Optimal {
		t.Fatalf("min: err=%v status=%v", err, st)
	}
	if math.Abs(minV) > 1e-9 {
		t.Fatalf("min w1 = %v, want 0", minV)
	}
}

func TestBoundObjectiveWithNegativeCoefficients(t *testing.T) {
	cons := geom.SpaceBoundsTransformed(2)
	// min (w1 - w2) over closed simplex = -1 (at w2=1).
	v, x, st, err := Bound(cons, geom.Vector{1, -1}, false, nil)
	if err != nil || st != Optimal {
		t.Fatalf("err=%v status=%v", err, st)
	}
	if math.Abs(v+1) > 1e-9 {
		t.Fatalf("min (w1-w2) = %v at %v, want -1", v, x)
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" ||
		Unbounded.String() != "unbounded" {
		t.Fatal("Status.String is broken")
	}
	if Status(42).String() == "" {
		t.Fatal("unknown status should still format")
	}
}
