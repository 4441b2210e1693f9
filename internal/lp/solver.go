package lp

import (
	"fmt"

	"repro/internal/geom"
)

// Solver is a reusable simplex workspace: the tableau rows, cost row, basis
// and constraint-matrix scratch survive across solves, so the per-LP
// allocation cost is paid once per worker instead of once per call. The
// parallel expansion engine in internal/core hands every worker goroutine
// its own Solver (its per-worker "arena"), drawn from a pool shared by all
// queries and rebound to each query's accounting with SetStats; the
// package-level Maximize, Minimize, FeasibleInterior and Bound helpers
// remain as one-shot conveniences that build a throwaway workspace.
//
// A Solver is NOT safe for concurrent use: create one per goroutine.
type Solver struct {
	stats *Stats
	tab   tableau
	// backing arenas, grown on demand and reused across solves
	rowData []float64
	rows    [][]float64
	cost    []float64
	basis   []int
	// constraint-matrix scratch for FeasibleInterior
	aData []float64
	aRows [][]float64
	bRow  []float64
	obj   []float64
	// objective-negation scratch for Minimize
	negObj []float64
}

// NewSolver returns a Solver counting its activity into stats; a nil stats
// disables accounting. Rebind later with SetStats.
func NewSolver(stats *Stats) *Solver { return &Solver{stats: stats} }

// SetStats redirects the solver's activity counters, e.g. when a reused
// solver is handed to a new query or worker.
func (s *Solver) SetStats(stats *Stats) { s.stats = stats }

// prep (re)initializes the embedded tableau for an m-row, cols-column
// problem, reusing the solver's backing arrays. All rows and the cost row
// come back zeroed.
func (s *Solver) prep(m, cols, nArt int) *tableau {
	t := &s.tab
	t.m, t.cols, t.nArt, t.unbounded = m, cols, nArt, false
	need := m * (cols + 1)
	if cap(s.rowData) < need {
		s.rowData = make([]float64, need)
	}
	data := s.rowData[:need]
	for i := range data {
		data[i] = 0
	}
	if cap(s.rows) < m {
		s.rows = make([][]float64, m)
	}
	t.rows = s.rows[:m]
	for i := 0; i < m; i++ {
		t.rows[i] = data[i*(cols+1) : (i+1)*(cols+1)]
	}
	if cap(s.basis) < m {
		s.basis = make([]int, m)
	}
	t.basis = s.basis[:m]
	t.cost = s.zeroCost(cols)
	return t
}

// zeroCost returns the reused cost row of length cols+1, zeroed.
func (s *Solver) zeroCost(cols int) []float64 {
	if cap(s.cost) < cols+1 {
		s.cost = make([]float64, cols+1)
	}
	c := s.cost[:cols+1]
	for i := range c {
		c[i] = 0
	}
	return c
}

// Maximize solves max c·x s.t. A·x <= b, x >= 0, like the package-level
// Maximize but reusing the solver's workspace.
func (s *Solver) Maximize(c []float64, a [][]float64, b []float64) (Solution, error) {
	if s.stats != nil {
		s.stats.Solves++
	}
	m := len(a)
	n := len(c)
	for i, row := range a {
		if len(row) != n {
			return Solution{}, fmt.Errorf("lp: row %d has %d coefficients, want %d", i, len(row), n)
		}
	}
	if len(b) != m {
		return Solution{}, fmt.Errorf("lp: %d rows but %d right-hand sides", m, len(b))
	}

	// Count artificials: one per negative-RHS row.
	nArt := 0
	for _, bi := range b {
		if bi < 0 {
			nArt++
		}
	}
	cols := n + m + nArt
	t := s.prep(m, cols, nArt)
	art := n + m // next artificial column
	for i := 0; i < m; i++ {
		row := t.rows[i]
		if b[i] >= 0 {
			copy(row, a[i])
			row[n+i] = 1 // slack
			row[cols] = b[i]
			t.basis[i] = n + i
		} else {
			for j, v := range a[i] {
				row[j] = -v
			}
			row[n+i] = -1 // negated slack
			row[art] = 1  // artificial
			row[cols] = -b[i]
			t.basis[i] = art
			art++
		}
	}

	if nArt > 0 {
		// Phase 1: minimize the sum of artificials (the cost slice is a
		// minimization row throughout).
		for j := n + m; j < cols; j++ {
			t.cost[j] = 1
		}
		t.priceOut()
		if err := t.iterate(s.stats); err != nil {
			return Solution{}, err
		}
		if -t.cost[cols] > feasTol { // objective value = -cost[cols]
			return Solution{Status: Infeasible}, nil
		}
		if err := t.evictArtificials(n, m); err != nil {
			return Solution{}, err
		}
	}

	// Phase 2: maximize c·x with artificial columns frozen; the cost row is
	// rebuilt as the minimization row of -c·x.
	t.cost = s.zeroCost(cols)
	for j := 0; j < n; j++ {
		t.cost[j] = -c[j]
	}
	t.priceOut()
	if err := t.iterate(s.stats); err != nil {
		return Solution{}, err
	}
	if t.unbounded {
		return Solution{Status: Unbounded}, nil
	}

	x := make([]float64, n)
	for i, bi := range t.basis {
		if bi < n {
			x[bi] = t.rows[i][t.cols]
		}
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += c[j] * x[j]
	}
	return Solution{Status: Optimal, X: x, Objective: obj}, nil
}

// Minimize solves min c·x s.t. A·x <= b, x >= 0, reusing the workspace.
func (s *Solver) Minimize(c []float64, a [][]float64, b []float64) (Solution, error) {
	if cap(s.negObj) < len(c) {
		s.negObj = make([]float64, len(c))
	}
	neg := s.negObj[:len(c)]
	for i, v := range c {
		neg[i] = -v
	}
	sol, err := s.Maximize(neg, a, b)
	if err != nil || sol.Status != Optimal {
		return sol, err
	}
	sol.Objective = -sol.Objective
	return sol, nil
}

// constraintScratch renders cons as an m x width coefficient matrix and RHS
// vector in the solver's scratch arenas. When slack is true, every row gets
// one trailing column reserved for the shared slack variable (+1 on Strict
// rows — the FeasibleInterior formulation); otherwise rows must match width
// exactly, so dimension mismatches fail loudly instead of being truncated
// or zero-padded into a plausible-but-wrong solve.
func (s *Solver) constraintScratch(cons []geom.Constraint, width int, slack bool) ([][]float64, []float64, error) {
	rowLen := width
	if slack {
		rowLen = width - 1
	}
	m := len(cons)
	need := m * width
	if cap(s.aData) < need {
		s.aData = make([]float64, need)
	}
	data := s.aData[:need]
	for i := range data {
		data[i] = 0
	}
	if cap(s.aRows) < m {
		s.aRows = make([][]float64, m)
	}
	if cap(s.bRow) < m {
		s.bRow = make([]float64, m)
	}
	a := s.aRows[:m]
	b := s.bRow[:m]
	for i, c := range cons {
		if len(c.A) != rowLen {
			return nil, nil, fmt.Errorf("lp: constraint %d has %d coefficients, want %d", i, len(c.A), rowLen)
		}
		row := data[i*width : (i+1)*width]
		copy(row, c.A)
		if slack && c.Strict {
			row[width-1] = 1
		}
		a[i] = row
		b[i] = c.B
	}
	return a, b, nil
}

// FeasibleInterior is the workspace-reusing equivalent of the package-level
// FeasibleInterior: it decides whether the open region defined by cons has
// non-empty interior and returns a deep-interior witness.
func (s *Solver) FeasibleInterior(cons []geom.Constraint, dim int) (Interior, error) {
	a, b, err := s.constraintScratch(cons, dim+1, true)
	if err != nil {
		return Interior{}, err
	}
	if cap(s.obj) < dim+1 {
		s.obj = make([]float64, dim+1)
	}
	obj := s.obj[:dim+1]
	for i := range obj {
		obj[i] = 0
	}
	obj[dim] = 1
	sol, err := s.Maximize(obj, a, b)
	if err != nil {
		return Interior{}, err
	}
	if sol.Status != Optimal || sol.Objective <= InteriorEps {
		return Interior{}, nil
	}
	return Interior{
		Feasible: true,
		Point:    geom.Vector(sol.X[:dim]).Clone(),
		Slack:    sol.Objective,
	}, nil
}

// Bound is the workspace-reusing equivalent of the package-level Bound: it
// optimizes obj over the closure of the region defined by cons.
func (s *Solver) Bound(cons []geom.Constraint, obj geom.Vector, maximize bool) (float64, geom.Vector, Status, error) {
	a, b, err := s.constraintScratch(cons, len(obj), false)
	if err != nil {
		return 0, nil, Optimal, err
	}
	var sol Solution
	if maximize {
		sol, err = s.Maximize(obj, a, b)
	} else {
		sol, err = s.Minimize(obj, a, b)
	}
	if err != nil {
		return 0, nil, Optimal, err
	}
	if sol.Status != Optimal {
		return 0, nil, sol.Status, nil
	}
	return sol.Objective, geom.Vector(sol.X).Clone(), Optimal, nil
}
