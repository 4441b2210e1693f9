package lp

import (
	"fmt"
	"sync"

	"repro/internal/geom"
)

// workspace is a reusable simplex workspace: the tableau rows, cost row,
// basis and constraint-matrix scratch survive across solves. Maximize,
// Minimize, FeasibleInterior and Bound each borrow one from workspaces for
// the length of the call, so LP scratch memory is reused across calls,
// goroutines and queries without any caller owning a workspace.
type workspace struct {
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

// workspaces is the one pool every solve borrows from.
var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// borrow takes a workspace from the pool, counting its activity into
// stats; a nil stats disables accounting. Hand it back with release.
func borrow(stats *Stats) *workspace {
	s := workspaces.Get().(*workspace)
	s.stats = stats
	return s
}

// release returns the workspace to the pool. Nothing a solve returns
// aliases workspace memory.
func (s *workspace) release() {
	s.stats = nil
	workspaces.Put(s)
}

// prep (re)initializes the embedded tableau for an m-row, cols-column
// problem, reusing the solver's backing arrays. All rows and the cost row
// come back zeroed.
func (s *workspace) prep(m, cols, nArt int) *tableau {
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
func (s *workspace) zeroCost(cols int) []float64 {
	if cap(s.cost) < cols+1 {
		s.cost = make([]float64, cols+1)
	}
	c := s.cost[:cols+1]
	for i := range c {
		c[i] = 0
	}
	return c
}

// maximize solves max c·x s.t. A·x <= b, x >= 0 in the workspace.
func (s *workspace) maximize(c []float64, a [][]float64, b []float64) (Solution, error) {
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

// minimize solves min c·x s.t. A·x <= b, x >= 0 in the workspace.
func (s *workspace) minimize(c []float64, a [][]float64, b []float64) (Solution, error) {
	if cap(s.negObj) < len(c) {
		s.negObj = make([]float64, len(c))
	}
	neg := s.negObj[:len(c)]
	for i, v := range c {
		neg[i] = -v
	}
	sol, err := s.maximize(neg, a, b)
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
func (s *workspace) constraintScratch(cons []geom.Constraint, width int, slack bool) ([][]float64, []float64, error) {
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
