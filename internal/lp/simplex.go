// Package lp implements a dense two-phase simplex solver for the small
// linear programs kSPR processing generates: cell feasibility tests, score
// bounds, and min/max weight vectors. It plays the role lp_solve plays in
// the paper (§4.2, §6).
//
// The solver handles problems of the form
//
//	maximize  c·x
//	subject to A·x <= b   (b may be negative)
//	           x >= 0
//
// which covers every LP in the paper because preference-space weights are
// non-negative by definition. Strict inequalities are handled one level up
// (FeasibleInterior) by maximizing a shared slack.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Status is the outcome of a solve.
type Status int

const (
	// Optimal means an optimal bounded solution was found.
	Optimal Status = iota
	// Infeasible means the constraint set is empty.
	Infeasible
	// Unbounded means the objective can grow without limit.
	Unbounded
)

// String names the solve outcome ("optimal", "infeasible", "unbounded").
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Solution reports the result of a solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
}

const (
	pivotTol = 1e-9
	costTol  = 1e-9
	// feasTol is how much artificial residue phase 1 may leave behind and
	// still call the problem feasible.
	feasTol = 1e-7
	// blandAfter switches to Bland's anti-cycling rule after this many
	// Dantzig iterations.
	blandAfter = 2000
	maxIters   = 20000
)

// ErrIterationLimit is returned when the simplex fails to converge; with
// Bland's rule this indicates severe numerical trouble rather than cycling.
var ErrIterationLimit = errors.New("lp: iteration limit exceeded")

// Stats counts solver activity for instrumentation (e.g. the paper's
// "number of LP calls" side metrics). Counters are not goroutine-safe;
// each query (and, under the parallel engine, each worker) counts into
// its own Stats and merges with Add.
type Stats struct {
	// Solves is the number of LPs solved; Pivots the total simplex pivots.
	Solves int
	Pivots int
}

// Add accumulates o into s. The parallel expansion engine uses it to merge
// per-worker counters back into a query's totals; addition commutes, so
// the merged totals match a serial run exactly.
func (s *Stats) Add(o Stats) {
	s.Solves += o.Solves
	s.Pivots += o.Pivots
}

// tableau is a dense simplex tableau.
type tableau struct {
	rows  [][]float64 // m x (cols+1); last column is RHS
	cost  []float64   // reduced cost row, length cols+1 (last = -objective)
	basis []int       // basis[i] = variable index basic in row i
	m     int
	cols  int
	nArt  int // number of artificial variables (occupy the last nArt cols)
	// unbounded is set by iterate when a pivot column has no leaving row.
	unbounded bool
}

// Maximize solves max c·x s.t. A·x <= b, x >= 0, counting into stats (nil
// disables accounting).
func Maximize(c []float64, a [][]float64, b []float64, stats *Stats) (Solution, error) {
	s := borrow(stats)
	defer s.release()
	return s.maximize(c, a, b)
}

// Minimize solves min c·x s.t. A·x <= b, x >= 0.
func Minimize(c []float64, a [][]float64, b []float64, stats *Stats) (Solution, error) {
	s := borrow(stats)
	defer s.release()
	return s.minimize(c, a, b)
}

// priceOut makes the cost row consistent with the current basis by
// subtracting multiples of basic rows so reduced costs of basic variables
// are zero.
func (t *tableau) priceOut() {
	for i, bi := range t.basis {
		cb := t.cost[bi]
		if cb == 0 {
			continue
		}
		row := t.rows[i]
		for j := 0; j <= t.cols; j++ {
			t.cost[j] -= cb * row[j]
		}
		t.cost[bi] = 0 // exact
	}
}

// iterate runs simplex pivots until optimality (all reduced costs >= 0 for
// the minimization row), unboundedness, or the iteration cap.
func (t *tableau) iterate(stats *Stats) error {
	t.unbounded = false
	for iter := 0; iter < maxIters; iter++ {
		bland := iter > blandAfter
		col := t.chooseColumn(bland)
		if col < 0 {
			return nil // optimal
		}
		row := t.chooseRow(col, bland)
		if row < 0 {
			t.unbounded = true
			return nil
		}
		t.pivot(row, col)
		if stats != nil {
			stats.Pivots++
		}
	}
	return ErrIterationLimit
}

func (t *tableau) chooseColumn(bland bool) int {
	nFree := t.cols - t.nArt // artificials may never re-enter
	if bland {
		for j := 0; j < nFree; j++ {
			if t.cost[j] < -costTol {
				return j
			}
		}
		return -1
	}
	best, bestVal := -1, -costTol
	for j := 0; j < nFree; j++ {
		if t.cost[j] < bestVal {
			best, bestVal = j, t.cost[j]
		}
	}
	return best
}

func (t *tableau) chooseRow(col int, bland bool) int {
	best := -1
	bestRatio := math.Inf(1)
	for i := 0; i < t.m; i++ {
		aij := t.rows[i][col]
		if aij <= pivotTol {
			continue
		}
		ratio := t.rows[i][t.cols] / aij
		if ratio < bestRatio-pivotTol {
			best, bestRatio = i, ratio
		} else if ratio < bestRatio+pivotTol && best >= 0 {
			// Tie: prefer the smaller basis index (Bland) to avoid cycling,
			// or when not in Bland mode, the larger pivot for stability.
			if bland {
				if t.basis[i] < t.basis[best] {
					best, bestRatio = i, ratio
				}
			} else if aij > t.rows[best][col] {
				best, bestRatio = i, ratio
			}
		}
	}
	return best
}

func (t *tableau) pivot(r, c int) {
	row := t.rows[r]
	p := row[c]
	inv := 1 / p
	for j := 0; j <= t.cols; j++ {
		row[j] *= inv
	}
	row[c] = 1
	for i := 0; i < t.m; i++ {
		if i == r {
			continue
		}
		f := t.rows[i][c]
		if f == 0 {
			continue
		}
		ri := t.rows[i]
		for j := 0; j <= t.cols; j++ {
			ri[j] -= f * row[j]
		}
		ri[c] = 0
	}
	f := t.cost[c]
	if f != 0 {
		for j := 0; j <= t.cols; j++ {
			t.cost[j] -= f * row[j]
		}
		t.cost[c] = 0
	}
	t.basis[r] = c
}

// evictArtificials removes artificial variables from the basis at the end
// of phase 1 by pivoting them out where possible; rows where that is not
// possible are redundant and left in place (their artificial stays at zero
// and is frozen out of phase 2 by chooseColumn).
func (t *tableau) evictArtificials(n, m int) error {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < n+m {
			continue // not artificial
		}
		row := t.rows[i]
		pivotCol := -1
		for j := 0; j < n+m; j++ {
			if math.Abs(row[j]) > feasTol {
				pivotCol = j
				break
			}
		}
		if pivotCol >= 0 {
			t.pivot(i, pivotCol)
		}
	}
	return nil
}
