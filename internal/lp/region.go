package lp

import (
	"repro/internal/geom"
)

// InteriorEps is the minimum slack for a cell to count as having non-zero
// extent. Constraint rows are unit-normalized, so the slack is a genuine
// Euclidean margin: a feasible cell contains a ball of radius >= InteriorEps.
const InteriorEps = 1e-7

// Interior is the result of a feasibility test on an open cell.
type Interior struct {
	// Feasible is true when the open intersection of the constraints is
	// non-empty (it contains a ball of radius Slack).
	Feasible bool
	// Point is a deep-interior witness (the Chebyshev-style center found by
	// the max-slack LP); valid only when Feasible.
	Point geom.Vector
	// Slack is the maximal uniform margin achieved.
	Slack float64
}

// FeasibleInterior decides whether the OPEN region defined by cons (rows
// a·w <= b, with Strict rows meaning a·w < b) has non-empty interior, by
// solving
//
//	maximize t  s.t.  a_i·w + t <= b_i (strict rows), a_i·w <= b_i (others),
//	                  w >= 0, t >= 0.
//
// Because rows are unit-normalized, t is a Euclidean inradius lower bound;
// cells of zero extent (faces, single points) come back infeasible, which is
// exactly the paper's notion of an infeasible cell (§4.2). The maximizing w
// doubles as the cached interior point of §4.3.2.
func FeasibleInterior(cons []geom.Constraint, dim int, stats *Stats) (Interior, error) {
	s := borrow(stats)
	defer s.release()
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
	sol, err := s.maximize(obj, a, b)
	if err != nil || sol.Status != Optimal || sol.Objective <= InteriorEps {
		return Interior{}, err
	}
	return Interior{Feasible: true, Point: geom.Vector(sol.X[:dim:dim]), Slack: sol.Objective}, nil
}

// Bound optimizes a linear objective over the CLOSURE of the region defined
// by cons (infima/suprema over an open cell equal those over its closure).
// It returns the optimum value and an optimizing point.
//
// maximize=true computes sup obj·w, otherwise inf obj·w. The caller adds
// any constant term itself (e.g. the p_d term of a transformed score).
func Bound(cons []geom.Constraint, obj geom.Vector, maximize bool, stats *Stats) (float64, geom.Vector, Status, error) {
	s := borrow(stats)
	defer s.release()
	a, b, err := s.constraintScratch(cons, len(obj), false)
	if err != nil {
		return 0, nil, Optimal, err
	}
	var sol Solution
	if maximize {
		sol, err = s.maximize(obj, a, b)
	} else {
		sol, err = s.minimize(obj, a, b)
	}
	if err != nil || sol.Status != Optimal {
		return 0, nil, sol.Status, err
	}
	return sol.Objective, sol.X, Optimal, nil
}
