// Package geom provides the vector math, dominance tests, and the
// hyperplane/halfspace machinery on which kSPR processing is built.
//
// Records and weight vectors are dense []float64 slices. A record r maps,
// relative to a focal record p, to the hyperplane S(r) = S(p) in preference
// space; the positive halfspace is where r outscores p and the negative
// halfspace is where p outscores r (paper §3.2).
package geom

import (
	"fmt"
	"math"
)

// Eps is the geometric tolerance used throughout the library. Coordinates
// are expected to be of magnitude O(1) (generators produce values in [0,1]),
// so a single absolute tolerance is appropriate.
const Eps = 1e-9

// Vector is a point in data space or preference space.
type Vector []float64

// CheckFinite rejects NaN and infinite values. Dominance tests, the
// kernels and the engine are exact only on finite input, so every public
// entry point that accepts records, focal vectors or weights validates
// them with this one rule.
func CheckFinite(v []float64) error {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("values must be finite, got %v", x)
		}
	}
	return nil
}

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Dot returns the inner product v·u. It panics if the lengths differ,
// because mismatched dimensionality is always a programming error.
func (v Vector) Dot(u Vector) float64 {
	if len(v) != len(u) {
		panic(fmt.Sprintf("geom: dot of vectors with lengths %d and %d", len(v), len(u)))
	}
	var s float64
	for i, x := range v {
		s += x * u[i]
	}
	return s
}

// Sum returns the sum of the components of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Equal reports whether v and u are component-wise equal within Eps.
func (v Vector) Equal(u Vector) bool {
	if len(v) != len(u) {
		return false
	}
	for i, x := range v {
		if math.Abs(x-u[i]) > Eps {
			return false
		}
	}
	return true
}

// Score returns the linear score r·w of record r under weight vector w
// (Equation 1 of the paper). Both must have the same length d.
func Score(r, w Vector) float64 { return r.Dot(w) }

// ScoreTransformed evaluates S(r) for a weight vector in the transformed
// preference space (d-1 free weights; the last weight is 1 - Σ wt).
// It computes r_d + Σ_{j<d} (r_j - r_d)·wt_j.
func ScoreTransformed(r Vector, wt Vector) float64 {
	d := len(r)
	if len(wt) != d-1 {
		panic(fmt.Sprintf("geom: transformed weight length %d for %d-dimensional record", len(wt), d))
	}
	s := r[d-1]
	for j := 0; j < d-1; j++ {
		s += (r[j] - r[d-1]) * wt[j]
	}
	return s
}

// Lift converts a transformed weight vector (length d-1) into the original
// d-dimensional weight vector by appending w_d = 1 - Σ wt_j.
func Lift(wt Vector) Vector {
	w := make(Vector, len(wt)+1)
	copy(w, wt)
	w[len(wt)] = 1 - wt.Sum()
	return w
}

// Project converts an original-space weight vector (length d, summing to 1)
// into the transformed space by dropping the last component.
func Project(w Vector) Vector {
	return w[:len(w)-1].Clone()
}

// DomRelation classifies the dominance relationship between two records.
type DomRelation int

const (
	// DomNone means neither record dominates the other.
	DomNone DomRelation = iota
	// DomFirst means the first record dominates the second.
	DomFirst
	// DomSecond means the second record dominates the first.
	DomSecond
	// DomEqual means the records are component-wise equal (a tie).
	DomEqual
)

// Dominates reports whether r dominates s under "larger is better"
// semantics: r is no smaller than s in every dimension and strictly larger
// in at least one (paper §2).
func Dominates(r, s Vector) bool {
	if len(r) != len(s) {
		panic("geom: dominance test on vectors of different lengths")
	}
	strict := false
	for i, x := range r {
		switch {
		case x < s[i]:
			return false
		case x > s[i]:
			strict = true
		}
	}
	return strict
}

// WeakDominates reports whether r is no smaller than s in every dimension,
// equality allowed everywhere. Then r scores at least as high as s under
// every non-negative weight vector; and a box whose max-corner fails the
// test holds no record that dominates s.
func WeakDominates(r, s Vector) bool {
	for i, x := range r {
		if x < s[i] {
			return false
		}
	}
	return true
}

// Compare returns the dominance relation between r and s.
func Compare(r, s Vector) DomRelation {
	rBetter, sBetter := false, false
	for i, x := range r {
		switch {
		case x > s[i]:
			rBetter = true
		case x < s[i]:
			sBetter = true
		}
		if rBetter && sBetter {
			return DomNone
		}
	}
	switch {
	case rBetter:
		return DomFirst
	case sBetter:
		return DomSecond
	default:
		return DomEqual
	}
}

// InSimplex reports whether a transformed weight vector lies strictly inside
// the preference space: every component > 0 and the component sum < 1.
func InSimplex(wt Vector) bool {
	var s float64
	for _, x := range wt {
		if x <= 0 {
			return false
		}
		s += x
	}
	return s < 1
}

// SimplexCenter returns the barycenter of the transformed preference space
// in dPref dimensions: each coordinate 1/(dPref+1). It is always strictly
// interior and is a convenient starting point for sampling.
func SimplexCenter(dPref int) Vector {
	c := make(Vector, dPref)
	for i := range c {
		c[i] = 1 / float64(dPref+1)
	}
	return c
}
