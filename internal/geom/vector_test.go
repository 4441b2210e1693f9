package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDotAndSum(t *testing.T) {
	v := Vector{1, 2, 3}
	u := Vector{4, 5, 6}
	if got := v.Dot(u); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := v.Sum(); got != 6 {
		t.Fatalf("Sum = %v, want 6", got)
	}
	if got := (Vector{3, 4}).Norm(); math.Abs(got-5) > Eps {
		t.Fatalf("Norm = %v, want 5", got)
	}
}

func TestDotPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched lengths")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestCloneIndependence(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone aliases the original")
	}
}

func TestDominates(t *testing.T) {
	cases := []struct {
		r, s Vector
		want bool
	}{
		{Vector{2, 2}, Vector{1, 1}, true},
		{Vector{2, 1}, Vector{1, 1}, true},
		{Vector{1, 1}, Vector{1, 1}, false}, // equal: no strict dimension
		{Vector{2, 0}, Vector{1, 1}, false},
		{Vector{1, 2}, Vector{2, 1}, false},
	}
	for _, c := range cases {
		if got := Dominates(c.r, c.s); got != c.want {
			t.Errorf("Dominates(%v, %v) = %v, want %v", c.r, c.s, got, c.want)
		}
	}
}

func TestWeakDominates(t *testing.T) {
	cases := []struct {
		r, s Vector
		want bool
	}{
		{Vector{2, 2}, Vector{1, 1}, true},
		{Vector{2, 1}, Vector{1, 1}, true},
		{Vector{1, 1}, Vector{1, 1}, true}, // equal: allowed
		{Vector{2, 0}, Vector{1, 1}, false},
		{Vector{1, 2}, Vector{2, 1}, false},
	}
	for _, c := range cases {
		if got := WeakDominates(c.r, c.s); got != c.want {
			t.Errorf("WeakDominates(%v, %v) = %v, want %v", c.r, c.s, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	if Compare(Vector{2, 2}, Vector{1, 1}) != DomFirst {
		t.Error("want DomFirst")
	}
	if Compare(Vector{1, 1}, Vector{2, 2}) != DomSecond {
		t.Error("want DomSecond")
	}
	if Compare(Vector{1, 2}, Vector{2, 1}) != DomNone {
		t.Error("want DomNone")
	}
	if Compare(Vector{1, 2}, Vector{1, 2}) != DomEqual {
		t.Error("want DomEqual")
	}
}

// Property: Compare is consistent with Dominates.
func TestCompareConsistentWithDominates(t *testing.T) {
	f := func(a, b [4]float64) bool {
		r, s := Vector(a[:]), Vector(b[:])
		rel := Compare(r, s)
		return (rel == DomFirst) == Dominates(r, s) &&
			(rel == DomSecond) == Dominates(s, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: ScoreTransformed(r, wt) == Score(r, Lift(wt)) for wt in the simplex.
func TestScoreTransformedMatchesLiftedScore(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		d := 2 + rng.Intn(5)
		r := randVector(rng, d)
		wt := randSimplex(rng, d-1)
		got := ScoreTransformed(r, wt)
		want := Score(r, Lift(wt))
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("d=%d: transformed score %v != lifted score %v", d, got, want)
		}
	}
}

func TestLiftProjectRoundTrip(t *testing.T) {
	wt := Vector{0.2, 0.3}
	w := Lift(wt)
	if math.Abs(w.Sum()-1) > Eps {
		t.Fatalf("lifted vector sums to %v, want 1", w.Sum())
	}
	if !Project(w).Equal(wt) {
		t.Fatalf("Project(Lift(wt)) = %v, want %v", Project(w), wt)
	}
}

func TestInSimplex(t *testing.T) {
	if !InSimplex(Vector{0.2, 0.3}) {
		t.Error("interior point rejected")
	}
	if InSimplex(Vector{0.5, 0.5}) {
		t.Error("boundary point (sum=1) accepted")
	}
	if InSimplex(Vector{0, 0.3}) {
		t.Error("boundary point (w1=0) accepted")
	}
	if InSimplex(Vector{-0.1, 0.3}) {
		t.Error("exterior point accepted")
	}
}

func TestSimplexCenter(t *testing.T) {
	c := SimplexCenter(3)
	if !InSimplex(c) {
		t.Fatalf("center %v not interior", c)
	}
}

// randVector returns a vector with components in [0,1).
func randVector(rng *rand.Rand, d int) Vector {
	v := make(Vector, d)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

// randSimplex returns a strictly interior point of the transformed
// preference space in dPref dimensions.
func randSimplex(rng *rand.Rand, dPref int) Vector {
	// Sample d = dPref+1 exponentials and normalize; drop the last.
	raw := make([]float64, dPref+1)
	var sum float64
	for i := range raw {
		raw[i] = rng.ExpFloat64() + 1e-6
		sum += raw[i]
	}
	wt := make(Vector, dPref)
	for i := range wt {
		wt[i] = raw[i] / sum
	}
	return wt
}
