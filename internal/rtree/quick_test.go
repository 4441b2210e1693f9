package rtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// quickRecords converts quick-generated fixed arrays into a record set.
func quickRecords(raw [][3]float64) []geom.Vector {
	recs := make([]geom.Vector, 0, len(raw))
	for _, r := range raw {
		v := make(geom.Vector, 3)
		for j, x := range r {
			// Map arbitrary floats into [0,1] deterministically.
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0.5
			}
			v[j] = math.Abs(x) - math.Floor(math.Abs(x))
		}
		recs = append(recs, v)
	}
	return recs
}

// Property: every skyline member is undominated and every non-member is
// dominated by some skyline member.
func TestQuickSkylineDefinition(t *testing.T) {
	f := func(raw [][3]float64) bool {
		if len(raw) == 0 {
			return true
		}
		recs := quickRecords(raw)
		tr, err := Build(recs, WithFanout(4))
		if err != nil {
			return false
		}
		sky := tr.Skyline()
		inSky := map[int]bool{}
		for _, id := range sky {
			inSky[id] = true
		}
		for i, r := range recs {
			dominated := false
			for _, id := range sky {
				if id != i && geom.Dominates(recs[id], r) {
					dominated = true
					break
				}
			}
			if inSky[i] && dominated {
				return false // skyline member dominated by another member
			}
			if !inSky[i] && !dominated {
				// Non-members must be dominated by some skyline record
				// (dominance chains end at the skyline).
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: skyband sizes are monotone in k and the n-skyband is everything.
func TestQuickSkybandMonotone(t *testing.T) {
	f := func(raw [][3]float64, kRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		recs := quickRecords(raw)
		tr, err := Build(recs, WithFanout(4))
		if err != nil {
			return false
		}
		k := int(kRaw)%5 + 1
		a := tr.KSkyband(k)
		b := tr.KSkyband(k + 1)
		if len(a) > len(b) {
			return false
		}
		inB := map[int]bool{}
		for _, id := range b {
			inB[id] = true
		}
		for _, id := range a {
			if !inB[id] {
				return false // k-skyband must be contained in (k+1)-skyband
			}
		}
		full := tr.KSkyband(len(recs))
		return len(full) == len(recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: TopK scores are non-increasing and each is >= any score outside
// the result.
func TestQuickTopKOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(raw [][3]float64) bool {
		if len(raw) < 2 {
			return true
		}
		recs := quickRecords(raw)
		tr, err := Build(recs, WithFanout(4))
		if err != nil {
			return false
		}
		w := geom.Vector{rng.Float64() + 0.01, rng.Float64() + 0.01, rng.Float64() + 0.01}
		k := 1 + rng.Intn(len(recs))
		top := tr.TopK(w, k)
		if len(top) != min(k, len(recs)) {
			return false
		}
		inTop := map[int]bool{}
		for i, id := range top {
			inTop[id] = true
			if i > 0 && recs[top[i-1]].Dot(w) < recs[id].Dot(w)-1e-12 {
				return false
			}
		}
		worst := recs[top[len(top)-1]].Dot(w)
		for i, r := range recs {
			if !inTop[i] && r.Dot(w) > worst+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
