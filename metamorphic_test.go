package kspr

// Metamorphic property tests: relations that must hold between the
// outputs of related queries, regardless of which algorithm produced
// them. Unlike the oracle tests (which compare algorithms against each
// other), these catch bugs all four algorithms could share — an indexing
// error tied to record order, a scale-dependent comparison, or a region
// decomposition that leaks measure.
//
// Properties:
//   - Permutation invariance: the kSPR answer is a set of weight vectors
//     determined by the focal record and the multiset of competitors, so
//     shuffling the dataset (and chasing the focal to its new index)
//     must leave the region union, the base rank, and the impact
//     probability unchanged even when the cell decomposition differs.
//   - Positive-scaling invariance: scores are linear in the records
//     (score = w·v), so scaling every record by the same c > 0 scales
//     all scores by c and preserves every ranking — the answer is
//     identical.
//   - Volume budget: regions are disjoint cells of the (d-1)-dimensional
//     preference simplex, whose measure is 1/(d-1)!, so their volumes
//     must sum to at most that (and in particular to at most 1).

import (
	"math"
	"math/rand"
	"testing"
)

// metamorphicAlgorithms lists every exact algorithm; each property must
// hold for all of them.
var metamorphicAlgorithms = []struct {
	name string
	algo Algorithm
}{
	{"CTA", CTA},
	{"PCTA", PCTA},
	{"LPCTA", LPCTA},
	{"KSkybandCTA", KSkybandCTA},
}

// crossContained asserts the two results describe the same region union:
// every region's strictly-interior witness in each result must fall in
// some region of the other.
func crossContained(t *testing.T, a, b *Result, tol float64) {
	t.Helper()
	for i := range a.Regions {
		if !b.ContainsWeight(a.Regions[i].Witness, tol) {
			t.Fatalf("witness of first result's region %d not contained in second result (%d vs %d regions)",
				i, len(a.Regions), len(b.Regions))
		}
	}
	for i := range b.Regions {
		if !a.ContainsWeight(b.Regions[i].Witness, tol) {
			t.Fatalf("witness of second result's region %d not contained in first result (%d vs %d regions)",
				i, len(b.Regions), len(a.Regions))
		}
	}
}

func TestMetamorphicPermutationInvariance(t *testing.T) {
	const (
		n, d, k       = 60, 3, 5
		impactSamples = 20000
	)
	rng := rand.New(rand.NewSource(11))
	records := randRecords(rng, n, d)
	perm := rng.Perm(n)
	permuted := make([][]float64, n)
	newIndex := make([]int, n) // original id -> id after shuffling
	for i, p := range perm {
		permuted[i] = records[p]
		newIndex[p] = i
	}
	db1, err := Open(records)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Open(permuted)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range metamorphicAlgorithms {
		t.Run(tc.name, func(t *testing.T) {
			nonEmpty := 0
			for _, focal := range []int{0, 17, 42} {
				r1, err := db1.KSPR(focal, k, WithAlgorithm(tc.algo))
				if err != nil {
					t.Fatalf("focal %d original order: %v", focal, err)
				}
				r2, err := db2.KSPR(newIndex[focal], k, WithAlgorithm(tc.algo))
				if err != nil {
					t.Fatalf("focal %d permuted order: %v", focal, err)
				}
				if r1.Stats.BaseRank != r2.Stats.BaseRank {
					t.Fatalf("focal %d: base rank changed under permutation: %d vs %d",
						focal, r1.Stats.BaseRank, r2.Stats.BaseRank)
				}
				if (len(r1.Regions) == 0) != (len(r2.Regions) == 0) {
					t.Fatalf("focal %d: emptiness changed under permutation: %d vs %d regions",
						focal, len(r1.Regions), len(r2.Regions))
				}
				crossContained(t, r1, r2, 1e-7)
				p1 := db1.ImpactProbability(r1, impactSamples, 7)
				p2 := db2.ImpactProbability(r2, impactSamples, 7)
				if math.Abs(p1-p2) > 0.01 {
					t.Fatalf("focal %d: impact probability changed under permutation: %g vs %g",
						focal, p1, p2)
				}
				if len(r1.Regions) > 0 {
					nonEmpty++
				}
			}
			if nonEmpty == 0 {
				t.Fatal("every focal produced an empty result; the property was tested vacuously")
			}
		})
	}
}

func TestMetamorphicPositiveScalingInvariance(t *testing.T) {
	const (
		n, d, k       = 50, 3, 4
		impactSamples = 20000
	)
	rng := rand.New(rand.NewSource(23))
	records := randRecords(rng, n, d)
	db1, err := Open(records)
	if err != nil {
		t.Fatal(err)
	}

	// 2.0 is a power of two (scaling is bit-exact); 3.7 exercises the
	// rounding-sensitive path.
	for _, scale := range []float64{2.0, 3.7} {
		scaled := make([][]float64, n)
		for i, r := range records {
			s := make([]float64, d)
			for j, v := range r {
				s[j] = v * scale
			}
			scaled[i] = s
		}
		db2, err := Open(scaled)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range metamorphicAlgorithms {
			for _, focal := range []int{3, 29} {
				r1, err := db1.KSPR(focal, k, WithAlgorithm(tc.algo))
				if err != nil {
					t.Fatalf("%s focal %d unscaled: %v", tc.name, focal, err)
				}
				r2, err := db2.KSPR(focal, k, WithAlgorithm(tc.algo))
				if err != nil {
					t.Fatalf("%s focal %d scaled by %g: %v", tc.name, focal, scale, err)
				}
				if r1.Stats.BaseRank != r2.Stats.BaseRank {
					t.Fatalf("%s focal %d: base rank changed under scaling by %g: %d vs %d",
						tc.name, focal, scale, r1.Stats.BaseRank, r2.Stats.BaseRank)
				}
				crossContained(t, r1, r2, 1e-7)
				p1 := db1.ImpactProbability(r1, impactSamples, 5)
				p2 := db2.ImpactProbability(r2, impactSamples, 5)
				if math.Abs(p1-p2) > 0.01 {
					t.Fatalf("%s focal %d: impact probability changed under scaling by %g: %g vs %g",
						tc.name, focal, scale, p1, p2)
				}
			}
		}
	}
}

func TestMetamorphicVolumeBudget(t *testing.T) {
	cases := []struct {
		n, d, k int
		focals  []int
		slack   float64 // multiplicative tolerance on the simplex bound
	}{
		// d=3 transforms to 2-dim regions: polygon areas are exact, so
		// only fp noise is allowed over the bound.
		{n: 60, d: 3, k: 5, focals: []int{0, 17, 42}, slack: 1e-9},
		// d=4 transforms to 3-dim regions: tetrahedralization is exact
		// when it succeeds but Monte-Carlo estimation may overshoot.
		{n: 40, d: 4, k: 4, focals: []int{5, 21}, slack: 0.05},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(37))
		db, err := Open(randRecords(rng, c.n, c.d))
		if err != nil {
			t.Fatal(err)
		}
		// The transformed preference space is the (d-1)-simplex
		// {w_i >= 0, sum w_i <= 1}, of measure 1/(d-1)!.
		bound := 1.0
		for i := 2; i < c.d; i++ {
			bound /= float64(i)
		}
		var sawVolume bool
		for _, tc := range metamorphicAlgorithms {
			for _, focal := range c.focals {
				res, err := db.KSPR(focal, c.k,
					WithAlgorithm(tc.algo), WithVolumes(4000), WithSeed(2))
				if err != nil {
					t.Fatalf("%s d=%d focal %d: %v", tc.name, c.d, focal, err)
				}
				total := res.TotalVolume()
				if total < 0 {
					t.Fatalf("%s d=%d focal %d: negative total volume %g", tc.name, c.d, focal, total)
				}
				if total > bound*(1+c.slack) {
					t.Fatalf("%s d=%d focal %d: region volumes sum to %g, exceeding the simplex measure %g",
						tc.name, c.d, focal, total, bound)
				}
				for i := range res.Regions {
					if v := res.Regions[i].Volume; v < 0 || v > bound*(1+c.slack) {
						t.Fatalf("%s d=%d focal %d: region %d volume %g outside [0, %g]",
							tc.name, c.d, focal, i, v, bound)
					}
				}
				if total > 0 {
					sawVolume = true
				}
			}
		}
		if !sawVolume {
			t.Fatalf("d=%d: every query reported zero volume; the budget was tested vacuously", c.d)
		}
	}
}
