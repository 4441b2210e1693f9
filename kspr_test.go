package kspr

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

func randRecords(rng *rand.Rand, n, d int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		r := make([]float64, d)
		for j := range r {
			r[j] = rng.Float64()
		}
		out[i] = r
	}
	return out
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(nil); err == nil {
		t.Fatal("expected error for empty dataset")
	}
	if _, err := Open([][]float64{{1}}); err == nil {
		t.Fatal("expected error for 1-d records")
	}
	if _, err := Open([][]float64{{1, 2}, {1, 2, 3}}); err == nil {
		t.Fatal("expected error for ragged records")
	}
}

// TestRejectsNonFinite feeds NaN and ±Inf to every public entry point
// that takes records, focal vectors or weights: each must reject the
// value before it reaches the dominance kernels or the engine. Weights
// of the wrong length are rejected the same way.
func TestRejectsNonFinite(t *testing.T) {
	db, err := Open(randRecords(rand.New(rand.NewSource(3)), 40, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		vec := []float64{0.5, bad, 0.5}
		for _, c := range []struct {
			name     string
			rejected func() bool
		}{
			{"Open", func() bool {
				_, err := Open([][]float64{{0.1, 0.2, 0.3}, vec})
				return err != nil
			}},
			{"KSPRVector", func() bool {
				_, err := db.KSPRVector(vec, 3)
				return err != nil
			}},
			{"KSPRBatch", func() bool {
				// Per item: the finite sibling still gets its answer.
				out, err := db.KSPRBatch([]BatchQuery{{FocalID: 1}, {FocalID: -1, Focal: vec}}, 3)
				return err == nil && out[0].Err == nil && out[1].Err != nil
			}},
			{"TopK", func() bool { return db.TopK(vec, 3) == nil }},
			{"TopK short", func() bool { return db.TopK([]float64{0.5, 0.5}, 3) == nil }},
			{"TopK long", func() bool { return db.TopK([]float64{0.5, 0.5, 0.5, 0.5}, 3) == nil }},
			{"Rank", func() bool { return db.Rank(1, vec) == 0 }},
			{"Rank short", func() bool { return db.Rank(1, []float64{0.5, 0.5}) == 0 }},
			{"Rank long", func() bool { return db.Rank(1, []float64{0.5, 0.5, 0.5, 0.5}) == 0 }},
			{"Apply", func() bool {
				_, err := db.Apply(Insert(vec...))
				return err != nil
			}},
			{"ReadCSV", func() bool {
				csv := "a,b,c\n0.1," + strconv.FormatFloat(bad, 'g', -1, 64) + ",0.3\n"
				_, err := dataset.ReadCSV(strings.NewReader(csv), "bad")
				return err != nil
			}},
		} {
			if !c.rejected() {
				t.Errorf("%s accepted %v", c.name, bad)
			}
		}
	}
	if db.Generation() != 1 {
		t.Fatalf("a rejected mutation advanced the generation to %d", db.Generation())
	}
}

func TestOpenCopiesRecords(t *testing.T) {
	recs := [][]float64{{0.1, 0.2}, {0.3, 0.4}}
	db, err := Open(recs)
	if err != nil {
		t.Fatal(err)
	}
	recs[0][0] = 99
	if db.Record(0)[0] == 99 {
		t.Fatal("DB aliases caller memory")
	}
}

func TestBasicQueryAndAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db, err := Open(randRecords(rng, 100, 3))
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 100 || db.Dim() != 3 {
		t.Fatalf("shape %dx%d", db.Len(), db.Dim())
	}
	focal := db.Skyline()[0]
	res, err := db.KSPR(focal, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) == 0 {
		t.Fatal("skyline record with k=5 should have regions")
	}
	if _, err := db.KSPR(-1, 5); err == nil {
		t.Fatal("expected error for bad focal id")
	}
	if _, err := db.KSPR(0, 0); err == nil {
		t.Fatal("expected error for k=0")
	}
}

func TestKSPRVector(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db, err := Open(randRecords(rng, 60, 3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.KSPRVector([]float64{1.01, 1.01, 1.01}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A record dominating everything is top-1 everywhere: regions must
	// cover the whole simplex.
	prob := db.ImpactProbability(res, 20000, 7)
	if prob < 0.999 {
		t.Fatalf("dominating record has impact probability %v, want ~1", prob)
	}
}

func TestQueryOptionsAreHonoured(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db, err := Open(randRecords(rng, 80, 3))
	if err != nil {
		t.Fatal(err)
	}
	focal := db.Skyline()[0]

	var streamed int
	res, err := db.KSPR(focal, 3,
		WithAlgorithm(PCTA),
		WithProgressive(func(Region) { streamed++ }),
		WithVolumes(3000),
		WithSeed(11),
		WithoutGeometry(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if streamed != len(res.Regions) {
		t.Fatalf("streamed %d regions, result has %d", streamed, len(res.Regions))
	}
	for _, reg := range res.Regions {
		if reg.Vertices != nil {
			t.Fatal("WithoutGeometry left vertices")
		}
	}
	if res.TotalVolume() <= 0 {
		t.Fatal("WithVolumes produced no volume")
	}

	orig, err := db.KSPR(focal, 3, WithSpace(Original))
	if err != nil {
		t.Fatal(err)
	}
	if orig.Space != Original {
		t.Fatal("WithSpace(Original) ignored")
	}
}

func TestKSPRBatchMatchesSingleQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db, err := Open(randRecords(rng, 150, 3))
	if err != nil {
		t.Fatal(err)
	}
	sky := db.Skyline()
	queries := []BatchQuery{
		{FocalID: sky[0]},
		{FocalID: sky[len(sky)-1], K: 3},
		{FocalID: -1, Focal: []float64{0.9, 0.9, 0.9}},
		{FocalID: 10},
	}
	for _, c := range []struct {
		name   string
		batch  []BatchOption
		single []QueryOption
	}{
		{"P-CTA", []BatchOption{WithBatchOptions(WithAlgorithm(PCTA), WithParallelism(3))},
			[]QueryOption{WithAlgorithm(PCTA), WithParallelism(1)}},
		// No options on either side: a batch starts from KSPR's defaults.
		{"defaults", nil, nil},
	} {
		outs, err := db.KSPRBatch(queries, 6, c.batch...)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			if outs[i].Err != nil {
				t.Fatalf("%s item %d: %v", c.name, i, outs[i].Err)
			}
			k := q.K
			if k == 0 {
				k = 6
			}
			var want *Result
			if q.FocalID < 0 {
				want, err = db.KSPRVector(q.Focal, k, c.single...)
			} else {
				want, err = db.KSPR(q.FocalID, k, c.single...)
			}
			if err != nil {
				t.Fatalf("%s item %d single query: %v", c.name, i, err)
			}
			got := outs[i].Result
			if len(got.Regions) != len(want.Regions) {
				t.Fatalf("%s item %d: batch %d regions, single %d", c.name, i, len(got.Regions), len(want.Regions))
			}
			for j := range got.Regions {
				g, w := &got.Regions[j], &want.Regions[j]
				if g.Rank != w.Rank || !g.Witness.Equal(w.Witness) ||
					!slices.EqualFunc(g.Vertices, w.Vertices, geom.Vector.Equal) {
					t.Fatalf("%s item %d region %d differs", c.name, i, j)
				}
			}
		}
	}

	// Per-item failures stay per-item.
	outs, err := db.KSPRBatch([]BatchQuery{{FocalID: 0}, {FocalID: 10000}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err != nil || outs[1].Err == nil {
		t.Fatalf("want [ok, err], got [%v, %v]", outs[0].Err, outs[1].Err)
	}
}

func TestTopKAndRankConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db, err := Open(randRecords(rng, 120, 4))
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0.4, 0.3, 0.2, 0.1}
	top := db.TopK(w, 10)
	if len(top) != 10 {
		t.Fatalf("TopK returned %d ids", len(top))
	}
	for i, id := range top {
		if got := db.Rank(id, w); got != i+1 {
			t.Fatalf("record %d: TopK position %d but Rank %d", id, i+1, got)
		}
	}
}

func TestKSPRResultAgreesWithTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db, err := Open(randRecords(rng, 90, 3))
	if err != nil {
		t.Fatal(err)
	}
	focal := db.Skyline()[0]
	k := 4
	res, err := db.KSPR(focal, k)
	if err != nil {
		t.Fatal(err)
	}
	// For random weights, membership in regions must match top-k presence.
	for s := 0; s < 300; s++ {
		raw := [3]float64{rng.ExpFloat64() + 1e-9, rng.ExpFloat64() + 1e-9, rng.ExpFloat64() + 1e-9}
		sum := raw[0] + raw[1] + raw[2]
		w := []float64{raw[0] / sum, raw[1] / sum, raw[2] / sum}
		rank := db.Rank(focal, w)
		if rank == k || rank == k+1 {
			continue // ties at the boundary are fair game either way
		}
		in := res.ContainsWeight([]float64{w[0], w[1]}, 1e-9)
		if in != (rank <= k) {
			if res.ContainsWeight([]float64{w[0], w[1]}, 1e-6) != res.ContainsWeight([]float64{w[0], w[1]}, -1e-6) {
				continue
			}
			t.Fatalf("w=%v rank=%d in=%v", w, rank, in)
		}
	}
}

func TestImpactProbabilityPDF(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	db, err := Open(randRecords(rng, 70, 3))
	if err != nil {
		t.Fatal(err)
	}
	focal := db.Skyline()[0]
	res, err := db.KSPR(focal, 5)
	if err != nil {
		t.Fatal(err)
	}
	uniform := db.ImpactProbability(res, 30000, 9)
	viaPDF := db.ImpactProbabilityPDF(res, func([]float64) float64 { return 2.5 }, 30000, 9)
	if math.Abs(uniform-viaPDF) > 1e-12 {
		t.Fatalf("constant pdf must match uniform: %v vs %v", uniform, viaPDF)
	}
	if uniform < 0 || uniform > 1 {
		t.Fatalf("probability %v out of range", uniform)
	}
	// A pdf concentrated on a witness region should raise the probability.
	if len(res.Regions) > 0 {
		wit := res.Regions[0].Witness
		peaked := db.ImpactProbabilityPDF(res, func(w []float64) float64 {
			d := 0.0
			for j := range wit {
				d += (w[j] - wit[j]) * (w[j] - wit[j])
			}
			return math.Exp(-50 * d)
		}, 30000, 9)
		if peaked <= uniform {
			t.Fatalf("pdf peaked inside a region should exceed uniform: %v <= %v", peaked, uniform)
		}
	}
}

// TestImpactProbabilityMatchesExactVolumes cross-checks the Monte-Carlo
// membership estimate against ground truth: for d=3 data the transformed
// preference space is 2-dimensional, where region volumes are computed
// exactly (polygon areas), so the result's total volume divided by the
// simplex measure (1/2) IS the impact probability. The estimate must agree
// within the documented O(1/sqrt(samples)) bound; the tolerance below is
// ~4 standard deviations of the binomial estimator, so a systematic bias
// in either the sampler or the volume sums trips it.
func TestImpactProbabilityMatchesExactVolumes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	db, err := Open(randRecords(rng, 80, 3))
	if err != nil {
		t.Fatal(err)
	}
	const samples = 40000
	for _, focal := range []int{db.Skyline()[0], db.KSkyband(5)[2]} {
		res, err := db.KSPR(focal, 5, WithVolumes(samples))
		if err != nil {
			t.Fatal(err)
		}
		exact := res.TotalVolume() / 0.5 // simplex {w>=0, w1+w2<=1} has area 1/2
		if exact < 0 || exact > 1+1e-9 {
			t.Fatalf("exact volume share %v out of range", exact)
		}
		mc := db.ImpactProbability(res, samples, 31)
		tol := 4 * math.Sqrt(exact*(1-exact)/samples+1e-12)
		if math.Abs(mc-exact) > tol+1e-6 {
			t.Fatalf("focal %d: Monte-Carlo impact %v vs exact volume share %v (tol %v)",
				focal, mc, exact, tol)
		}
	}
}

// Region volumes are exact for preference spaces of up to 3 dimensions
// (WithVolumes' contract): on d=4 data neither the Monte-Carlo sample
// count nor the seed may move any region's volume.
func TestVolumesExactUpTo3DPreferenceSpaces(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	db, err := Open(randRecords(rng, 150, 4))
	if err != nil {
		t.Fatal(err)
	}
	measured := 0
	for _, focal := range db.KSkyband(5)[:4] {
		a, err := db.KSPR(focal, 5, WithVolumes(100), WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		b, err := db.KSPR(focal, 5, WithVolumes(5000), WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Regions) != len(b.Regions) {
			t.Fatalf("focal %d: %d regions, then %d", focal, len(a.Regions), len(b.Regions))
		}
		for i := range a.Regions {
			if va, vb := a.Regions[i].Volume, b.Regions[i].Volume; va != vb {
				t.Fatalf("focal %d region %d: volume %v with 100 samples (seed 1), %v with 5000 (seed 7)",
					focal, i, va, vb)
			}
			if a.Regions[i].Volume > 0 {
				measured++
			}
		}
	}
	if measured == 0 {
		t.Fatal("no region had a positive volume")
	}
}

func TestSkybandContainsSkyline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db, err := Open(randRecords(rng, 150, 3))
	if err != nil {
		t.Fatal(err)
	}
	sky := db.Skyline()
	band := db.KSkyband(3)
	set := map[int]bool{}
	for _, id := range band {
		set[id] = true
	}
	for _, id := range sky {
		if !set[id] {
			t.Fatalf("skyline record %d missing from 3-skyband", id)
		}
	}
	if len(band) < len(sky) {
		t.Fatal("3-skyband smaller than skyline")
	}
}
