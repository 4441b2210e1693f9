package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// bruteRank computes the rank of focal under the lifted weight vector w
// (original d-dimensional weights): 1 + number of records scoring strictly
// higher. Records equal to focal (ties) and the focal itself are ignored,
// matching the paper's tie handling. It reports ok=false when some score is
// within eps of the focal score (the point is too close to a boundary for a
// reliable oracle).
func bruteRank(recs []geom.Vector, focal geom.Vector, focalID int, w geom.Vector, eps float64) (int, bool) {
	ps := focal.Dot(w)
	rank := 1
	for id, rec := range recs {
		if id == focalID || rec.Equal(focal) {
			continue
		}
		diff := rec.Dot(w) - ps
		if math.Abs(diff) < eps {
			return 0, false
		}
		if diff > 0 {
			rank++
		}
	}
	return rank, true
}

func randSimplexPoint(rng *rand.Rand, dPref int) geom.Vector {
	raw := make([]float64, dPref+1)
	var sum float64
	for i := range raw {
		raw[i] = rng.ExpFloat64() + 1e-9
		sum += raw[i]
	}
	w := make(geom.Vector, dPref)
	for i := range w {
		w[i] = raw[i] / sum
	}
	return w
}

// checkOracle verifies the defining property of a kSPR result: a weight
// vector is inside some region iff the focal record ranks within the top k
// there. Regions may be expressed in either space.
func checkOracle(t *testing.T, res *Result, recs []geom.Vector, focal geom.Vector, focalID, k int, rng *rand.Rand, samples int) {
	t.Helper()
	dPref := len(focal) - 1
	for s := 0; s < samples; s++ {
		wt := randSimplexPoint(rng, dPref)
		w := geom.Lift(wt)
		rank, ok := bruteRank(recs, focal, focalID, w, 1e-9)
		if !ok {
			continue
		}
		probe := wt
		if res.Space == Original {
			probe = w
		}
		in := res.ContainsWeight(probe, 1e-9)
		// Points within tolerance of a region boundary can legitimately
		// flip; retest with a strict margin before failing.
		if in != (rank <= k) {
			if res.ContainsWeight(probe, 1e-6) != res.ContainsWeight(probe, -1e-6) {
				continue // too close to a boundary to judge
			}
			t.Fatalf("oracle violation at wt=%v: rank=%d k=%d inRegions=%v (algo=%v space=%v)",
				wt, rank, k, in, res.Stats, res.Space)
		}
	}
}

// checkRegionRanks compares the rank every exact-rank region claims with
// the brute-force rank at perRegion random convex combinations of its
// vertices, points strictly inside it. A cell reported while a
// competitor's hyperplane still cuts it fails here even when the union of
// the regions, all checkOracle samples, is right. Regions need their
// vertices (FinalizeGeometry) and transformed-space coordinates.
func checkRegionRanks(t *testing.T, res *Result, recs []geom.Vector, focal geom.Vector, focalID int, rng *rand.Rand, perRegion int) {
	t.Helper()
	for i, reg := range res.Regions {
		if !reg.RankExact {
			continue
		}
		for s := 0; s < perRegion; s++ {
			wt := make(geom.Vector, len(focal)-1)
			var sum float64
			for _, v := range reg.Vertices {
				c := rng.ExpFloat64()
				sum += c
				for j := range wt {
					wt[j] += c * v[j]
				}
			}
			for j := range wt {
				wt[j] /= sum
			}
			if rank, ok := bruteRank(recs, focal, focalID, geom.Lift(wt), 1e-9); ok && rank != reg.Rank {
				t.Fatalf("region %d claims rank %d, rank is %d at its interior point %v", i, reg.Rank, rank, wt)
			}
		}
	}
}

func buildIND(t *testing.T, n, d int, seed int64) (*rtree.Tree, []geom.Vector) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Independent, n, d, seed)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rtree.Build(ds.Records, rtree.WithFanout(16))
	if err != nil {
		t.Fatal(err)
	}
	return tr, ds.Records
}

func TestRunValidation(t *testing.T) {
	tr, _ := buildIND(t, 10, 3, 1)
	if _, err := Run(tr, geom.Vector{0.5, 0.5, 0.5}, -1, Options{K: 0}); err == nil {
		t.Fatal("expected error for K=0")
	}
	if _, err := Run(tr, geom.Vector{0.5, 0.5}, -1, Options{K: 1}); err == nil {
		t.Fatal("expected error for dim mismatch")
	}
}

func TestOracleAllAlgorithmsTransformed(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	for _, algo := range []Algorithm{CTA, PCTA, LPCTA, KSkybandCTA} {
		for _, d := range []int{2, 3, 4} {
			n := 60
			tr, recs := buildIND(t, n, d, int64(d)*17)
			focalID := rng.Intn(n)
			k := 1 + rng.Intn(6)
			res, err := Run(tr, recs[focalID], focalID, Options{K: k, Algorithm: algo})
			if err != nil {
				t.Fatalf("%v d=%d: %v", algo, d, err)
			}
			checkOracle(t, res, recs, recs[focalID], focalID, k, rng, 300)
		}
	}
}

func TestOracleOriginalSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(700))
	for _, algo := range []Algorithm{PCTA, LPCTA} {
		// At d=4 original-space cells carry no vertices, so LP-CTA's
		// slice bounds run on LPs.
		for _, d := range []int{2, 3, 4} {
			n := 50
			tr, recs := buildIND(t, n, d, int64(d)*29)
			focalID := rng.Intn(n)
			k := 1 + rng.Intn(5)
			res, err := Run(tr, recs[focalID], focalID, Options{K: k, Algorithm: algo, Space: Original})
			if err != nil {
				t.Fatalf("O%v d=%d: %v", algo, d, err)
			}
			if res.Space != Original {
				t.Fatal("result space not original")
			}
			checkOracle(t, res, recs, recs[focalID], focalID, k, rng, 200)
		}
	}
}

func TestOracleAcrossDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(900))
	for _, dist := range []dataset.Distribution{dataset.Independent, dataset.Correlated, dataset.Anticorrelated} {
		ds, err := dataset.Generate(dist, 80, 3, 11)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := rtree.Build(ds.Records, rtree.WithFanout(16))
		if err != nil {
			t.Fatal(err)
		}
		focalID := 7
		res, err := Run(tr, ds.Records[focalID], focalID, Options{K: 5, Algorithm: LPCTA})
		if err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
		checkOracle(t, res, ds.Records, ds.Records[focalID], focalID, 5, rng, 300)
	}
}

// deepFocals returns IND n=1000, d=4 (seed 1) and three focals spread
// evenly over its 5-skyband in id order. Their queries have about 230
// candidates, so the reportability test's bitsets span four words.
func deepFocals(t *testing.T) (*rtree.Tree, []geom.Vector, []int) {
	t.Helper()
	tr, recs := buildIND(t, 1000, 4, 1)
	band := tr.KSkybandExcluding(5, -1)
	focals := make([]int, 3)
	for i := range focals {
		focals[i] = band[(2*i+1)*len(band)/(2*len(focals))]
	}
	return tr, recs, focals
}

// TestOraclePastOneBitsetWord runs the progressive algorithms on queries
// with more than 64 candidates; every other oracle test has fewer. A
// reportability test that misses an escapee mostly reports a cell some
// hyperplane still cuts, so the region ranks are checked too.
func TestOraclePastOneBitsetWord(t *testing.T) {
	rng := rand.New(rand.NewSource(1300))
	tr, recs, focals := deepFocals(t)
	for _, focalID := range focals {
		for _, algo := range []Algorithm{PCTA, LPCTA} {
			for _, par := range []int{1, 2} {
				res, err := Run(tr, recs[focalID], focalID, Options{K: 5, Algorithm: algo, Parallelism: par, FinalizeGeometry: true})
				if err != nil {
					t.Fatalf("%v focal %d: %v", algo, focalID, err)
				}
				checkOracle(t, res, recs, recs[focalID], focalID, 5, rng, 400)
				checkRegionRanks(t, res, recs, recs[focalID], focalID, rng, 8)
			}
		}
	}
}

// TestProgressiveWorkPinned pins the progressive engine's work on fixed
// queries, at parallelism 1 and 2. A reportability test that never
// reports early still returns correct answers, so only the counts show it;
// the same holds for look-ahead bounds that decide fewer cells, in either
// space and every bound mode. An original-space query does the transformed
// one's work: its cells are bounded over their Σw = 1 slices, which at d=4
// carry no vertices, so only its LP count differs.
func TestProgressiveWorkPinned(t *testing.T) {
	tr, recs, focals := deepFocals(t)
	if !slices.Equal(focals, []int{177, 495, 842}) {
		t.Fatalf("focals %v, want [177 495 842]", focals)
	}
	work := func(s Stats) Stats {
		return Stats{
			ProcessedRecords: s.ProcessedRecords, CellTreeNodes: s.CellTreeNodes, Batches: s.Batches,
			DomShortcuts: s.DomShortcuts, CellsPruned: s.CellsPruned, RankBoundCells: s.RankBoundCells,
			EarlyReported: s.EarlyReported, EarlyPruned: s.EarlyPruned, LPSolves: s.LPSolves,
		}
	}
	lpcta495 := Stats{ProcessedRecords: 107, CellTreeNodes: 395, Batches: 3, DomShortcuts: 4, CellsPruned: 222,
		RankBoundCells: 94, EarlyPruned: 57}
	for _, c := range []struct {
		focal  int
		algo   Algorithm
		space  Space
		bounds BoundsMode
		want   Stats
	}{
		{177, PCTA, Transformed, FastBounds, Stats{ProcessedRecords: 20, CellTreeNodes: 17, Batches: 1, CellsPruned: 9}},
		{177, LPCTA, Transformed, FastBounds, Stats{ProcessedRecords: 20, CellTreeNodes: 17, Batches: 1, CellsPruned: 9}},
		{495, PCTA, Transformed, FastBounds, Stats{ProcessedRecords: 107, CellTreeNodes: 397, Batches: 3, DomShortcuts: 4,
			CellsPruned: 168}},
		{495, LPCTA, Transformed, FastBounds, lpcta495},
		{495, LPCTA, Original, FastBounds, lpcta495},
		{842, PCTA, Transformed, FastBounds, Stats{ProcessedRecords: 122, CellTreeNodes: 957, Batches: 2, DomShortcuts: 52,
			CellsPruned: 379}},
		{842, LPCTA, Transformed, FastBounds, Stats{ProcessedRecords: 122, CellTreeNodes: 957, Batches: 2, DomShortcuts: 52,
			CellsPruned: 461, RankBoundCells: 220, EarlyReported: 1, EarlyPruned: 83}},
		{842, LPCTA, Transformed, GroupBounds, Stats{ProcessedRecords: 122, CellTreeNodes: 957, Batches: 2, DomShortcuts: 52,
			CellsPruned: 461, RankBoundCells: 220, EarlyReported: 1, EarlyPruned: 83}},
		{842, LPCTA, Transformed, RecordBounds, Stats{ProcessedRecords: 122, CellTreeNodes: 957, Batches: 2, DomShortcuts: 52,
			CellsPruned: 461, RankBoundCells: 220, EarlyReported: 1, EarlyPruned: 83}},
	} {
		for _, par := range []int{1, 2} {
			res, err := Run(tr, recs[c.focal], c.focal, Options{K: 5, Algorithm: c.algo, Space: c.space, Bounds: c.bounds,
				Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			got := work(res.Stats)
			if c.space == Original {
				got.LPSolves = 0
			}
			if got != c.want {
				t.Errorf("%v %v %v focal %d parallelism %d: work %+v, want %+v", c.algo, c.space, c.bounds, c.focal, par,
					got, c.want)
			}
		}
	}
}

func TestEmptyResultWhenDominatedByK(t *testing.T) {
	// Focal record dominated by 3 records; k=2 -> empty result.
	recs := []geom.Vector{
		{0.9, 0.9}, {0.8, 0.95}, {0.95, 0.8},
		{0.5, 0.5}, // focal
		{0.1, 0.2},
	}
	tr, err := rtree.Build(recs, rtree.WithFanout(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{CTA, PCTA, LPCTA} {
		res, err := Run(tr, recs[3], 3, Options{K: 2, Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Regions) != 0 {
			t.Fatalf("%v: got %d regions, want empty", algo, len(res.Regions))
		}
		if res.Stats.BaseRank != 3 {
			t.Fatalf("%v: BaseRank = %d, want 3", algo, res.Stats.BaseRank)
		}
	}
}

func TestWholeSpaceWhenKGEQN(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tr, recs := buildIND(t, 20, 3, 3)
	focalID := 4
	res, err := Run(tr, recs[focalID], focalID, Options{K: 25, Algorithm: LPCTA})
	if err != nil {
		t.Fatal(err)
	}
	// Every weight vector must be covered: rank can never exceed n <= k.
	for s := 0; s < 200; s++ {
		wt := randSimplexPoint(rng, 2)
		if !res.ContainsWeight(wt, 1e-9) {
			t.Fatalf("weight %v not covered although k >= n", wt)
		}
	}
}

// tieGrid is a small integer-grid dataset (coordinates in quarters)
// around its first record, the focal: exact duplicates of the focal,
// records within geom.Eps of it, its dominators, records it dominates,
// and random grid points full of ties among themselves.
func tieGrid() []geom.Vector {
	recs := []geom.Vector{
		{0.75, 0.5, 0.75},                    // focal
		{0.75, 0.5, 0.75}, {0.75, 0.5, 0.75}, // exact duplicates
		{0.75 + 4e-10, 0.5, 0.75 - 4e-10}, // within Eps, incomparable
		{0.75, 0.5 - 6e-10, 0.75},         // within Eps, dominated
		{1, 0.5, 0.75}, {0.75, 0.75, 1},   // dominators
		{0.5, 0.5, 0.5}, {0.75, 0.25, 0.75}, {0, 0, 0.5}, // dominated
	}
	rng := rand.New(rand.NewSource(77))
	for len(recs) < 40 {
		v := make(geom.Vector, 3)
		for j := range v {
			v[j] = float64(rng.Intn(5)) / 4
		}
		recs = append(recs, v)
	}
	return recs
}

// TestTiesAreIgnored runs focals with ties through every engine path,
// both as a dataset record and as a hypothetical vector. The per-record
// skip predicate must equal the brute-force set: exact ties are
// skipped, records merely within geom.Eps of the focal are not (the
// grid's near-ties have degenerate hyperplanes, so the arrangement
// ignores them anyway).
// Every algorithm at parallelism 1 and 2 must agree with the rank
// oracle, which ignores ties as the paper does.
func TestTiesAreIgnored(t *testing.T) {
	for _, c := range []struct {
		name string
		recs []geom.Vector
		k    int
	}{
		{"duplicates", []geom.Vector{
			{0.5, 0.5, 0.5}, // focal
			{0.5, 0.5, 0.5}, // tie
			{0.5, 0.5, 0.5}, // tie
			{0.9, 0.1, 0.4},
			{0.1, 0.9, 0.4},
		}, 1},
		{"grid", tieGrid(), 9},
	} {
		tr, err := rtree.Build(c.recs, rtree.WithFanout(4))
		if err != nil {
			t.Fatal(err)
		}
		focal := c.recs[0]
		for _, focalID := range []int{0, -1} {
			r := &runner{tree: tr, focal: focal, focalID: focalID}
			for id, rec := range c.recs {
				tie := id == focalID || slices.Equal(rec, focal)
				wantSkip := tie || geom.Dominates(rec, focal) || geom.Dominates(focal, rec)
				if r.skip(id) != wantSkip {
					t.Fatalf("%s focal %d record %d: skip %v, want %v", c.name, focalID, id, r.skip(id), wantSkip)
				}
			}
			rng := rand.New(rand.NewSource(5))
			for _, algo := range []Algorithm{CTA, PCTA, LPCTA, KSkybandCTA} {
				for _, par := range []int{1, 2} {
					res, err := Run(tr, focal, focalID, Options{K: c.k, Algorithm: algo, Parallelism: par})
					if err != nil {
						t.Fatalf("%s focal %d %v p=%d: %v", c.name, focalID, algo, par, err)
					}
					if len(res.Regions) == 0 {
						t.Fatalf("%s focal %d %v p=%d: empty result", c.name, focalID, algo, par)
					}
					checkOracle(t, res, c.recs, focal, focalID, c.k, rng, 300)
				}
			}
		}
	}
}

func TestFocalNotInDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tr, recs := buildIND(t, 50, 3, 13)
	focal := geom.Vector{0.6, 0.55, 0.5}
	res, err := Run(tr, focal, -1, Options{K: 4, Algorithm: LPCTA})
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, res, recs, focal, -1, 4, rng, 300)
}

func TestAlgorithmsAgreeOnVolume(t *testing.T) {
	tr, recs := buildIND(t, 70, 3, 23)
	focalID := 11
	var vols []float64
	for _, algo := range []Algorithm{CTA, PCTA, LPCTA, KSkybandCTA} {
		res, err := Run(tr, recs[focalID], focalID, Options{
			K: 4, Algorithm: algo, ComputeVolumes: true, VolumeSamples: 4000, Seed: 7,
		})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		vols = append(vols, res.TotalVolume())
	}
	for i := 1; i < len(vols); i++ {
		if math.Abs(vols[i]-vols[0]) > 0.02*(1+vols[0]) {
			t.Fatalf("volumes disagree: %v", vols)
		}
	}
}

func TestProgressiveCallback(t *testing.T) {
	tr, recs := buildIND(t, 80, 3, 29)
	var streamed int
	res, err := Run(tr, recs[3], 3, Options{
		K: 5, Algorithm: LPCTA,
		OnRegion: func(Region) { streamed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed != len(res.Regions) {
		t.Fatalf("callback saw %d regions, result has %d", streamed, len(res.Regions))
	}
}

func TestPCTAProcessesFewerRecordsThanCTA(t *testing.T) {
	tr, recs := buildIND(t, 400, 4, 37)
	focalID := 17
	opts := Options{K: 5}
	opts.Algorithm = CTA
	ctaRes, err := Run(tr, recs[focalID], focalID, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Algorithm = PCTA
	pctaRes, err := Run(tr, recs[focalID], focalID, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Algorithm = KSkybandCTA
	bandRes, err := Run(tr, recs[focalID], focalID, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pctaRes.Stats.ProcessedRecords >= ctaRes.Stats.ProcessedRecords {
		t.Fatalf("P-CTA processed %d records, CTA %d — pruning ineffective",
			pctaRes.Stats.ProcessedRecords, ctaRes.Stats.ProcessedRecords)
	}
	if pctaRes.Stats.ProcessedRecords > bandRes.Stats.ProcessedRecords {
		t.Fatalf("P-CTA processed %d > k-skyband %d", pctaRes.Stats.ProcessedRecords, bandRes.Stats.ProcessedRecords)
	}
	// The k-skyband filter (Lemma 6) drops records CTA inserts.
	if bandRes.Stats.ProcessedRecords >= ctaRes.Stats.ProcessedRecords {
		t.Fatalf("k-skyband %d >= CTA %d", bandRes.Stats.ProcessedRecords, ctaRes.Stats.ProcessedRecords)
	}
}

func TestLPCTAEarlyDecisions(t *testing.T) {
	tr, recs := buildIND(t, 400, 4, 43)
	// Use a skyline record as focal so the result is non-trivial.
	focalID := tr.Skyline()[0]
	res, err := Run(tr, recs[focalID], focalID, Options{K: 5, Algorithm: LPCTA})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RankBoundCells == 0 {
		t.Fatal("LP-CTA computed no rank bounds")
	}
	if res.Stats.EarlyReported+res.Stats.EarlyPruned == 0 {
		t.Fatal("look-ahead bounds never decided a cell")
	}
}

func TestFinalizedGeometryMatchesConstraints(t *testing.T) {
	tr, recs := buildIND(t, 60, 3, 47)
	res, err := Run(tr, recs[5], 5, Options{K: 3, Algorithm: LPCTA, FinalizeGeometry: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) == 0 {
		t.Skip("empty result for this focal record")
	}
	for _, reg := range res.Regions {
		if len(reg.Vertices) < 3 {
			t.Fatalf("region with %d vertices in 2-d preference space", len(reg.Vertices))
		}
		for _, v := range reg.Vertices {
			if !reg.Contains(v, 1e-6) {
				t.Fatalf("vertex %v outside its own region", v)
			}
		}
		if reg.Witness == nil || !reg.Contains(reg.Witness, 1e-9) {
			t.Fatalf("witness %v not inside region", reg.Witness)
		}
	}
}

func TestBoundsModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	tr, recs := buildIND(t, 120, 3, 59)
	focalID := 21
	var results []*Result
	for _, mode := range []BoundsMode{FastBounds, GroupBounds, RecordBounds} {
		res, err := Run(tr, recs[focalID], focalID, Options{K: 4, Algorithm: LPCTA, Bounds: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		results = append(results, res)
	}
	for _, res := range results {
		checkOracle(t, res, recs, recs[focalID], focalID, 4, rng, 200)
	}
}

// TestOriginalSpaceBoundsMatchTransformed checks that OLP-CTA's look-ahead
// decides what LP-CTA's does: an original-space cell is bounded over its
// Σw = 1 slice, which is the transformed-space cell, so in every bound
// mode and at parallelism 1 and 2 both spaces build the same cell tree,
// bound, prune and report the same cells, and return as many regions.
func TestOriginalSpaceBoundsMatchTransformed(t *testing.T) {
	const k = 5
	decisions := func(res *Result) [6]int {
		s := res.Stats
		return [6]int{s.CellTreeNodes, s.RankBoundCells, s.EarlyPruned, s.EarlyReported, s.CellsPruned, len(res.Regions)}
	}
	decided := 0
	for _, dist := range []dataset.Distribution{dataset.Independent, dataset.Correlated, dataset.Anticorrelated} {
		// d=4 is smaller: there original-space cells carry no vertices,
		// so their feasibility tests and bounds are all LPs.
		for _, size := range []struct{ d, n int }{{2, 80}, {3, 120}, {4, 60}} {
			d := size.d
			ds, err := dataset.Generate(dist, size.n, d, int64(d)*31)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := rtree.Build(ds.Records, rtree.WithFanout(8))
			if err != nil {
				t.Fatal(err)
			}
			band := tr.KSkybandExcluding(k, -1)
			for _, focalID := range []int{band[len(band)/3], band[2*len(band)/3]} {
				for _, mode := range []BoundsMode{FastBounds, GroupBounds, RecordBounds} {
					for _, par := range []int{1, 2} {
						opts := Options{K: k, Algorithm: LPCTA, Bounds: mode, Parallelism: par}
						trans, err := Run(tr, ds.Records[focalID], focalID, opts)
						if err != nil {
							t.Fatal(err)
						}
						opts.Space = Original
						orig, err := Run(tr, ds.Records[focalID], focalID, opts)
						if err != nil {
							t.Fatal(err)
						}
						if got, want := decisions(orig), decisions(trans); got != want {
							t.Errorf("%s d=%d focal %d %v parallelism %d: original [nodes bound pruned reported "+
								"cellsPruned regions] %v, transformed %v", dist, d, focalID, mode, par, got, want)
						}
						decided += trans.Stats.EarlyPruned + trans.Stats.EarlyReported
					}
				}
			}
		}
	}
	if decided == 0 {
		t.Fatal("the look-ahead decided no cell in the panel")
	}
}

func TestRegionRanksAreConsistent(t *testing.T) {
	tr, recs := buildIND(t, 80, 3, 61)
	res, err := Run(tr, recs[13], 13, Options{K: 5, Algorithm: PCTA})
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range res.Regions {
		if reg.Rank < 1 || reg.Rank > 5 {
			t.Fatalf("region rank %d outside [1, k]", reg.Rank)
		}
		if reg.RankExact && reg.Witness != nil {
			// Verify the exact rank at the witness.
			w := geom.Lift(reg.Witness)
			rank, ok := bruteRank(recs, recs[13], 13, w, 1e-12)
			if ok && rank != reg.Rank {
				t.Fatalf("region claims rank %d, witness has rank %d", reg.Rank, rank)
			}
		}
	}
}

func TestParallelBoundsMatchSerial(t *testing.T) {
	tr, recs := buildIND(t, 600, 4, 67)
	focalID := tr.Skyline()[0]
	serial, err := Run(tr, recs[focalID], focalID, Options{K: 8, Algorithm: LPCTA, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(tr, recs[focalID], focalID, Options{K: 8, Algorithm: LPCTA, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Regions) != len(parallel.Regions) {
		t.Fatalf("serial %d regions, parallel %d", len(serial.Regions), len(parallel.Regions))
	}
	for i := range serial.Regions {
		if serial.Regions[i].Rank != parallel.Regions[i].Rank {
			t.Fatalf("region %d rank differs: %d vs %d",
				i, serial.Regions[i].Rank, parallel.Regions[i].Rank)
		}
		if !serial.Regions[i].Witness.Equal(parallel.Regions[i].Witness) {
			t.Fatalf("region %d witness differs", i)
		}
	}
	if serial.Stats.EarlyReported != parallel.Stats.EarlyReported ||
		serial.Stats.EarlyPruned != parallel.Stats.EarlyPruned {
		t.Fatalf("decision counts differ: serial %+v parallel %+v",
			serial.Stats, parallel.Stats)
	}
}

func TestOracleOriginalSpaceCTAVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1100))
	for _, algo := range []Algorithm{CTA, KSkybandCTA} {
		tr, recs := buildIND(t, 40, 3, 71)
		focalID := tr.Skyline()[0]
		res, err := Run(tr, recs[focalID], focalID, Options{K: 3, Algorithm: algo, Space: Original})
		if err != nil {
			t.Fatalf("O-%v: %v", algo, err)
		}
		checkOracle(t, res, recs, recs[focalID], focalID, 3, rng, 200)
	}
}

func TestStatsElapsedAndRegions(t *testing.T) {
	tr, recs := buildIND(t, 60, 3, 73)
	focalID := tr.Skyline()[0]
	res, err := Run(tr, recs[focalID], focalID, Options{K: 3, Algorithm: LPCTA})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Elapsed <= 0 {
		t.Fatal("Elapsed not recorded")
	}
	if res.Stats.Regions != len(res.Regions) {
		t.Fatalf("Stats.Regions %d != len(Regions) %d", res.Stats.Regions, len(res.Regions))
	}
	if res.Stats.CellTreeNodes <= 0 {
		t.Fatal("CellTreeNodes not recorded")
	}
}

func TestAlgorithmStringer(t *testing.T) {
	for algo, want := range map[Algorithm]string{
		CTA: "CTA", PCTA: "P-CTA", LPCTA: "LP-CTA", KSkybandCTA: "k-skyband",
	} {
		if algo.String() != want {
			t.Fatalf("%d.String() = %q, want %q", algo, algo.String(), want)
		}
	}
	if Algorithm(99).String() == "" {
		t.Fatal("unknown algorithm must still format")
	}
	if Transformed.String() != "transformed" || Original.String() != "original" {
		t.Fatal("Space.String broken")
	}
	if FastBounds.String() != "fast_bounds" || GroupBounds.String() != "group_bounds" ||
		RecordBounds.String() != "record_bounds" {
		t.Fatal("BoundsMode.String broken")
	}
}
