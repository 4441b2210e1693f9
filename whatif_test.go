package kspr

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
)

// whatifAlgos is the full algorithm matrix the what-if invariants must
// hold on.
var whatifAlgos = []struct {
	name string
	algo Algorithm
}{
	{"CTA", CTA},
	{"P-CTA", PCTA},
	{"LP-CTA", LPCTA},
	{"k-skyband", KSkybandCTA},
}

// whatifRecords builds a randomized dataset whose record 0 is deliberately
// mid-pack, so its baseline impact is neither 0 nor 1 and a reprice search
// has room in both directions.
func whatifRecords(seed int64, n, d int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	recs := make([][]float64, n)
	for i := range recs {
		recs[i] = make([]float64, d)
		for j := range recs[i] {
			recs[i][j] = rng.Float64()
		}
	}
	for j := range recs[0] {
		recs[0][j] = 0.35 + 0.25*rng.Float64()
	}
	return recs
}

// coldImpactAt opens a fresh DB with the focal's attribute shifted by
// delta and measures the impact the long way: cold kSPR plus the standard
// Monte-Carlo membership estimate.
func coldImpactAt(t *testing.T, recs [][]float64, focal, k, attr int, delta float64,
	samples int, seed int64, opts ...QueryOption) float64 {
	t.Helper()
	mod := make([][]float64, len(recs))
	for i := range recs {
		mod[i] = append([]float64(nil), recs[i]...)
	}
	mod[focal][attr] += delta
	db, err := Open(mod)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	res, err := db.KSPR(focal, k, opts...)
	if err != nil {
		t.Fatalf("cold kSPR: %v", err)
	}
	return db.ImpactProbability(res, samples, seed)
}

// TestPriceToTargetMatchesColdRecompute is the what-if subsystem's pinned
// correctness invariant: across randomized datasets, all four exact
// algorithms and both preference spaces, the bisection's returned price
// reaches the target under a cold recompute on a fresh DB, the failing
// bracket (price - eps) does not, and the impacts the search reports at
// the current price, at the returned price and at the failing bracket
// equal the cold recompute's exactly.
func TestPriceToTargetMatchesColdRecompute(t *testing.T) {
	const (
		n, d, k = 40, 3, 3
		samples = 3000
		mcSeed  = int64(42)
	)
	for _, space := range []Space{Transformed, Original} {
		for _, a := range whatifAlgos {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/%v/seed %d", a.name, space, seed)
				recs := whatifRecords(seed, n, d)
				db, err := Open(recs)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				opts := []QueryOption{WithAlgorithm(a.algo), WithSpace(space), WithoutGeometry()}
				baseline := coldImpactAt(t, recs, 0, k, 0, 0, samples, mcSeed, opts...)
				target := baseline + 0.2
				if target > 0.9 {
					target = (baseline + 1) / 2
				}
				spec := RepriceSpec{Attr: 0, Target: target, Eps: 1e-4, Samples: samples, Seed: mcSeed}
				rp, err := db.PriceToTarget(0, k, spec, opts...)
				if err != nil {
					t.Fatalf("%s: PriceToTarget: %v", name, err)
				}
				if rp.AlreadyMet {
					t.Fatalf("%s: target %.4f unexpectedly already met (baseline %.4f)",
						name, target, rp.Baseline)
				}
				if rp.Baseline != baseline {
					t.Fatalf("%s: baseline %.6f != cold impact %.6f at the current price",
						name, rp.Baseline, baseline)
				}
				if rp.Delta <= 0 {
					t.Fatalf("%s: non-positive delta %g", name, rp.Delta)
				}
				if rp.Delta-rp.LowerDelta > spec.Eps*1.01 {
					t.Fatalf("%s: bracket [%g, %g] wider than eps %g",
						name, rp.LowerDelta, rp.Delta, spec.Eps)
				}
				cold := coldImpactAt(t, recs, 0, k, 0, rp.Delta, samples, mcSeed, opts...)
				if cold < target {
					t.Fatalf("%s: cold recompute at delta %g gives impact %.4f < target %.4f",
						name, rp.Delta, cold, target)
				}
				if cold != rp.Impact {
					t.Fatalf("%s: probe impact %.6f != cold impact %.6f", name, rp.Impact, cold)
				}
				coldLow := coldImpactAt(t, recs, 0, k, 0, rp.LowerDelta, samples, mcSeed, opts...)
				if coldLow >= target {
					t.Fatalf("%s: cold recompute at the failing bracket %g reaches the target (%.4f >= %.4f)",
						name, rp.LowerDelta, coldLow, target)
				}
				if coldLow != rp.LowerImpact {
					t.Fatalf("%s: failing-bracket impact %.6f != cold impact %.6f at delta %g",
						name, rp.LowerImpact, coldLow, rp.LowerDelta)
				}
				if rp.Stats.Probes < 3 || rp.Stats.Probes != rp.Stats.Kept+rp.Stats.Recomputed {
					t.Fatalf("%s: probes must partition into kept+recomputed: %+v", name, rp.Stats)
				}
			}
		}
	}
}

// TestPriceToTargetKeepsDominatedProbes pins that reprice probes at
// hopeless prices are kept: starting from a deeply dominated focal, the
// engine answers the bisection's low-side probes from its dominator count,
// before any cell-tree work.
func TestPriceToTargetKeepsDominatedProbes(t *testing.T) {
	// The competitors dominate the focal until its first attribute clears
	// ~1.45, which is past the bisection's first midpoint (MaxDelta/2 = 1),
	// so the low side of the search probes provably-empty prices.
	recs := [][]float64{
		{0.05, 0.5, 0.5},
		{1.5, 0.55, 0.55},
		{1.45, 0.6, 0.6},
	}
	db, err := Open(recs)
	if err != nil {
		t.Fatal(err)
	}
	spec := RepriceSpec{Attr: 0, Target: 0.5, MaxDelta: 2, Eps: 1e-3, Samples: 2000, Seed: 7}
	rp, err := db.PriceToTarget(0, 2, spec, WithoutGeometry())
	if err != nil {
		t.Fatalf("PriceToTarget: %v", err)
	}
	if rp.Stats.Kept == 0 {
		t.Fatalf("expected dominated probes on the keep path, got stats %+v", rp.Stats)
	}
	if rp.Stats.KeepRate <= 0 {
		t.Fatalf("keep rate not recorded: %+v", rp.Stats)
	}
	if rp.Impact < spec.Target {
		t.Fatalf("returned impact %.4f below target", rp.Impact)
	}
}

// TestFrontierKeepRateAndColdAgreement pins the frontier acceptance
// criteria: grid points in dominated territory are answered from the
// dominator count (keep-rate > 0), the curve is nondecreasing under
// the shared sample set, and every point, kept or engine-computed, agrees
// exactly with a cold recompute of the repriced dataset.
func TestFrontierKeepRateAndColdAgreement(t *testing.T) {
	recs := whatifRecords(5, 30, 3)
	db, err := Open(recs)
	if err != nil {
		t.Fatal(err)
	}
	const k, samples, seed = 3, 2000, int64(9)
	spec := FrontierSpec{Attr: 0, Min: 0.01, Max: 1.4, Steps: 8, Samples: samples, Seed: seed}
	curve, err := db.Frontier(0, k, spec, WithoutGeometry())
	if err != nil {
		t.Fatalf("Frontier: %v", err)
	}
	if len(curve.Points) != spec.Steps {
		t.Fatalf("got %d points, want %d", len(curve.Points), spec.Steps)
	}
	if curve.Stats.Kept == 0 || curve.Stats.KeepRate <= 0 {
		t.Fatalf("frontier reported no keep-path probes: %+v", curve.Stats)
	}
	if curve.Stats.Recomputed == 0 {
		t.Fatalf("frontier never exercised the engine: %+v", curve.Stats)
	}
	for i := 1; i < len(curve.Points); i++ {
		if curve.Points[i].Impact < curve.Points[i-1].Impact {
			t.Fatalf("impact curve decreased at point %d: %.4f -> %.4f",
				i, curve.Points[i-1].Impact, curve.Points[i].Impact)
		}
	}
	for _, p := range curve.Points {
		if p.Kept && (p.Impact != 0 || p.Regions != 0) {
			t.Fatalf("kept point %+v should be classified empty", p)
		}
		cold := coldImpactAt(t, recs, 0, k, 0, p.Delta, samples, seed, WithoutGeometry())
		if math.Abs(cold-p.Impact) > 1e-12 {
			t.Fatalf("frontier point value %g (kept %t): impact %.6f != cold %.6f", p.Value, p.Kept, p.Impact, cold)
		}
	}
}

// TestCompetitorsAttribution checks the attribution's internal accounting:
// Impact and Miss are complementary on the same samples, every share is a
// sub-probability of its side, the impact estimate matches
// ImpactProbability exactly (identical sampler and tolerance), and the
// entries arrive sorted.
func TestCompetitorsAttribution(t *testing.T) {
	recs := whatifRecords(3, 30, 3)
	db, err := Open(recs)
	if err != nil {
		t.Fatal(err)
	}
	const k, samples, seed = 3, 4000, int64(11)
	attr, err := db.Competitors(0, k, samples, seed, WithoutGeometry())
	if err != nil {
		t.Fatalf("Competitors: %v", err)
	}
	if attr.Impact+attr.Miss != 1 {
		t.Fatalf("impact %.6f + miss %.6f != 1", attr.Impact, attr.Miss)
	}
	res, err := db.KSPR(0, k, WithoutGeometry())
	if err != nil {
		t.Fatal(err)
	}
	if got := db.ImpactProbability(res, samples, seed); got != attr.Impact {
		t.Fatalf("attribution impact %.6f != ImpactProbability %.6f", attr.Impact, got)
	}
	var prev *CompetitorImpact
	for i := range attr.Competitors {
		c := &attr.Competitors[i]
		if c.ID == 0 {
			t.Fatalf("focal attributed to itself: %+v", c)
		}
		if c.MissShare < 0 || c.MissShare > attr.Miss {
			t.Fatalf("miss share %.6f outside [0, %.6f]", c.MissShare, attr.Miss)
		}
		if c.PressureShare < 0 || c.PressureShare > attr.Impact {
			t.Fatalf("pressure share %.6f outside [0, %.6f]", c.PressureShare, attr.Impact)
		}
		if sid, ok := db.StableID(c.ID); !ok || sid != c.StableID {
			t.Fatalf("stable id mismatch for %+v", c)
		}
		if prev != nil && (prev.MissShare < c.MissShare ||
			(prev.MissShare == c.MissShare && prev.PressureShare < c.PressureShare)) {
			t.Fatalf("entries not sorted at %d", i)
		}
		prev = c
	}
	if len(attr.Competitors) == 0 && attr.Miss > 0.01 {
		t.Fatalf("miss %.4f with no competitors attributed", attr.Miss)
	}
}

// TestPriceToTargetValidation covers the error surface: bad attribute, bad
// target, unreachable target under a MaxDelta cap, and the already-met
// short-circuit.
func TestPriceToTargetValidation(t *testing.T) {
	recs := whatifRecords(1, 20, 3)
	db, err := Open(recs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.PriceToTarget(0, 2, RepriceSpec{Attr: 9, Target: 0.5}); err == nil {
		t.Fatal("bad attr accepted")
	}
	if _, err := db.PriceToTarget(0, 2, RepriceSpec{Attr: 0, Target: 1.5}); err == nil {
		t.Fatal("bad target accepted")
	}
	if _, err := db.PriceToTarget(-1, 2, RepriceSpec{Attr: 0, Target: 0.5}); err == nil {
		t.Fatal("bad focal accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field string
		spec  RepriceSpec
	}{
		{"Target", RepriceSpec{Attr: 0, Target: nan}},
		{"MaxDelta", RepriceSpec{Attr: 0, Target: 0.5, MaxDelta: nan}},
		{"MaxDelta", RepriceSpec{Attr: 0, Target: 0.5, MaxDelta: inf}},
		{"MaxDelta", RepriceSpec{Attr: 0, Target: 0.5, MaxDelta: -inf}},
		{"Eps", RepriceSpec{Attr: 0, Target: 0.5, Eps: nan}},
		{"Eps", RepriceSpec{Attr: 0, Target: 0.5, Eps: inf}},
	} {
		_, err := db.PriceToTarget(0, 2, tc.spec, WithoutGeometry())
		if err == nil || !strings.Contains(err.Error(), "RepriceSpec."+tc.field) {
			t.Errorf("%+v: error %v, want one naming %s", tc.spec, err, tc.field)
		}
	}
	rp, err := db.PriceToTarget(0, 2, RepriceSpec{Attr: 0, Target: 0.9, MaxDelta: 1e-9,
		Samples: 1000, Seed: 3}, WithoutGeometry())
	if !errors.Is(err, ErrTargetUnreachable) {
		t.Fatalf("want ErrTargetUnreachable under a tiny MaxDelta, got %v", err)
	}
	if rp == nil || rp.Impact >= 0.9 {
		t.Fatalf("unreachable result should report the best achieved impact, got %+v", rp)
	}
	rp, err = db.PriceToTarget(0, 2, RepriceSpec{Attr: 0, Target: 1e-9, Samples: 1000, Seed: 3},
		WithoutGeometry())
	if err != nil {
		t.Fatalf("already-met search failed: %v", err)
	}
	if !rp.AlreadyMet || rp.Delta != 0 {
		t.Fatalf("want AlreadyMet with zero delta, got %+v", rp)
	}
}

// TestPriceToTargetExpansionBounded pins the automatic bracket
// expansion's probe economy: even chasing the hardest target (1.0), the
// search stays within baseline + initial bracket + 64 doublings + the
// bisection's Eps iterations — never the unbounded expansion toward
// float overflow the doubling cap guards against.
func TestPriceToTargetExpansionBounded(t *testing.T) {
	recs := [][]float64{
		{0.5, 0.5, 0.5},
		{0.5, 0.9, 0.5},
	}
	db, err := Open(recs)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := db.PriceToTarget(0, 1, RepriceSpec{
		Attr: 0, Target: 1.0, Eps: 1e-3, Samples: 200, Seed: 3, VolumeMetric: true,
	}, WithoutGeometry())
	if err != nil && !errors.Is(err, ErrTargetUnreachable) {
		t.Fatalf("unexpected error: %v", err)
	}
	// 2 (baseline + bracket) + 64 doublings + ~70 bisection halvings.
	if rp.Stats.Probes > 140 {
		t.Fatalf("expansion/bisection not bounded: %d probes", rp.Stats.Probes)
	}
}

// TestMaintainedRepriceRecomputes pins how the live DB follows a reprice
// of the maintained focal: every reprice, into territory with >= K strict
// dominators and back out of it, counts as Recomputed, and the maintained
// result stays byte-identical to a cold recompute.
func TestMaintainedRepriceRecomputes(t *testing.T) {
	recs := [][]float64{
		{0.5, 0.5, 0.5},
		{0.9, 0.92, 0.95},
		{0.95, 0.9, 0.91},
		{0.91, 0.94, 0.9},
	}
	db, err := Open(recs)
	if err != nil {
		t.Fatal(err)
	}
	lq, err := db.MaintainKSPR(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer lq.Close()
	stable, _ := db.StableID(0)

	// Reprice into deeply dominated territory: >= 2 strict dominators, so
	// the recompute is the empty result the engine's dominator count
	// decides.
	if _, err := db.Apply(Update(stable, 0.01, 0.01, 0.01)); err != nil {
		t.Fatal(err)
	}
	st := lq.Stats()
	if st.Kept != 0 || st.Recomputed != 1 {
		t.Fatalf("dominated reprice should recompute, got %+v", st)
	}
	res, _, err := lq.Result()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := db.KSPR(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(core.EncodeResult(res), core.EncodeResult(cold)) {
		t.Fatal("dominated reprice's result diverges from cold recompute")
	}

	// Reprice back out of dominated territory: must recompute and match.
	if _, err := db.Apply(Update(stable, 0.97, 0.97, 0.97)); err != nil {
		t.Fatal(err)
	}
	st = lq.Stats()
	if st.Recomputed != 2 {
		t.Fatalf("competitive reprice should recompute, got %+v", st)
	}
	res, _, err = lq.Result()
	if err != nil {
		t.Fatal(err)
	}
	cold, err = db.KSPR(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(core.EncodeResult(res), core.EncodeResult(cold)) {
		t.Fatal("recomputed result diverges from cold recompute")
	}
}

// TestVolumeMetricWhatIf exercises the volume impact metric on d=3 data,
// where the 2-dimensional preference space has exact polygon-area
// volumes: the bisection answer must hold under a cold recompute of the
// exact volume share, and the frontier stays monotone.
func TestVolumeMetricWhatIf(t *testing.T) {
	recs := whatifRecords(7, 25, 3)
	db, err := Open(recs)
	if err != nil {
		t.Fatal(err)
	}
	const k, samples, seed = 3, 3000, int64(5)
	spec := RepriceSpec{Attr: 0, Target: 0.3, Eps: 1e-3, Samples: samples, Seed: seed, VolumeMetric: true}
	rp, err := db.PriceToTarget(0, k, spec)
	if err != nil {
		t.Fatalf("PriceToTarget(volume): %v", err)
	}
	if !rp.AlreadyMet && rp.Impact < spec.Target {
		t.Fatalf("volume impact %v below target", rp.Impact)
	}
	mod := make([][]float64, len(recs))
	for i := range recs {
		mod[i] = append([]float64(nil), recs[i]...)
	}
	mod[0][0] += rp.Delta
	db2, err := Open(mod)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db2.KSPR(0, k, WithVolumes(samples), WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	if share := res.TotalVolume() / 0.5; share < spec.Target-1e-9 {
		t.Fatalf("cold exact volume share %v below target %v", share, spec.Target)
	}

	curve, err := db.Frontier(0, k, FrontierSpec{Attr: 0, Min: 0.01, Max: 1.3, Steps: 5,
		Samples: 2000, Seed: seed, VolumeMetric: true})
	if err != nil {
		t.Fatalf("Frontier(volume): %v", err)
	}
	for i := 1; i < len(curve.Points); i++ {
		if curve.Points[i].Impact < curve.Points[i-1].Impact-1e-12 {
			t.Fatalf("exact-volume frontier decreased at %d", i)
		}
	}
}

// TestCompetitorsValidation covers the attribution error surface and the
// samples default.
func TestCompetitorsValidation(t *testing.T) {
	recs := whatifRecords(2, 15, 3)
	db, err := Open(recs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Competitors(-1, 2, 100, 1); err == nil {
		t.Fatal("bad focal accepted")
	}
	if _, err := db.Competitors(len(recs), 2, 100, 1); err == nil {
		t.Fatal("out-of-range focal accepted")
	}
	attr, err := db.Competitors(0, 2, 0, 1, WithoutGeometry())
	if err != nil {
		t.Fatal(err)
	}
	if attr.Samples != DefaultWhatIfSamples {
		t.Fatalf("samples default not applied: %d", attr.Samples)
	}
}

// TestFrontierValidation covers the frontier's error surface and the
// no-competitor edge.
func TestFrontierValidation(t *testing.T) {
	recs := whatifRecords(1, 10, 3)
	db, err := Open(recs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Frontier(0, 2, FrontierSpec{Attr: 7}); err == nil {
		t.Fatal("bad attr accepted")
	}
	if _, err := db.Frontier(0, 2, FrontierSpec{Attr: 0, Steps: 1, Min: 0, Max: 1}); err == nil {
		t.Fatal("single-step grid accepted")
	}
	if _, err := db.Frontier(0, 2, FrontierSpec{Attr: 0, Min: 2, Max: 1}); err == nil {
		t.Fatal("inverted range accepted")
	}
	for _, tc := range []struct {
		field string
		spec  FrontierSpec
	}{
		{"Min", FrontierSpec{Attr: 0, Min: math.NaN(), Max: 1, Steps: 4}},
		{"Min", FrontierSpec{Attr: 0, Min: math.Inf(-1), Max: 1, Steps: 4}},
		{"Max", FrontierSpec{Attr: 0, Min: 0, Max: math.Inf(1), Steps: 4}},
		{"Max", FrontierSpec{Attr: 0, Min: 0, Max: math.NaN(), Steps: 4}},
	} {
		_, err := db.Frontier(0, 2, tc.spec, WithoutGeometry())
		if err == nil || !strings.Contains(err.Error(), "FrontierSpec."+tc.field) {
			t.Errorf("%+v: error %v, want one naming %s", tc.spec, err, tc.field)
		}
	}

	solo, err := Open([][]float64{{0.4, 0.6}})
	if err != nil {
		t.Fatal(err)
	}
	curve, err := solo.Frontier(0, 1, FrontierSpec{Attr: 0, Min: 0.1, Max: 0.9, Steps: 3, Samples: 100})
	if err != nil {
		t.Fatalf("solo frontier: %v", err)
	}
	for _, p := range curve.Points {
		if p.Impact != 1 || !p.Kept {
			t.Fatalf("a dataset without competitors is shortlisted everywhere, got %+v", p)
		}
	}
}
