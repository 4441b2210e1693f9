package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestApproxValidation(t *testing.T) {
	tr, _ := buildIND(t, 20, 3, 1)
	if _, err := RunApprox(tr, geom.Vector{0.5, 0.5, 0.5}, -1, ApproxOptions{K: 0}); err == nil {
		t.Fatal("expected error for K=0")
	}
	if _, err := RunApprox(tr, geom.Vector{0.5, 0.5}, -1, ApproxOptions{K: 1}); err == nil {
		t.Fatal("expected error for dim mismatch")
	}
}

// The approximate result must be SOUND (certain regions contain only
// weights where the focal record is top-K) and COMPLETE up to the
// uncertain set (any top-K weight lies in a certain or uncertain region).
func TestApproxSoundAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range []int{3, 4} {
		tr, recs := buildIND(t, 150, d, int64(d)*31)
		focalID := tr.Skyline(nil)[0]
		k := 4
		res, err := RunApprox(tr, recs[focalID], focalID, ApproxOptions{K: k, Epsilon: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("d=%d: did not converge to epsilon", d)
		}
		checkApproxOracle(t, res, recs, recs[focalID], focalID, k, rng, 400)
	}
}

// checkApproxOracle is checkOracle for approximate results: certain
// regions hold only weights where the focal ranks within k (sound), and
// every such weight lies in a certain or uncertain region (complete).
func checkApproxOracle(t *testing.T, res *ApproxResult, recs []geom.Vector, focal geom.Vector, focalID, k int, rng *rand.Rand, samples int) {
	t.Helper()
	inUncertain := func(wt geom.Vector) bool {
		for i := range res.Uncertain {
			if res.Uncertain[i].Contains(wt, 1e-9) {
				return true
			}
		}
		return false
	}
	d := len(focal)
	for s := 0; s < samples; s++ {
		wt := randSimplexPoint(rng, d-1)
		w := geom.Lift(wt)
		rank, ok := bruteRank(recs, focal, focalID, w, 1e-9)
		if !ok {
			continue
		}
		certain := res.ContainsWeight(wt, 1e-9)
		uncertain := inUncertain(wt)
		if certain && !uncertain && rank > k {
			t.Fatalf("d=%d: unsound — rank %d > k inside a certain region at %v", d, rank, wt)
		}
		if rank <= k && !certain && !uncertain {
			t.Fatalf("d=%d: incomplete — rank %d <= k outside certain+uncertain at %v", d, rank, wt)
		}
	}
}

func TestApproxUncertaintyShrinksWithEpsilon(t *testing.T) {
	tr, recs := buildIND(t, 120, 3, 11)
	focalID := tr.Skyline(nil)[0]
	coarse, err := RunApprox(tr, recs[focalID], focalID, ApproxOptions{K: 5, Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := RunApprox(tr, recs[focalID], focalID, ApproxOptions{K: 5, Epsilon: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	if fine.UncertainVolume > coarse.UncertainVolume+1e-12 {
		t.Fatalf("uncertainty grew with smaller epsilon: %v -> %v",
			coarse.UncertainVolume, fine.UncertainVolume)
	}
	// Volume guarantee: 0.5 is the 2-d simplex area.
	if fine.Converged && fine.UncertainVolume > 0.005*0.5+1e-9 {
		t.Fatalf("claimed convergence but uncertain volume %v exceeds budget", fine.UncertainVolume)
	}
}

func TestApproxMaxCellsStopsRefinement(t *testing.T) {
	tr, recs := buildIND(t, 120, 3, 13)
	focalID := tr.Skyline(nil)[0]
	res, err := RunApprox(tr, recs[focalID], focalID, ApproxOptions{K: 5, Epsilon: 1e-9, MaxCells: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("cannot converge to epsilon 1e-9 within 20 cells")
	}
	if res.Stats.RankBoundCells > 20 {
		t.Fatalf("examined %d cells, cap was 20", res.Stats.RankBoundCells)
	}
}

func TestApproxAgreesWithExactOnVolume(t *testing.T) {
	tr, recs := buildIND(t, 100, 3, 17)
	focalID := tr.Skyline(nil)[0]
	k := 4
	exact, err := Run(tr, recs[focalID], focalID, Options{
		K: k, Algorithm: LPCTA, ComputeVolumes: true, VolumeSamples: 20000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := RunApprox(tr, recs[focalID], focalID, ApproxOptions{K: k, Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	var certainVol float64
	for _, r := range approx.Regions {
		certainVol += r.Volume
	}
	exactVol := exact.TotalVolume()
	// certain <= exact <= certain + uncertain (within estimation noise).
	if certainVol > exactVol+0.01 {
		t.Fatalf("certain volume %v exceeds exact %v", certainVol, exactVol)
	}
	if exactVol > certainVol+approx.UncertainVolume+0.01 {
		t.Fatalf("exact volume %v exceeds certain+uncertain %v",
			exactVol, certainVol+approx.UncertainVolume)
	}
}
