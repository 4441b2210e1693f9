package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

func buildRandom(t *testing.T, n, d int, seed int64) (*rtree.Tree, []geom.Vector) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	recs := make([]geom.Vector, n)
	for i := range recs {
		v := make(geom.Vector, d)
		for j := range v {
			v[j] = rng.Float64()
		}
		recs[i] = v
	}
	tr, err := rtree.Build(recs)
	if err != nil {
		t.Fatal(err)
	}
	return tr, recs
}

// statsComparable zeroes the fields that legitimately differ between runs
// (wall clock, configured worker count); everything else must match.
func statsComparable(s Stats) Stats {
	s.Elapsed = 0
	s.Parallelism = 0
	return s
}

// TestParallelMatchesSerial is the engine's determinism contract: for every
// algorithm, across seeds, dimensionalities and k, a parallel run returns
// regions that are deeply identical — same order, same ranks, witnesses,
// vertices, constraints and volumes — to the serial run, and identical
// side statistics.
func TestParallelMatchesSerial(t *testing.T) {
	for _, algo := range []Algorithm{CTA, PCTA, LPCTA, KSkybandCTA} {
		for _, d := range []int{3, 5} {
			if d == 5 && (algo == CTA || algo == KSkybandCTA) {
				// The non-progressive variants process every record in high
				// dimensions; LP-CTA and P-CTA cover the d=5 engine paths at
				// a fraction of the cost.
				continue
			}
			for _, k := range []int{4, 8} {
				seeds := int64(2)
				n := 200
				if d == 5 {
					n = 60
				}
				if raceEnabled {
					// Race instrumentation makes the LP loops ~10x slower;
					// one seed and smaller datasets still cover every
					// engine interleaving.
					seeds = 1
					n /= 2
				}
				for seed := int64(1); seed <= seeds; seed++ {
					tr, recs := buildRandom(t, n, d, seed*31)
					focalID := tr.Skyline()[0]
					base := Options{
						K:                k,
						Algorithm:        algo,
						FinalizeGeometry: true,
						ComputeVolumes:   d == 3, // keep the d=5 cases fast
						VolumeSamples:    500,
						Seed:             7,
					}
					serialOpts := base
					serialOpts.Parallelism = 1
					parallelOpts := base
					parallelOpts.Parallelism = 6

					serial, err := Run(tr, recs[focalID], focalID, serialOpts)
					if err != nil {
						t.Fatalf("%v d=%d k=%d seed=%d serial: %v", algo, d, k, seed, err)
					}
					parallel, err := Run(tr, recs[focalID], focalID, parallelOpts)
					if err != nil {
						t.Fatalf("%v d=%d k=%d seed=%d parallel: %v", algo, d, k, seed, err)
					}
					if len(serial.Regions) != len(parallel.Regions) {
						t.Fatalf("%v d=%d k=%d seed=%d: %d regions serial, %d parallel",
							algo, d, k, seed, len(serial.Regions), len(parallel.Regions))
					}
					for i := range serial.Regions {
						if !reflect.DeepEqual(serial.Regions[i], parallel.Regions[i]) {
							t.Fatalf("%v d=%d k=%d seed=%d: region %d differs\nserial:   %+v\nparallel: %+v",
								algo, d, k, seed, i, serial.Regions[i], parallel.Regions[i])
						}
					}
					if got, want := statsComparable(parallel.Stats), statsComparable(serial.Stats); got != want {
						t.Fatalf("%v d=%d k=%d seed=%d: stats differ\nserial:   %+v\nparallel: %+v",
							algo, d, k, seed, want, got)
					}
				}
			}
		}
	}
}

// TestParallelProgressiveCallbackOrder asserts the OnRegion stream is also
// deterministic: parallel finalization must fire the progressive callback
// in exactly the serial order.
func TestParallelProgressiveCallbackOrder(t *testing.T) {
	tr, recs := buildRandom(t, 300, 4, 97)
	focalID := tr.Skyline()[0]
	run := func(parallelism int) []geom.Vector {
		var witnesses []geom.Vector
		opts := Options{
			K: 6, Algorithm: LPCTA, FinalizeGeometry: true,
			Parallelism: parallelism,
			OnRegion:    func(reg Region) { witnesses = append(witnesses, reg.Witness) },
		}
		if _, err := Run(tr, recs[focalID], focalID, opts); err != nil {
			t.Fatal(err)
		}
		return witnesses
	}
	serial := run(1)
	parallel := run(5)
	if len(serial) != len(parallel) {
		t.Fatalf("callback count differs: %d serial, %d parallel", len(serial), len(parallel))
	}
	for i := range serial {
		if !serial[i].Equal(parallel[i]) {
			t.Fatalf("callback %d witness differs: %v vs %v", i, serial[i], parallel[i])
		}
	}
}
