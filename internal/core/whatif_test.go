package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// TestRegionOutscorersRankInvariant pins the per-region dominator facts:
// for every exact-rank region, Outscorers has exactly Rank-1 members and
// every member strictly outscores the focal at the region's witness.
func TestRegionOutscorersRankInvariant(t *testing.T) {
	algos := []Algorithm{CTA, PCTA, LPCTA, KSkybandCTA}
	for _, algo := range algos {
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed))
			recs := make([]geom.Vector, 60)
			for i := range recs {
				recs[i] = geom.Vector{rng.Float64(), rng.Float64(), rng.Float64()}
			}
			tree, err := rtree.Build(recs)
			if err != nil {
				t.Fatal(err)
			}
			band := tree.KSkyband(4)
			focalID := band[len(band)/2]
			res, err := Run(tree, recs[focalID], focalID, Options{K: 4, Algorithm: algo})
			if err != nil {
				t.Fatalf("%v seed %d: %v", algo, seed, err)
			}
			for ri := range res.Regions {
				reg := &res.Regions[ri]
				if !reg.RankExact {
					if len(reg.Outscorers) > reg.Rank-1 {
						t.Fatalf("%v seed %d region %d: %d outscorers exceed rank bound %d",
							algo, seed, ri, len(reg.Outscorers), reg.Rank)
					}
					continue
				}
				if len(reg.Outscorers) != reg.Rank-1 {
					t.Fatalf("%v seed %d region %d: %d outscorers, want rank-1 = %d",
						algo, seed, ri, len(reg.Outscorers), reg.Rank-1)
				}
				w := geom.Lift(reg.Witness)
				ps := recs[focalID].Dot(w)
				seen := map[int]bool{}
				for _, id := range reg.Outscorers {
					if id == focalID {
						t.Fatalf("%v seed %d region %d: focal listed as its own outscorer", algo, seed, ri)
					}
					if seen[id] {
						t.Fatalf("%v seed %d region %d: duplicate outscorer %d", algo, seed, ri, id)
					}
					seen[id] = true
					if recs[id].Dot(w) <= ps-1e-9 {
						t.Fatalf("%v seed %d region %d: outscorer %d does not outscore the focal at the witness",
							algo, seed, ri, id)
					}
				}
			}
		}
	}
}

// TestAttributeAccounting checks the Monte-Carlo attribution's internal
// bookkeeping on a small fixed dataset.
func TestAttributeAccounting(t *testing.T) {
	recs := []geom.Vector{
		{0.5, 0.5, 0.5},
		{0.9, 0.3, 0.2},
		{0.2, 0.9, 0.3},
		{0.3, 0.2, 0.9},
	}
	tree, err := rtree.Build(recs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tree, recs[0], 0, Options{K: 2, Algorithm: LPCTA})
	if err != nil {
		t.Fatal(err)
	}
	const samples = 5000
	attr, err := Attribute(tree, res, recs[0], 0, samples, 17)
	if err != nil {
		t.Fatal(err)
	}
	if attr.Impact+attr.Miss != 1 {
		t.Fatalf("impact %v + miss %v != 1", attr.Impact, attr.Miss)
	}
	if attr.K != 2 || attr.Samples != samples {
		t.Fatalf("echoed parameters wrong: %+v", attr)
	}
	var missTotal float64
	for _, e := range attr.Entries {
		if e.ID == 0 {
			t.Fatalf("focal attributed to itself")
		}
		missTotal += e.MissShare
	}
	// Every miss sample charges at most K occupants.
	if missTotal > float64(attr.K)*attr.Miss+1e-12 {
		t.Fatalf("miss shares sum %.6f exceed K*miss %.6f", missTotal, float64(attr.K)*attr.Miss)
	}

	if _, err := Attribute(tree, nil, recs[0], 0, 100, 1); err == nil {
		t.Fatal("nil result accepted")
	}
	if _, err := Attribute(tree, res, recs[0], 0, 0, 1); err == nil {
		t.Fatal("zero samples accepted")
	}
	if _, err := Attribute(tree, res, geom.Vector{1}, 0, 100, 1); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// TestMaintainerRepriceRecomputesMatrix pins how the Maintainer follows a
// focal reprice across all four algorithms at the core level: a reprice
// into >= K dominators and a reprice back out both recompute, each equal
// to a cold run.
func TestMaintainerRepriceRecomputesMatrix(t *testing.T) {
	base := []geom.Vector{
		{0.5, 0.5, 0.5},
		{0.9, 0.92, 0.95},
		{0.95, 0.9, 0.91},
		{0.91, 0.94, 0.9},
	}
	for _, algo := range []Algorithm{CTA, PCTA, LPCTA, KSkybandCTA} {
		tree, err := rtree.Build(base)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMaintainer(tree, base[0], 0, Options{K: 2, Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}

		down := append([]geom.Vector{}, base...)
		down[0] = geom.Vector{0.01, 0.01, 0.01}
		tree2, err := rtree.Build(down)
		if err != nil {
			t.Fatal(err)
		}
		res, recomputed, err := m.Apply(tree2, 0, []Delta{{Old: base[0], New: down[0]}})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if !recomputed {
			t.Fatalf("%v: dominated reprice should recompute", algo)
		}
		cold, err := Run(tree2, down[0], 0, Options{K: 2, Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		if string(EncodeResult(res)) != string(EncodeResult(cold)) {
			t.Fatalf("%v: dominated reprice's result diverges from cold run", algo)
		}
		if st := m.Stats(); st.Kept != 0 || st.Recomputed != 1 {
			t.Fatalf("%v: stats %+v", algo, st)
		}

		up := append([]geom.Vector{}, base...)
		up[0] = geom.Vector{0.97, 0.97, 0.97}
		tree3, err := rtree.Build(up)
		if err != nil {
			t.Fatal(err)
		}
		res, recomputed, err = m.Apply(tree3, 0, []Delta{{Old: down[0], New: up[0]}})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if !recomputed {
			t.Fatalf("%v: competitive reprice should recompute", algo)
		}
		cold, err = Run(tree3, up[0], 0, Options{K: 2, Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		if string(EncodeResult(res)) != string(EncodeResult(cold)) {
			t.Fatalf("%v: recomputed result diverges from cold run", algo)
		}
	}
}
