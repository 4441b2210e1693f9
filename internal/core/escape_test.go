package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// escapeRecords returns nc+30 random records, the pool the candidates
// are drawn from, followed by extras that are never candidates: near-top
// records that dominate most others, and exact duplicates of earlier
// records. With ties the coordinates come from a four-value grid, so
// records tie component-wise and duplicate exactly.
func escapeRecords(rng *rand.Rand, nc, d int, ties bool) []geom.Vector {
	coord := func() float64 {
		if ties {
			return float64(rng.Intn(4)) / 3
		}
		return rng.Float64()
	}
	var recs []geom.Vector
	for i := 0; i < nc+30; i++ {
		v := make(geom.Vector, d)
		for j := range v {
			v[j] = coord()
		}
		recs = append(recs, v)
	}
	for i := 0; i < 10; i++ {
		v := make(geom.Vector, d)
		for j := range v {
			v[j] = 1 - coord()/10
		}
		recs = append(recs, v)
	}
	for i := 0; i < 10; i++ {
		recs = append(recs, recs[rng.Intn(len(recs))].Clone())
	}
	return recs
}

// bruteEscapes is the reference reportability test: some open candidate
// is dominated by none of the pivots.
func bruteEscapes(recs []geom.Vector, open map[int]bool, pivots []int) bool {
	for c := range open {
		escaped := true
		for _, p := range pivots {
			if geom.Dominates(recs[p], recs[c]) {
				escaped = false
				break
			}
		}
		if escaped {
			return true
		}
	}
	return false
}

// TestEscapeCheckMatchesBruteForce runs one checker per dataset through a
// sequence of tests interleaved with processing and insertion, so lazily
// filled rows are reused across tests, and compares every answer with a
// geom.Dominates scan over the open candidates, until every candidate is
// processed. Each step also checks the dominator list of one record
// against a scan over the inserted records. Candidate counts straddle the 64-bit word boundaries;
// candidates close lowest id first on even steps, so low words empty
// while high ones still hold escapees.
func TestEscapeCheckMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, nc := range []int{0, 1, 63, 64, 65, 129, 200} {
		for _, ties := range []bool{false, true} {
			d := 2 + rng.Intn(4)
			recs := escapeRecords(rng, nc, d, ties)
			ids := rng.Perm(nc + 30)[:nc] // the extras are never candidates
			slices.Sort(ids)
			e := newEscapeCheck(ids, recs, d)
			open := make(map[int]bool, nc)
			for _, id := range ids {
				open[id] = true
			}
			var inserted, pivots, doms []int
			isInserted := make(map[int]bool)
			var outcomes [2]int
			for step := 0; step < 60 || len(open) > 0; step++ {
				switch {
				case step == 0: // the first tests see every candidate open
				case step%2 == 0:
					for i, n := 0, 1+rng.Intn(8); i < n && i < len(ids); i++ {
						lowest := -1
						for _, id := range ids {
							if open[id] {
								lowest = id
								break
							}
						}
						if lowest >= 0 {
							e.process(lowest)
							delete(open, lowest)
						}
					}
				default:
					for i := rng.Intn(4); i > 0; i-- {
						id := rng.Intn(len(recs))
						e.process(id)
						delete(open, id)
					}
				}
				// Insert candidates and non-candidates alike; a candidate
				// never dominates itself, and neither does its duplicate.
				for i := 1 + rng.Intn(3); i > 0; i-- {
					if id := rng.Intn(len(recs)); !isInserted[id] {
						isInserted[id] = true
						inserted = append(inserted, id)
						e.add(id, recs[id])
					}
				}
				// The insert walk's dominator list: the inserted records
				// that dominate v, in insertion order, into reused
				// scratch; a duplicate of v is not one of them.
				v := recs[rng.Intn(len(recs))]
				var wantDoms []int
				for _, id := range inserted {
					if geom.Dominates(recs[id], v) {
						wantDoms = append(wantDoms, id)
					}
				}
				if doms = e.dominators(v, doms); !slices.Equal(doms, wantDoms) {
					t.Fatalf("nc=%d ties=%v step %d: dominators(%v) = %v, want %v",
						nc, ties, step, v, doms, wantDoms)
				}
				for q := 0; q < 6; q++ {
					keep := []float64{0, 0.2, 0.6, 0.95}[rng.Intn(4)]
					pivots = pivots[:0]
					for _, id := range inserted {
						if rng.Float64() < keep {
							pivots = append(pivots, id)
						}
					}
					want := bruteEscapes(recs, open, pivots)
					if got := e.escapes(pivots); got != want {
						t.Fatalf("nc=%d ties=%v step %d: escapes(%v) = %v, want %v (open %d)",
							nc, ties, step, pivots, got, want, len(open))
					}
					if want {
						outcomes[1]++
					} else {
						outcomes[0]++
					}
				}
			}
			if nc > 0 && (outcomes[0] == 0 || outcomes[1] == 0) {
				t.Fatalf("nc=%d ties=%v: one-sided outcomes %v", nc, ties, outcomes)
			}
			if !raceEnabled {
				if allocs := testing.AllocsPerRun(10, func() { e.escapes(pivots) }); allocs != 0 {
					t.Fatalf("nc=%d: escapes allocates %.0f times per test", nc, allocs)
				}
			}
		}
	}
}
