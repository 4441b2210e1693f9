package kernel

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// genRecords produces n random d-dimensional records. When ties is true
// the coordinate pool is tiny and rows are sometimes duplicated, so the
// dataset is dense with component-level ties, exact duplicates, and
// incomparable pairs — the adversarial cases where an epsilon-sloppy or
// strictness-sloppy kernel diverges from the reference.
func genRecords(rng *rand.Rand, n, d int, ties bool) []geom.Vector {
	recs := make([]geom.Vector, n)
	for i := range recs {
		if ties && i > 0 && rng.Intn(4) == 0 {
			recs[i] = recs[rng.Intn(i)].Clone() // exact duplicate row
			if rng.Intn(2) == 0 {
				recs[i][rng.Intn(d)] = float64(rng.Intn(3)) / 2
			}
			continue
		}
		v := make(geom.Vector, d)
		for j := range v {
			if ties {
				v[j] = float64(rng.Intn(4)) / 3 // pool {0, 1/3, 2/3, 1}
			} else {
				v[j] = rng.Float64()
			}
		}
		recs[i] = v
	}
	return recs
}

// TestKernelsMatchReference is the property test pinning every kernel to
// the geom reference semantics on randomized datasets, with and without
// adversarial ties.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(6)
		n := 1 + rng.Intn(60)
		ties := trial%2 == 1
		recs := genRecords(rng, n, d, ties)
		rows := PackRows(recs, d)

		// Row-major packing agrees with the source.
		for i, r := range recs {
			for j, v := range r {
				if rows[i*d+j] != v {
					t.Fatalf("trial %d: PackRows[%d,%d] = %v, want %v", trial, i, j, rows[i*d+j], v)
				}
			}
		}

		// Pairwise flat dominance matches geom exactly.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a, b := rows[i*d:(i+1)*d], rows[j*d:(j+1)*d]
				if got, want := dominatesFlat(a, b, d), geom.Dominates(recs[i], recs[j]); got != want {
					t.Fatalf("trial %d: dominatesFlat(%v, %v) = %v, want %v", trial, recs[i], recs[j], got, want)
				}
			}
		}

		// Band membership tests match a naive scan over the same prefix.
		band := NewBand(d)
		for i, r := range recs {
			cntRef := 0
			for k := 0; k < i; k++ {
				if geom.Dominates(recs[k], r) {
					cntRef++
				}
			}
			for limit := 1; limit <= cntRef+2; limit++ {
				want := cntRef
				if want > limit {
					want = limit
				}
				if got := band.CountDominatorsCapped(r, limit); got != want {
					t.Fatalf("trial %d rec %d limit %d: CountDominatorsCapped = %d, want %d", trial, i, limit, got, want)
				}
			}
			band.Push(r)
		}
		if band.Len() != n {
			t.Fatalf("trial %d: band length %d, want %d", trial, band.Len(), n)
		}

		// Row bitsets over up to 200 rows, so several words fill; every
		// word is overwritten, the one past the last row with zero.
		m := 1 + rng.Intn(200)
		others := genRecords(rng, m, d, ties)
		flat := PackRows(others, d)
		dst := make([]uint64, (m+63)/64+1)
		for probe := 0; probe < 8; probe++ {
			v := recs[rng.Intn(n)]
			if probe%2 == 1 {
				v = others[rng.Intn(m)]
			}
			for w := range dst {
				dst[w] = ^uint64(0)
			}
			DominatedBits(flat, d, v, dst)
			for i := 0; i < 64*len(dst); i++ {
				want := i < m && geom.Dominates(v, others[i])
				if got := dst[i/64]>>(i%64)&1 == 1; got != want {
					t.Fatalf("trial %d: DominatedBits bit %d of %d rows = %v, want %v", trial, i, m, got, want)
				}
			}
		}
	}
}
