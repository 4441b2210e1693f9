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
	var scratch MaskScratch
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(6)
		n := 1 + rng.Intn(60)
		ties := trial%2 == 1
		recs := genRecords(rng, n, d, ties)
		rows := PackRows(recs, d)
		mat := NewMatrix(rows, n, d)

		// Row-major packing and transposition agree with the source.
		for i, r := range recs {
			for j, v := range r {
				if rows[i*d+j] != v {
					t.Fatalf("trial %d: PackRows[%d,%d] = %v, want %v", trial, i, j, rows[i*d+j], v)
				}
				if mat.Cols[j*n+i] != v {
					t.Fatalf("trial %d: Matrix[%d,%d] = %v, want %v", trial, i, j, mat.Cols[j*n+i], v)
				}
			}
		}

		// Pairwise flat dominance and comparison match geom exactly.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a, b := rows[i*d:(i+1)*d], rows[j*d:(j+1)*d]
				if got, want := dominatesFlat(a, b, d), geom.Dominates(recs[i], recs[j]); got != want {
					t.Fatalf("trial %d: dominatesFlat(%v, %v) = %v, want %v", trial, recs[i], recs[j], got, want)
				}
				if got, want := CompareFlat(a, b, d), CompareResult(geom.Compare(recs[i], recs[j])); got != want {
					t.Fatalf("trial %d: CompareFlat(%v, %v) = %v, want %v", trial, recs[i], recs[j], got, want)
				}
			}
		}

		// Band membership tests match a naive scan over the same prefix.
		band := NewBand(d)
		for i, r := range recs {
			anyRef := false
			cntRef := 0
			for k := 0; k < i; k++ {
				if geom.Dominates(recs[k], r) {
					anyRef = true
					cntRef++
				}
			}
			if got := band.AnyDominates(r); got != anyRef {
				t.Fatalf("trial %d rec %d: AnyDominates = %v, want %v", trial, i, got, anyRef)
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
		for i := range recs {
			if !geom.Vector(band.Row(i)).Equal(recs[i]) {
				t.Fatalf("trial %d: band row %d diverged", trial, i)
			}
		}

		// Columnar whole-dataset counting matches the naive reference,
		// with and without an excluded record.
		for q := 0; q < 10; q++ {
			x := recs[rng.Intn(n)]
			exclude := -1
			if q%2 == 0 {
				exclude = rng.Intn(n)
			}
			want := 0
			for i, r := range recs {
				if i != exclude && geom.Dominates(r, x) {
					want++
				}
			}
			if got := mat.CountDominators(x, exclude, &scratch); got != want {
				t.Fatalf("trial %d: CountDominators(exclude=%d) = %d, want %d", trial, exclude, got, want)
			}
		}
	}
}

// TestBandReset checks that Reset empties the band but keeps it usable.
func TestBandReset(t *testing.T) {
	b := NewBand(2)
	b.Push([]float64{1, 1})
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", b.Len())
	}
	if b.AnyDominates([]float64{0, 0}) {
		t.Fatal("empty band claims a dominator")
	}
	b.Push([]float64{1, 1})
	if !b.AnyDominates([]float64{0, 0}) {
		t.Fatal("band lost its record after Reset+Push")
	}
}
