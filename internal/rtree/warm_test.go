package rtree

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/geom"
)

func randWarmRecords(rng *rand.Rand, n, d int, ties bool) []geom.Vector {
	recs := make([]geom.Vector, n)
	for i := range recs {
		v := make(geom.Vector, d)
		for j := range v {
			if ties {
				v[j] = float64(rng.Intn(5)) / 4
			} else {
				v[j] = rng.Float64()
			}
		}
		recs[i] = v
	}
	return recs
}

// sameStructure compares two trees node by node: page numbers, leaf
// flags, MBRs, counts, and record ids must all match.
func sameStructure(t *testing.T, a, b *Node) {
	t.Helper()
	if a.Leaf != b.Leaf || a.Page != b.Page || len(a.Entries) != len(b.Entries) {
		t.Fatalf("node shape mismatch: page %d/%d leaf %v/%v entries %d/%d",
			a.Page, b.Page, a.Leaf, b.Leaf, len(a.Entries), len(b.Entries))
	}
	for i := range a.Entries {
		ea, eb := a.Entries[i], b.Entries[i]
		if !reflect.DeepEqual(ea.Low, eb.Low) || !reflect.DeepEqual(ea.High, eb.High) ||
			ea.Count != eb.Count || ea.RecordID != eb.RecordID {
			t.Fatalf("entry mismatch at page %d slot %d", a.Page, i)
		}
		if (ea.Child == nil) != (eb.Child == nil) {
			t.Fatalf("child mismatch at page %d slot %d", a.Page, i)
		}
		if ea.Child != nil {
			sameStructure(t, ea.Child, eb.Child)
		}
	}
}

// TestBuildFromOrderReproducesBuild pins the warm-start contract: the
// tree reassembled from LeafOrder is structurally identical to the
// cold-built tree, across sizes that exercise single-leaf, two-level and
// three-level shapes, on tie-free and on tied data.
func TestBuildFromOrderReproducesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		n, d, fanout int
		ties         bool
	}{
		{1, 2, 4, false}, {3, 3, 4, false}, {17, 2, 4, false}, {64, 3, 4, false}, {200, 4, 8, false}, {500, 3, 8, false},
		{17, 2, 4, true}, {200, 4, 8, true}, {500, 3, 8, true},
	} {
		recs := randWarmRecords(rng, tc.n, tc.d, tc.ties)
		cold, err := Build(recs, WithFanout(tc.fanout))
		if err != nil {
			t.Fatal(err)
		}
		order, ends := cold.LeafOrder()
		warm, err := BuildFromOrder(recs, order, ends, WithFanout(tc.fanout))
		if err != nil {
			t.Fatalf("n=%d: BuildFromOrder: %v", tc.n, err)
		}
		if warm.Pages() != cold.Pages() || warm.Height() != cold.Height() {
			t.Fatalf("n=%d: pages/height diverged", tc.n)
		}
		sameStructure(t, cold.Root, warm.Root)

		// Queries agree too (belt and braces on top of the structural
		// check).
		for k := 1; k <= 4; k++ {
			if !reflect.DeepEqual(cold.KSkyband(k), warm.KSkyband(k)) {
				t.Fatalf("n=%d k=%d: skyband diverged", tc.n, k)
			}
		}
	}
}

// TestBuildFromOrderRejectsBadLayouts ensures corrupted leaf layouts are
// refused rather than silently assembled into a wrong tree.
func TestBuildFromOrderRejectsBadLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	recs := randWarmRecords(rng, 20, 2, false)
	cold, err := Build(recs, WithFanout(4))
	if err != nil {
		t.Fatal(err)
	}
	order, ends := cold.LeafOrder()
	bad := func(name string, order, ends []int32) {
		if _, err := BuildFromOrder(recs, order, ends, WithFanout(4)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	short := append([]int32(nil), order[:len(order)-1]...)
	bad("short order", short, ends)
	dup := append([]int32(nil), order...)
	dup[0] = dup[1]
	bad("duplicate id", dup, ends)
	oob := append([]int32(nil), order...)
	oob[0] = int32(len(recs))
	bad("out-of-range id", oob, ends)
	bad("no groups", order, nil)
	truncated := append([]int32(nil), ends[:len(ends)-1]...)
	bad("groups not covering", truncated, ends[:0])
	wide := []int32{int32(len(recs))} // one group of 20 > fanout 4
	bad("group over fanout", order, wide)
	nonMono := append([]int32(nil), ends...)
	if len(nonMono) >= 2 {
		nonMono[0], nonMono[1] = nonMono[1], nonMono[0]
		bad("non-monotonic groups", order, nonMono)
	}
}

// TestBandTableMatchesTraversal pins the table-serving fast paths to the
// live traversal on random datasets (with ties). Each input is a tree
// whose band-table slot starts out as named: seeded with a table of
// depth 6, empty (the first KSkybandExcluding fills it), or seeded with
// a depth-64 table. k runs ascending, then past every table's depth;
// KSkyband must match the traversal, and KSkybandExcluding brute force,
// for every k and every focal (-1: no focal).
func TestBandTableMatchesTraversal(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const bandK = 6
	for trial := 0; trial < 20; trial++ {
		recs := randWarmRecords(rng, 40+rng.Intn(80), 1+rng.Intn(4), trial%2 == 1)
		tree, err := Build(recs, WithFanout(8))
		if err != nil {
			t.Fatal(err)
		}
		table := tree.KSkybandTable(bandK)

		// Counts are exact: verify against brute force.
		for i, id := range table.IDs {
			want := 0
			for j, r := range recs {
				if j != int(id) && geom.Dominates(r, recs[id]) {
					want++
				}
			}
			if int(table.Cnt[i]) != want {
				t.Fatalf("trial %d: count[%d]=%d, want %d", trial, id, table.Cnt[i], want)
			}
		}

		for _, in := range []struct {
			name string
			seed *BandTable
		}{
			{"seeded", table},
			{"memo", nil},
			{"seeded K=64", tree.KSkybandTable(64)},
		} {
			served, err := Build(recs, WithFanout(8))
			if err != nil {
				t.Fatal(err)
			}
			if in.seed != nil {
				served.SetBand(in.seed)
			}
			served.KSkyband(3)
			if in.seed == nil && served.Band() != nil {
				t.Fatalf("trial %d: KSkyband filled the band-table slot", trial)
			}
			for _, k := range []int{1, 2, 3, 4, 5, bandK + 3} {
				if !reflect.DeepEqual(tree.KSkyband(k), served.KSkyband(k)) {
					t.Fatalf("trial %d %s k=%d: table-served skyband diverged", trial, in.name, k)
				}
				for f := -1; f < len(recs); f++ {
					want := bruteSkyband(recs, k, f)
					got := served.KSkybandExcluding(k, f)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("trial %d %s k=%d focal=%d: excluding skyband diverged: %v vs %v",
							trial, in.name, k, f, want, got)
					}
				}
				// Filled at k+1 when nothing deeper than k was there;
				// a deeper table is never replaced.
				wantK := k + 1
				if in.seed != nil {
					wantK = max(wantK, in.seed.K)
				}
				if b := served.Band(); b == nil || b.K != wantK {
					t.Fatalf("trial %d %s k=%d: band-table slot %+v, want depth %d", trial, in.name, k, b, wantK)
				}
			}
			before := served.Band()
			if got := served.SetBand(tree.KSkybandTable(2)); got != before || served.Band() != before {
				t.Fatalf("trial %d %s: a shallower table replaced the slot", trial, in.name)
			}
			if tree.Band() != nil {
				t.Fatal("the reference tree's slot was filled")
			}
		}
	}
}

// TestBandSlotConcurrentFill shares one tree across goroutines querying
// mixed k: every answer must match brute force, and the slot must end
// at the deepest fill (max k + 1), never replaced by a shallower table.
func TestBandSlotConcurrentFill(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	recs := randWarmRecords(rng, 300, 3, true)
	shared, err := Build(recs, WithFanout(8))
	if err != nil {
		t.Fatal(err)
	}
	ks := []int{1, 2, 3, 5, 8}
	want := make(map[int][][]int, len(ks))
	for _, k := range ks {
		for f := 0; f < len(recs); f++ {
			want[k] = append(want[k], bruteSkyband(recs, k, f))
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := ks[(g+i)%len(ks)]
				f := (g*37 + i*11) % len(recs)
				if got := shared.KSkybandExcluding(k, f); !reflect.DeepEqual(got, want[k][f]) {
					errs <- fmt.Errorf("goroutine %d k=%d focal=%d: %v, want %v", g, k, f, got, want[k][f])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if b := shared.Band(); b == nil || b.K != ks[len(ks)-1]+1 {
		t.Fatalf("band-table slot ended at %+v, want depth %d", b, ks[len(ks)-1]+1)
	}
}
