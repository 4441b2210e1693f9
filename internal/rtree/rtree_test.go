package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

func randRecords(rng *rand.Rand, n, d int) []geom.Vector {
	rs := make([]geom.Vector, n)
	for i := range rs {
		v := make(geom.Vector, d)
		for j := range v {
			v[j] = rng.Float64()
		}
		rs[i] = v
	}
	return rs
}

func TestBuildValidatesInput(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Fatal("expected error for empty record set")
	}
	if _, err := Build([]geom.Vector{{1, 2}, {1}}); err == nil {
		t.Fatal("expected error for ragged records")
	}
}

// TestBuildStructure checks the tree invariants on random and on tied
// input: no node over fanout, every entry's count equal to its subtree's
// and its MBR containing the subtree's, every record reachable exactly
// once. Two Builds of the same input must be structurally identical, and
// equal to the tree of the reference layout, which states the tie rule.
func TestBuildStructure(t *testing.T) {
	const n, fanout = 1000, 16
	random := randRecords(rand.New(rand.NewSource(1)), n, 3)
	grid := randWarmRecords(rand.New(rand.NewSource(2)), n, 3, true)
	rng := rand.New(rand.NewSource(3))
	signedZeros := make([]geom.Vector, n)
	identical := make([]geom.Vector, n)
	for i := range signedZeros {
		v := make(geom.Vector, 3)
		for j := range v {
			v[j] = [...]float64{math.Copysign(0, -1), 0, 1}[rng.Intn(3)]
		}
		signedZeros[i] = v
		identical[i] = geom.Vector{0.5, 0.25, 0.75}
	}
	for _, tc := range []struct {
		name string
		recs []geom.Vector
	}{
		{"random", random},
		{"5-value grid", grid},
		{"signed zeros", signedZeros},
		{"identical", identical},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := Build(tc.recs, WithFanout(fanout))
			if err != nil {
				t.Fatal(err)
			}
			if tr.Len() != n {
				t.Fatalf("Len = %d", tr.Len())
			}
			if tr.Height() < 2 {
				t.Fatalf("height %d too small for %d records with fanout %d", tr.Height(), n, fanout)
			}
			seen := map[int]int{}
			var walk func(nd *Node) (geom.Vector, geom.Vector, int)
			walk = func(nd *Node) (geom.Vector, geom.Vector, int) {
				if len(nd.Entries) == 0 {
					t.Fatal("empty node")
				}
				if len(nd.Entries) > fanout {
					t.Fatalf("node with %d entries exceeds fanout", len(nd.Entries))
				}
				low, high, total := nodeMBR(nd, tr.Dim)
				for _, e := range nd.Entries {
					if e.Child != nil {
						clow, chigh, ccount := walk(e.Child)
						if ccount != e.Count {
							t.Fatalf("entry count %d, subtree has %d", e.Count, ccount)
						}
						for j := 0; j < tr.Dim; j++ {
							if e.Low[j] > clow[j]+1e-12 || e.High[j] < chigh[j]-1e-12 {
								t.Fatal("entry MBR does not contain child MBR")
							}
						}
					} else {
						seen[e.RecordID]++
					}
				}
				return low, high, total
			}
			if _, _, total := walk(tr.Root); total != n {
				t.Fatalf("aggregate total %d, want %d", total, n)
			}
			for id := 0; id < n; id++ {
				if seen[id] != 1 {
					t.Fatalf("record %d appears %d times", id, seen[id])
				}
			}
			again, err := Build(tc.recs, WithFanout(fanout))
			if err != nil {
				t.Fatal(err)
			}
			sameStructure(t, tr.Root, again.Root)
			order, ends := refLayout(tc.recs, fanout)
			ref, err := BuildFromOrder(tc.recs, order, ends, WithFanout(fanout))
			if err != nil {
				t.Fatal(err)
			}
			sameStructure(t, tr.Root, ref.Root)
		})
	}
}

// refSTRTile is the comparison-sort STR tiler Build used before its radix
// sort, kept as the reference: it partitions ids into groups of at most
// cap records. On tie-free input any correct sort yields the same groups.
// Its sort is made stable, with −0 ordered below +0, so that on tied input
// it states Build's tie rule.
func refSTRTile(records []geom.Vector, ids []int, dim, dimIdx, cap int) [][]int {
	if len(ids) <= cap {
		return [][]int{ids}
	}
	sort.SliceStable(ids, func(a, b int) bool {
		x, y := records[ids[a]][dimIdx], records[ids[b]][dimIdx]
		return x < y || x == y && math.Signbit(x) && !math.Signbit(y)
	})
	if dimIdx == dim-1 {
		var out [][]int
		for i := 0; i < len(ids); i += cap {
			out = append(out, ids[i:min(i+cap, len(ids))])
		}
		return out
	}
	pages := (len(ids) + cap - 1) / cap
	slabs := ceilPow(pages, dim-dimIdx)
	slabSize := (len(ids) + slabs - 1) / slabs
	var out [][]int
	for i := 0; i < len(ids); i += slabSize {
		out = append(out, refSTRTile(records, ids[i:min(i+slabSize, len(ids))], dim, dimIdx+1, cap)...)
	}
	return out
}

// refLayout is refSTRTile's grouping of recs in LeafOrder form.
func refLayout(recs []geom.Vector, fanout int) (order, ends []int32) {
	ids := make([]int, len(recs))
	for i := range ids {
		ids[i] = i
	}
	for _, g := range refSTRTile(recs, ids, len(recs[0]), 0, fanout) {
		for _, id := range g {
			order = append(order, int32(id))
		}
		ends = append(ends, int32(len(order)))
	}
	return order, ends
}

// TestBuildMatchesReferenceSTR pins the radix-sorted tiler to the
// comparison-sort reference on tie-free data spanning negatives and large
// magnitudes: Build must equal the tree assembled from the reference
// layout, node for node.
func TestBuildMatchesReferenceSTR(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, fanout := range []int{2, 3, 16, 64} {
		for _, d := range []int{2, 3, 4, 6} {
			for _, n := range []int{1, 2, fanout, fanout + 1, 500, 5000} {
				recs := make([]geom.Vector, n)
				for i := range recs {
					v := make(geom.Vector, d)
					for j := range v {
						v[j] = (2*rng.Float64() - 1) * 1e6
					}
					recs[i] = v
				}
				order, ends := refLayout(recs, fanout)
				want, err := BuildFromOrder(recs, order, ends, WithFanout(fanout))
				if err != nil {
					t.Fatalf("fanout=%d d=%d n=%d: reference layout: %v", fanout, d, n, err)
				}
				got, err := Build(recs, WithFanout(fanout))
				if err != nil {
					t.Fatal(err)
				}
				if got.Pages() != want.Pages() {
					t.Fatalf("fanout=%d d=%d n=%d: %d pages, reference %d", fanout, d, n, got.Pages(), want.Pages())
				}
				sameStructure(t, got.Root, want.Root)
			}
		}
	}
}

// TestBuildAllocs bounds Build's allocations: tiling and assembly
// allocate per tree, not per node.
func TestBuildAllocs(t *testing.T) {
	recs := randRecords(rand.New(rand.NewSource(1)), 20000, 3)
	tr, err := Build(recs)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Build(recs); err != nil {
			t.Fatal(err)
		}
	})
	if perPage := allocs / float64(tr.Pages()); perPage > 3 {
		t.Fatalf("Build made %.0f allocations for %d pages (%.2f per page), want at most 3 per page",
			allocs, tr.Pages(), perPage)
	}
}

// bruteSkyband returns, ascending, the records other than record exclude
// (negative: none) that fewer than k of the other records dominate.
func bruteSkyband(recs []geom.Vector, k, exclude int) []int {
	var out []int
	for i, r := range recs {
		if i == exclude {
			continue
		}
		count := 0
		for j, s := range recs {
			if j != i && j != exclude && geom.Dominates(s, r) {
				if count++; count == k {
					break
				}
			}
		}
		if count < k {
			out = append(out, i)
		}
	}
	return out
}

// sumTiePairs holds a record and its dominator whose coordinate sums
// round to the same float, in both orders: a traversal ordered by sum
// alone can admit the dominated record before its dominator.
var sumTiePairs = [][]geom.Vector{
	{{0.5, 0, 0.5}, {0.5, 1e-17, 0.5}},
	{{0.5, 1e-17, 0.5}, {0.5, 0, 0.5}},
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSkylineMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 50 + rng.Intn(300)
		d := 2 + rng.Intn(4)
		recs := randRecords(rng, n, d)
		tr, err := Build(recs, WithFanout(8))
		if err != nil {
			t.Fatal(err)
		}
		got := tr.Skyline()
		want := bruteSkyband(recs, 1, -1)
		if !equalInts(got, want) {
			t.Fatalf("trial %d (n=%d d=%d): skyline %v != brute %v", trial, n, d, got, want)
		}
	}
	for _, recs := range sumTiePairs {
		tr, err := Build(recs, WithFanout(8))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tr.Skyline(), bruteSkyband(recs, 1, -1); !equalInts(got, want) {
			t.Fatalf("%v: skyline %v != brute %v", recs, got, want)
		}
	}
}

func TestKSkybandMatchesBruteForce(t *testing.T) {
	for _, ties := range []bool{false, true} {
		rng := rand.New(rand.NewSource(4))
		for trial := 0; trial < 15; trial++ {
			n := 80 + rng.Intn(200)
			d := 2 + rng.Intn(3)
			k := 1 + rng.Intn(5)
			recs := randRecords(rng, n, d)
			if ties {
				recs = randWarmRecords(rng, n, d, true)
			}
			tr, _ := Build(recs, WithFanout(8))
			got := tr.KSkyband(k)
			want := bruteSkyband(recs, k, -1)
			if !equalInts(got, want) {
				t.Fatalf("ties=%v trial %d (n=%d d=%d k=%d): skyband size %d != brute %d",
					ties, trial, n, d, k, len(got), len(want))
			}
		}
	}
	// The sum-tie pairs, through the traversal and through a band table,
	// whose counts say which record the other dominates.
	for _, recs := range sumTiePairs {
		for k := 1; k <= 2; k++ {
			tr, _ := Build(recs, WithFanout(8))
			want := bruteSkyband(recs, k, -1)
			if got := tr.KSkyband(k); !equalInts(got, want) {
				t.Fatalf("%v k=%d: skyband %v != brute %v", recs, k, got, want)
			}
			tr.SetBand(tr.KSkybandTable(k + 1))
			if got := tr.KSkyband(k); !equalInts(got, want) {
				t.Fatalf("%v k=%d: table-served skyband %v != brute %v", recs, k, got, want)
			}
		}
	}
}

func TestKSkybandK1IsSkyline(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	recs := randRecords(rng, 150, 3)
	tr, _ := Build(recs)
	if !equalInts(tr.KSkyband(1), bruteSkyband(recs, 1, -1)) {
		t.Fatal("1-skyband differs from skyline")
	}
	if tr.KSkyband(0) != nil {
		t.Fatal("0-skyband should be empty")
	}
}

// TestSkylineReadsBandTable checks that Skyline is served from a filled
// band-table slot: the traversal's ids, without visiting a page.
func TestSkylineReadsBandTable(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	recs := randRecords(rng, 2000, 3)
	tr, _ := Build(recs, WithFanout(8))
	want := bruteSkyband(recs, 1, -1)
	if got := tr.Skyline(); !equalInts(got, want) {
		t.Fatalf("traversed skyline %v != brute %v", got, want)
	}
	tr.KSkybandExcluding(3, -1) // fills the slot at depth 4
	var ct countTracker
	tr.SetTracker(&ct)
	got := tr.Skyline()
	tr.SetTracker(nil)
	if !equalInts(got, want) {
		t.Fatalf("table-served skyline %v != brute %v", got, want)
	}
	if ct.visits != 0 {
		t.Fatalf("table-served skyline visited %d pages", ct.visits)
	}
}

// TestTopKMatchesBruteForce pins TopK to a sort of every record by
// descending score, exact ties by ascending id: on random and on 5-value
// grid data (dense with exact score ties), under positive and under
// mixed-sign weights, ids and scores alike.
func TestTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 80; trial++ {
		n := 50 + rng.Intn(200)
		d := 2 + rng.Intn(3)
		grid, mixed := trial%2 == 1, trial%4 >= 2
		recs := randRecords(rng, n, d)
		if grid {
			recs = randWarmRecords(rng, n, d, true)
		}
		tr, _ := Build(recs, WithFanout(8))
		w := make(geom.Vector, d)
		for j := range w {
			switch {
			case mixed && grid:
				w[j] = float64(rng.Intn(5)-2) / 4
			case mixed:
				w[j] = 2*rng.Float64() - 1
			default:
				w[j] = rng.Float64() + 0.01
			}
		}
		k := 1 + rng.Intn(10)
		got := tr.TopK(w, k)
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		sort.SliceStable(ids, func(a, b int) bool {
			return recs[ids[a]].Dot(w) > recs[ids[b]].Dot(w)
		})
		want := ids[:k]
		if !equalInts(got, want) {
			t.Fatalf("trial %d (grid %v, weights %v): top-%d %v, want %v", trial, grid, w, k, got, want)
		}
	}
}

func TestDominators(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := randRecords(rng, 300, 3)
	tr, _ := Build(recs, WithFanout(8))
	p := geom.Vector{0.5, 0.5, 0.5}
	got := tr.Dominators(p, -1)
	var want []int
	for i, r := range recs {
		if geom.Dominates(r, p) {
			want = append(want, i)
		}
	}
	if !equalInts(got, want) {
		t.Fatalf("Dominators: got %d, want %d", len(got), len(want))
	}
}

// TestCountDominatorsMatchesBruteForce pins CountDominators to a direct
// count capped at the limit, on random data and on an integer grid dense
// with ties and duplicates, for probes that are records of the tree (so a
// record equal to p is always present), grid points and random points,
// across fanouts and every limit from 0 past the record count. It also
// runs the non-aggregate tree, which has no subtree counts to add.
func TestCountDominatorsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		d := 2 + trial%3
		n := 1 + rng.Intn(150)
		grid := trial%2 == 1
		recs := randRecords(rng, n, d)
		if grid {
			for i, r := range recs {
				if i > 0 && rng.Intn(5) == 0 {
					recs[i] = recs[rng.Intn(i)].Clone()
					continue
				}
				for j := range r {
					r[j] = float64(rng.Intn(4))
				}
			}
		}
		fanout := 4 + trial%13
		opts := []Option{WithFanout(fanout)}
		if trial%8 == 7 {
			opts = append(opts, WithoutAggregates())
		}
		tr, err := Build(recs, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 12; probe++ {
			p := recs[rng.Intn(n)]
			switch {
			case probe%3 == 1 && grid:
				p = make(geom.Vector, d)
				for j := range p {
					p[j] = float64(rng.Intn(4))
				}
			case probe%3 == 1:
				p = randRecords(rng, 1, d)[0]
			}
			want := 0
			for _, r := range recs {
				if geom.Dominates(r, p) {
					want++
				}
			}
			for limit := 0; limit <= n+1; limit++ {
				if got := tr.CountDominators(p, limit); got != min(want, limit) {
					t.Fatalf("trial %d (fanout %d, grid %v): CountDominators(%v, %d) = %d, want %d",
						trial, fanout, grid, p, limit, got, min(want, limit))
				}
			}
		}
	}
}

type countTracker struct{ visits int }

func (c *countTracker) Visit(int) { c.visits++ }

func TestTrackerCountsPages(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	recs := randRecords(rng, 500, 3)
	tr, _ := Build(recs, WithFanout(8))
	var ct countTracker
	tr.SetTracker(&ct)
	tr.Skyline()
	if ct.visits == 0 {
		t.Fatal("tracker saw no page visits")
	}
	if ct.visits > tr.Pages()*2 {
		t.Fatalf("suspiciously many visits: %d for %d pages", ct.visits, tr.Pages())
	}
	tr.SetTracker(nil)
	tr.Skyline() // must not panic
}

func TestWithoutAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	recs := randRecords(rng, 100, 2)
	tr, _ := Build(recs, WithoutAggregates(), WithFanout(8))
	if tr.Aggregate {
		t.Fatal("Aggregate flag not cleared")
	}
	// Structure-only queries still work.
	if got := tr.Skyline(); !equalInts(got, bruteSkyband(recs, 1, -1)) {
		t.Fatal("skyline broken on non-aggregate tree")
	}
}

func TestSingleRecordTree(t *testing.T) {
	tr, err := Build([]geom.Vector{{0.3, 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Skyline(); !equalInts(got, []int{0}) {
		t.Fatalf("skyline of singleton = %v", got)
	}
	if got := tr.TopK(geom.Vector{0.5, 0.5}, 3); len(got) != 1 || got[0] != 0 {
		t.Fatalf("top-3 of singleton = %v", got)
	}
}

func TestCeilPow(t *testing.T) {
	cases := []struct{ n, k, want int }{
		{8, 3, 2}, {9, 2, 3}, {10, 2, 4}, {1, 5, 1}, {27, 3, 3}, {28, 3, 4},
	}
	for _, c := range cases {
		if got := ceilPow(c.n, c.k); got != c.want {
			t.Errorf("ceilPow(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestHeightAndPages(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	recs := randRecords(rng, 1000, 3)
	tr, err := Build(recs, WithFanout(8))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d too small for 1000 records at fanout 8", tr.Height())
	}
	// Pages = total node count.
	count := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		count++
		for _, e := range n.Entries {
			if e.Child != nil {
				walk(e.Child)
			}
		}
	}
	walk(tr.Root)
	if tr.Pages() != count {
		t.Fatalf("Pages() = %d, counted %d nodes", tr.Pages(), count)
	}
}

func TestWithFanoutRejectsTiny(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	recs := randRecords(rng, 100, 2)
	tr, err := Build(recs, WithFanout(1)) // ignored: falls back to default
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 2 && tr.Height() != 1 {
		t.Fatalf("unexpected height %d for default fanout", tr.Height())
	}
}
