package rtree

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geom"
)

// patchBatch is one batch of a patch stream: dense ids of the parent to
// delete and to update (ascending, disjoint), the updated values in
// that order, and the records to append.
type patchBatch struct {
	deleted, updated []int
	values, inserts  []geom.Vector
}

// apply returns the next generation's records as Patch expects them.
func (b patchBatch) apply(recs []geom.Vector) []geom.Vector {
	next := make([]geom.Vector, 0, len(recs)+len(b.inserts))
	for i, r := range recs {
		if _, del := slices.BinarySearch(b.deleted, i); del {
			continue
		}
		if j, upd := slices.BinarySearch(b.updated, i); upd {
			r = b.values[j]
		}
		next = append(next, r)
	}
	return append(next, b.inserts...)
}

// patchPoint draws a record: uniform, or on a 5-value grid dense with
// ties and duplicates.
func patchPoint(rng *rand.Rand, d int, grid bool) geom.Vector {
	v := make(geom.Vector, d)
	for j := range v {
		if grid {
			v[j] = float64(rng.Intn(5)) / 4
		} else {
			v[j] = rng.Float64()
		}
	}
	return v
}

// randomBatch draws one batch of the shape named by step: deletes of the
// lowest or highest ids, updates, deletes of every record in one leaf,
// a cluster of inserts that splits leaves, or a mix of all three kinds.
func randomBatch(rng *rand.Rand, tr *Tree, step int, grid bool) patchBatch {
	n, d := tr.Len(), tr.Dim
	var b patchBatch
	pick := func(ids ...int) {
		for _, id := range ids {
			if id >= 0 && id < n && !slices.Contains(b.deleted, id) && !slices.Contains(b.updated, id) {
				b.deleted = append(b.deleted, id)
			}
		}
	}
	insert := func(m int) {
		for range m {
			b.inserts = append(b.inserts, patchPoint(rng, d, grid))
		}
	}
	switch step % 6 {
	case 0: // the lowest ids: every leaf holding a higher id is copied
		pick(0, 1+rng.Intn(3))
		insert(1 + rng.Intn(3))
	case 1: // the highest ids, as a sliding window of inserts deletes them
		pick(n-1, n-2)
		insert(2)
	case 2: // updates only
		for range 1 + rng.Intn(6) {
			if id := rng.Intn(n); !slices.Contains(b.updated, id) {
				b.updated = append(b.updated, id)
			}
		}
	case 3: // empty one leaf
		leaf := tr.leafLevel[rng.Intn(len(tr.leafLevel))].Child
		if len(leaf.Entries) < n {
			for _, e := range leaf.Entries {
				pick(e.RecordID)
			}
		}
		insert(rng.Intn(2))
	case 4: // a cluster of inserts: the leaf it lands in splits
		c := patchPoint(rng, d, grid)
		for range tr.fanout + 1 + rng.Intn(tr.fanout) {
			v := c.Clone()
			if !grid {
				for j := range v {
					v[j] += 1e-3 * rng.Float64()
				}
			}
			b.inserts = append(b.inserts, v)
		}
	default: // a mix
		pick(rng.Intn(n), rng.Intn(n))
		for range 2 {
			if id := rng.Intn(n); !slices.Contains(b.deleted, id) && !slices.Contains(b.updated, id) {
				b.updated = append(b.updated, id)
			}
		}
		insert(1 + rng.Intn(4))
	}
	slices.Sort(b.deleted)
	slices.Sort(b.updated)
	for range b.updated {
		b.values = append(b.values, patchPoint(rng, d, grid))
	}
	return b
}

// treeImage is a deep copy of everything a query reads off a tree:
// records, nodes in depth-first order with their pages, entries and
// MBR values. Two trees with equal images answer every query alike.
type treeImage struct {
	Records []geom.Vector
	Flat    []float64
	Nodes   []nodeImage
}

type nodeImage struct {
	Leaf    bool
	Page    int
	Entries []entryImage
}

type entryImage struct {
	Low, High geom.Vector
	Count     int
	RecordID  int
	Child     bool
}

func imageOf(tr *Tree) treeImage {
	img := treeImage{Flat: slices.Clone(tr.flat)}
	for _, r := range tr.Records {
		img.Records = append(img.Records, r.Clone())
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		ni := nodeImage{Leaf: n.Leaf, Page: n.Page}
		for _, e := range n.Entries {
			ni.Entries = append(ni.Entries, entryImage{e.Low.Clone(), e.High.Clone(), e.Count, e.RecordID, e.Child != nil})
		}
		img.Nodes = append(img.Nodes, ni)
		for _, e := range n.Entries {
			if e.Child != nil {
				walk(e.Child)
			}
		}
	}
	walk(tr.Root)
	return img
}

// checkPatchedTree asserts what every tree, patched or built, must
// hold: each record indexed once; leaves between 1 and fanout records,
// all at one depth; each entry's MBR and count exact for its subtree;
// unique page ids; Pages and Leaves the node and leaf counts.
func checkPatchedTree(t *testing.T, tr *Tree, recs []geom.Vector) {
	t.Helper()
	seen := make([]bool, len(recs))
	pages := map[int]bool{}
	leaves, depth := 0, -1
	// walk returns the MBR and record count of n's subtree.
	var walk func(n *Node, level int) (low, high geom.Vector, count int)
	walk = func(n *Node, level int) (low, high geom.Vector, count int) {
		if pages[n.Page] {
			t.Fatalf("page %d used twice", n.Page)
		}
		pages[n.Page] = true
		if len(n.Entries) == 0 || len(n.Entries) > tr.fanout {
			t.Fatalf("page %d holds %d entries (fanout %d)", n.Page, len(n.Entries), tr.fanout)
		}
		low, high = make(geom.Vector, tr.Dim), make(geom.Vector, tr.Dim)
		for i, e := range n.Entries {
			var elo, ehi geom.Vector
			var c int
			if n.Leaf {
				id := e.RecordID
				if e.Child != nil || id < 0 || id >= len(recs) || seen[id] {
					t.Fatalf("leaf page %d: bad or repeated record %d", n.Page, id)
				}
				seen[id] = true
				if !reflect.DeepEqual(e.Low, recs[id]) || !reflect.DeepEqual(e.High, recs[id]) || e.Count != 1 {
					t.Fatalf("leaf page %d: entry of record %d is %v..%v (count %d), record is %v", n.Page, id, e.Low, e.High, e.Count, recs[id])
				}
				elo, ehi, c = recs[id], recs[id], 1
			} else {
				elo, ehi, c = walk(e.Child, level+1)
				want := c
				if !tr.Aggregate {
					want = 0
				}
				if !reflect.DeepEqual(e.Low, elo) || !reflect.DeepEqual(e.High, ehi) || e.Count != want {
					t.Fatalf("page %d slot %d: entry %v..%v count %d, subtree %v..%v count %d", n.Page, i, e.Low, e.High, e.Count, elo, ehi, want)
				}
			}
			for j := range low {
				if i == 0 || elo[j] < low[j] {
					low[j] = elo[j]
				}
				if i == 0 || ehi[j] > high[j] {
					high[j] = ehi[j]
				}
			}
			count += c
		}
		if n.Leaf {
			leaves++
			if depth >= 0 && depth != level {
				t.Fatalf("leaves at depths %d and %d", depth, level)
			}
			depth = level
		}
		return low, high, count
	}
	if _, _, count := walk(tr.Root, 0); count != len(recs) || tr.Len() != len(recs) {
		t.Fatalf("tree indexes %d records (Len %d), want %d", count, tr.Len(), len(recs))
	}
	if !reflect.DeepEqual(tr.Records, recs) {
		t.Fatal("tree records differ from the input")
	}
	if tr.Pages() != len(pages) || tr.Leaves() != leaves {
		t.Fatalf("Pages %d Leaves %d, walked %d nodes and %d leaves", tr.Pages(), tr.Leaves(), len(pages), leaves)
	}
}

// sameShape compares two trees node by node like sameStructure, page
// ids aside.
func sameShape(t *testing.T, a, b *Node) {
	t.Helper()
	if a.Leaf != b.Leaf || len(a.Entries) != len(b.Entries) {
		t.Fatalf("node shape mismatch: leaf %v/%v entries %d/%d", a.Leaf, b.Leaf, len(a.Entries), len(b.Entries))
	}
	for i := range a.Entries {
		ea, eb := a.Entries[i], b.Entries[i]
		if !reflect.DeepEqual(ea.Low, eb.Low) || !reflect.DeepEqual(ea.High, eb.High) ||
			ea.Count != eb.Count || ea.RecordID != eb.RecordID || (ea.Child == nil) != (eb.Child == nil) {
			t.Fatalf("entry mismatch at slot %d", i)
		}
		if ea.Child != nil {
			sameShape(t, ea.Child, eb.Child)
		}
	}
}

// sameAnswers asserts that the patched tree answers every query like a
// cold build over the same records.
func sameAnswers(t *testing.T, rng *rand.Rand, patched, cold *Tree, grid bool) {
	t.Helper()
	d := cold.Dim
	if got, want := patched.Skyline(), cold.Skyline(); !equalInts(got, want) {
		t.Fatalf("skyline %v, cold %v", got, want)
	}
	for _, k := range []int{1, 2, 4, 7} {
		if got, want := patched.KSkyband(k), cold.KSkyband(k); !equalInts(got, want) {
			t.Fatalf("%d-skyband %v, cold %v", k, got, want)
		}
		if got, want := patched.KSkybandTable(k), cold.KSkybandTable(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-skyband table %v, cold %v", k, got, want)
		}
	}
	for range 6 {
		p := patchPoint(rng, d, grid)
		if rng.Intn(2) == 0 {
			p = cold.Records[rng.Intn(cold.Len())]
		}
		exclude := rng.Intn(cold.Len()+1) - 1
		if got, want := patched.Dominators(p, exclude), cold.Dominators(p, exclude); !equalInts(got, want) {
			t.Fatalf("Dominators(%v, %d) %v, cold %v", p, exclude, got, want)
		}
		limit := rng.Intn(cold.Len() + 2)
		if got, want := patched.CountDominators(p, limit), cold.CountDominators(p, limit); got != want {
			t.Fatalf("CountDominators(%v, %d) %d, cold %d", p, limit, got, want)
		}
		w := make(geom.Vector, d)
		for j := range w {
			w[j] = 2*rng.Float64() - 1
			if grid {
				w[j] = float64(rng.Intn(5)-1) / 4
			}
		}
		k := 1 + rng.Intn(12)
		if got, want := patched.TopK(w, k), cold.TopK(w, k); !equalInts(got, want) {
			t.Fatalf("TopK(%v, %d) %v, cold %v", w, k, got, want)
		}
	}
}

// TestPatchStreams runs patch streams at d = 2..5 and at fanout 4, 8 and
// the default, on random or grid data by turns, so that every fanout and
// every d meets both. Batches delete the lowest and the highest ids,
// update, empty whole leaves, split leaves with clusters of inserts, and
// mix all three. After each patch the tree holds every invariant of a
// tree, equals BuildFromOrder of its own leaf order node by node (page
// ids aside), answers every query like a cold Build, and its parent is
// unchanged.
func TestPatchStreams(t *testing.T) {
	for fi, fanout := range []int{4, 8, DefaultFanout} {
		for d := 2; d <= 5; d++ {
			grid := (fi+d)%2 == 1
			rng := rand.New(rand.NewSource(int64(100*fanout + 10*d)))
			n := 8 * fanout
			recs := make([]geom.Vector, n)
			for i := range recs {
				recs[i] = patchPoint(rng, d, grid)
			}
			tr, err := Build(recs, WithFanout(fanout))
			if err != nil {
				t.Fatal(err)
			}
			splits, drops := 0, 0
			for step := range 24 {
				b := randomBatch(rng, tr, step, grid)
				next := b.apply(recs)
				before := imageOf(tr)
				patched, err := tr.Patch(next, b.deleted, b.updated, len(b.inserts))
				if err != nil {
					t.Fatalf("fanout %d d=%d grid %v step %d: %v", fanout, d, grid, step, err)
				}
				if !reflect.DeepEqual(imageOf(tr), before) {
					t.Fatalf("fanout %d d=%d grid %v step %d: the parent changed", fanout, d, grid, step)
				}
				checkPatchedTree(t, patched, next)
				order, ends := patched.LeafOrder()
				rebuilt, err := BuildFromOrder(next, order, ends, WithFanout(fanout))
				if err != nil {
					t.Fatalf("step %d: BuildFromOrder of the patched layout: %v", step, err)
				}
				sameShape(t, patched.Root, rebuilt.Root)
				cold, err := Build(next, WithFanout(fanout))
				if err != nil {
					t.Fatal(err)
				}
				sameAnswers(t, rng, patched, cold, grid)
				switch {
				case patched.Leaves() > tr.Leaves():
					splits++
				case patched.Leaves() < tr.Leaves():
					drops++
				}
				tr, recs = patched, next
			}
			if splits == 0 || drops == 0 {
				t.Fatalf("fanout %d d=%d grid %v: leaves grew in %d patches and shrank in %d", fanout, d, grid, splits, drops)
			}
		}
	}
}

// TestPatchSharesUntouchedLeaves pins the copy-on-write rule: a batch
// that deletes the highest id and inserts one record copies at most the
// leaves holding them, and shares every other leaf node with the parent.
func TestPatchSharesUntouchedLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	recs := randRecords(rng, 5000, 3)
	tr, err := Build(recs)
	if err != nil {
		t.Fatal(err)
	}
	b := patchBatch{deleted: []int{len(recs) - 1}, inserts: []geom.Vector{{0.25, 0.25, 0.25}}}
	patched, err := tr.Patch(b.apply(recs), b.deleted, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	parent := map[*Node]bool{}
	for _, e := range tr.leafLevel {
		parent[e.Child] = true
	}
	shared := 0
	for _, e := range patched.leafLevel {
		if parent[e.Child] {
			shared++
		}
	}
	if shared < tr.Leaves()-2 {
		t.Fatalf("patched tree shares %d of the parent's %d leaves, want all but at most 2", shared, tr.Leaves())
	}
}

// TestPatchWithoutAggregates patches a plain R-tree: its internal
// entries keep counting nothing.
func TestPatchWithoutAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	recs := randRecords(rng, 300, 3)
	tr, err := Build(recs, WithFanout(8), WithoutAggregates())
	if err != nil {
		t.Fatal(err)
	}
	for step := range 12 {
		b := randomBatch(rng, tr, step, false)
		next := b.apply(recs)
		if tr, err = tr.Patch(next, b.deleted, b.updated, len(b.inserts)); err != nil {
			t.Fatal(err)
		}
		checkPatchedTree(t, tr, next)
		recs = next
	}
}

// ids returns 0..n-1.
func ids(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestPatchRejectsBadInput covers the argument checks: ids out of range,
// not ascending, repeated or both updated and deleted, a record count
// that does not match, and records of another width.
func TestPatchRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := randRecords(rng, 40, 3)
	tr, err := Build(recs, WithFanout(4))
	if err != nil {
		t.Fatal(err)
	}
	rest := recs[1:]
	for name, tc := range map[string]struct {
		recs             []geom.Vector
		deleted, updated []int
		inserted         int
	}{
		"out of range":      {rest, []int{40}, nil, 0},
		"negative":          {recs, nil, []int{-1}, 0},
		"descending":        {recs[2:], []int{5, 3}, nil, 0},
		"repeated":          {recs, nil, []int{3, 3}, 0},
		"updated & deleted": {rest, []int{3}, []int{3}, 0},
		"count":             {recs, []int{0}, nil, 0},
		"negative inserts":  {rest, nil, nil, -1},
		"emptied":           {nil, ids(40), nil, 0},
		"width":             {randRecords(rng, 40, 2), nil, nil, 0},
	} {
		if _, err := tr.Patch(tc.recs, tc.deleted, tc.updated, tc.inserted); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
