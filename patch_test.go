package kspr

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/rtree"
	"repro/internal/store"
)

// patched reports whether Apply patched the DB's index rather than
// building it. A build numbers its pages 0..Pages()-1; a patch numbers
// every node it makes past the parent's pages and makes at least one, so
// its highest page id is at least Pages().
func patched(db *DB) bool {
	tr := db.cur().tree
	top := 0
	var walk func(n *rtree.Node)
	walk = func(n *rtree.Node) {
		top = max(top, n.Page)
		for _, e := range n.Entries {
			if e.Child != nil {
				walk(e.Child)
			}
		}
	}
	walk(tr.Root)
	return top >= tr.Pages()
}

// rowsOf returns a copy of the DB's records in dense order.
func rowsOf(db *DB) [][]float64 {
	rows := make([][]float64, db.Len())
	for i := range rows {
		rows[i] = db.Record(i)
	}
	return rows
}

// assertAnswersLikeOpen requires db to answer like kspr.Open of its own
// rows: every algorithm and the skybands (assertSameResults), TopK
// under positive and mixed-sign weights, and Rank.
func assertAnswersLikeOpen(t *testing.T, rng *rand.Rand, db *DB) {
	t.Helper()
	cold, err := Open(rowsOf(db))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, db, cold)
	d := db.Dim()
	for range 8 {
		w := make([]float64, d)
		for j := range w {
			w[j] = 2*rng.Float64() - 1
		}
		if rng.Intn(2) == 0 {
			for j := range w {
				w[j] = float64(rng.Intn(3)) / 2
			}
		}
		k := 1 + rng.Intn(10)
		if got, want := db.TopK(w, k), cold.TopK(w, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("TopK(%v, %d) %v, cold %v", w, k, got, want)
		}
		focal := rng.Intn(db.Len())
		if got, want := db.Rank(focal, w), cold.Rank(focal, w); got != want {
			t.Fatalf("Rank(%d, %v) %d, cold %d", focal, w, got, want)
		}
	}
}

// underLeafCap reports whether the DB's index has fewer leaves than
// Apply's cap for patching it.
func underLeafCap(db *DB) bool {
	tr := db.cur().tree
	return float64(tr.Leaves()) < patchLeafGrowth*float64((tr.Len()+rtree.DefaultFanout-1)/rtree.DefaultFanout)
}

// patchStream applies batches shaped like the wide workload's writer
// (an insert plus the delete of the previous insert), updates, deletes
// of the highest ids, and mixes of the three. Each patches while the
// index is under the leaf cap and builds once splits have pushed it
// there, most patch, and the DB answers like a cold Open of its rows.
// Values are drawn from a 5-value grid every other batch, so exact ties
// meet the patched leaves.
func patchStream(t *testing.T, db *DB, rng *rand.Rand, batches int) {
	t.Helper()
	d := db.Dim()
	point := func(grid bool) []float64 {
		v := make([]float64, d)
		for j := range v {
			if grid {
				v[j] = float64(rng.Intn(5)) / 4
			} else {
				v[j] = 0.5 * rng.Float64()
			}
		}
		return v
	}
	last := int64(-1)
	patches := 0
	for step := range batches {
		grid := step%2 == 1
		st := db.cur()
		n := st.len()
		var muts []Mutation
		switch step % 4 {
		case 0:
			muts = append(muts, Insert(point(grid)...))
			if last >= 0 {
				muts = append(muts, Delete(last))
			}
		case 1:
			muts = append(muts, Update(st.stableID(rng.Intn(n/2)), point(grid)...),
				Update(st.stableID(n/2+rng.Intn(n/2)), point(grid)...))
		case 2:
			muts = append(muts, Delete(st.stableID(n-1)), Delete(st.stableID(n-3)), Insert(point(grid)...))
		default:
			muts = append(muts, Insert(point(grid)...), Update(st.stableID(rng.Intn(n)), point(grid)...),
				Delete(st.stableID(n-2)), Insert(point(grid)...))
		}
		before := db.Freeze()
		res, err := db.Apply(muts...)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		last = -1
		if step%4 == 0 {
			last = res.IDs[0]
		}
		if got, want := patched(db), underLeafCap(before); got != want {
			t.Fatalf("step %d: batch %v patched %v, want %v", step, muts, got, want)
		} else if got {
			patches++
		}
		if step%3 == 2 || step == batches-1 {
			assertAnswersLikeOpen(t, rng, db)
		}
	}
	if 2*patches < batches {
		t.Fatalf("%d of %d batches patched", patches, batches)
	}
}

// TestApplyPatchMatchesOpen runs patch streams on a DB built by Open and
// on a WAL-backed one, and then requires a warm and a cold restart of
// the WAL-backed store to answer like the live DB.
func TestApplyPatchMatchesOpen(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mem, err := Open(liveRecords(31, 2000, 3))
	if err != nil {
		t.Fatal(err)
	}
	patchStream(t, mem, rng, 24)

	dir := t.TempDir()
	wal := fillStore(t, dir, 2000)
	patchStream(t, wal, rng, 24)
	if err := wal.SnapshotStore(); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	warm, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if !warm.IndexWarm() {
		t.Fatal("the patched layout did not reopen warm")
	}
	assertSameResults(t, warm, wal)
	if err := os.Remove(filepath.Join(dir, store.IndexFileName)); err != nil {
		t.Fatal(err)
	}
	cold, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if cold.IndexWarm() {
		t.Fatal("reopen without an index file claims to be warm")
	}
	assertSameResults(t, cold, wal)
}

// TestApplyFallsBackToBuild pins each rule that makes Apply build rather
// than patch, on a batch that would patch but for that rule: an insert
// deleted in its own batch, an id named twice, a batch of inserts as
// large as patchBatchShare of the leaves, a delete of a low id, a
// reload, and a parent whose splits have grown its leaves past the cap.
func TestApplyFallsBackToBuild(t *testing.T) {
	db, err := Open(liveRecords(41, 4000, 3))
	if err != nil {
		t.Fatal(err)
	}
	apply := func(name string, wantPatch bool, muts ...Mutation) *ApplyResult {
		t.Helper()
		res, err := db.Apply(muts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := patched(db); got != wantPatch {
			t.Fatalf("%s: patched %v, want %v", name, got, wantPatch)
		}
		return res
	}
	res := apply("insert", true, Insert(0.2, 0.2, 0.2))
	apply("insert deleted in its batch", false, Insert(0.3, 0.3, 0.3), Delete(res.IDs[0]+1))
	apply("id named twice", false, Update(500, 0.1, 0.1, 0.1), Update(500, 0.2, 0.2, 0.2))
	apply("delete of the highest id", true, Delete(db.cur().stableID(db.Len()-1)))
	bulk := make([]Mutation, int(patchBatchShare*float64(db.cur().tree.Leaves()))+1)
	for i := range bulk {
		bulk[i] = Insert(0.4, 0.4, 0.4)
	}
	apply("bulk batch", false, bulk...)
	apply("batch under the share", true, bulk[:len(bulk)-2]...)
	apply("delete of a low id", false, Delete(db.cur().stableID(3)))
	rows := rowsOf(db)
	reload := make([]Mutation, 0, 2*len(rows))
	for i := range rows {
		reload = append(reload, Delete(db.cur().stableID(i)))
	}
	for _, r := range rows {
		reload = append(reload, Insert(r...))
	}
	apply("reload", false, reload...)

	// Updates that move records into one corner split the leaves there
	// until the parent carries patchLeafGrowth × ceil(n/fanout) leaves;
	// the batch after that builds, and the leaf count falls back.
	rng := rand.New(rand.NewSource(42))
	n := db.Len()
	for step := 0; underLeafCap(db); step++ {
		if step == 400 {
			t.Fatalf("leaves stuck at %d, under the cap", db.cur().tree.Leaves())
		}
		var muts []Mutation
		for _, i := range rng.Perm(n)[:12] {
			v := []float64{0.9 + 0.1*rng.Float64(), 0.9 + 0.1*rng.Float64(), 0.9 + 0.1*rng.Float64()}
			muts = append(muts, Update(db.cur().stableID(i), v...))
		}
		apply("corner updates", true, muts...)
	}
	apply("leaf cap", false, Update(db.cur().stableID(0), 0.5, 0.5, 0.5))
	if !underLeafCap(db) {
		t.Fatalf("rebuilt tree has %d leaves, over the cap", db.cur().tree.Leaves())
	}
}

// TestApplyPatchWhileFrozenReads races queries on a frozen generation
// against Apply patching new generations from it: the frozen answers
// never change (run with -race).
func TestApplyPatchWhileFrozenReads(t *testing.T) {
	db, err := Open(liveRecords(51, 800, 3))
	if err != nil {
		t.Fatal(err)
	}
	frozen := db.Freeze()
	w := []float64{0.5, 0.3, 0.2}
	wantKSPR, err := frozen.KSPR(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantBand, wantTop := frozen.KSkyband(3), frozen.TopK(w, 8)
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 6 {
				got, err := frozen.KSPR(7, 5)
				if err != nil || !reflect.DeepEqual(got.Regions, wantKSPR.Regions) ||
					!reflect.DeepEqual(frozen.KSkyband(3), wantBand) || !reflect.DeepEqual(frozen.TopK(w, 8), wantTop) {
					errs <- "a frozen generation answered differently during Apply"
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(52))
	for range 30 {
		n := db.Len()
		if _, err := db.Apply(Insert(rng.Float64(), rng.Float64(), rng.Float64()),
			Update(db.cur().stableID(rng.Intn(n)), rng.Float64(), rng.Float64(), rng.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
