package kspr

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
)

func liveRecords(seed int64, n, d int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	recs := make([][]float64, n)
	for i := range recs {
		recs[i] = make([]float64, d)
		for j := range recs[i] {
			recs[i][j] = rng.Float64()
		}
	}
	return recs
}

func TestApplyInMemory(t *testing.T) {
	db, err := Open(liveRecords(1, 50, 3))
	if err != nil {
		t.Fatal(err)
	}
	if db.Generation() != 1 {
		t.Fatalf("initial generation %d", db.Generation())
	}
	res, err := db.Apply(Insert(0.9, 0.9, 0.9), Delete(3), Update(5, 0.1, 0.2, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 2 {
		t.Fatalf("generation %d, want 2", res.Generation)
	}
	if db.Len() != 50 {
		t.Fatalf("len %d, want 50", db.Len())
	}
	if res.IDs[0] != 50 {
		t.Fatalf("assigned id %d, want 50", res.IDs[0])
	}
	if res.Deltas[1].Old == nil || res.Deltas[1].New != nil {
		t.Fatalf("delete delta %+v", res.Deltas[1])
	}
	// Stable id 5 still maps to its (shifted) dense index with new values.
	dense, ok := db.DenseIndex(5)
	if !ok {
		t.Fatal("id 5 lost")
	}
	if got := db.Record(dense); got[0] != 0.1 {
		t.Fatalf("update not visible: %v", got)
	}
	if _, ok := db.DenseIndex(3); ok {
		t.Fatal("deleted id still resolves")
	}
	// Invalid batches are atomic no-ops.
	if _, err := db.Apply(Insert(0.5, 0.5, 0.5), Delete(3)); err == nil {
		t.Fatal("bad batch accepted")
	}
	if db.Generation() != 2 || db.Len() != 50 {
		t.Fatalf("failed batch changed state: gen=%d len=%d", db.Generation(), db.Len())
	}
}

func TestFreezePinsGeneration(t *testing.T) {
	db, err := Open(liveRecords(2, 40, 3))
	if err != nil {
		t.Fatal(err)
	}
	frozen := db.Freeze()
	if _, err := db.Apply(Delete(0)); err != nil {
		t.Fatal(err)
	}
	if frozen.Len() != 40 || db.Len() != 39 {
		t.Fatalf("frozen len %d / live len %d", frozen.Len(), db.Len())
	}
	if frozen.Generation() != 1 || db.Generation() != 2 {
		t.Fatalf("frozen gen %d / live gen %d", frozen.Generation(), db.Generation())
	}
	if _, err := frozen.Apply(Delete(1)); err == nil {
		t.Fatal("Apply on frozen handle accepted")
	}
	// Queries on the frozen handle still work and see the old dataset.
	if _, err := frozen.KSPR(0, 3); err != nil {
		t.Fatalf("frozen query: %v", err)
	}
}

// TestCloseStopsApply pins that both kinds of DB close alike: Apply
// fails after Close, while a handle frozen before it keeps answering.
func TestCloseStopsApply(t *testing.T) {
	durable, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var muts []Mutation
	for _, r := range liveRecords(5, 30, 3) {
		muts = append(muts, Insert(r...))
	}
	if _, err := durable.Apply(muts...); err != nil {
		t.Fatal(err)
	}
	mem, err := Open(liveRecords(5, 30, 3))
	if err != nil {
		t.Fatal(err)
	}
	for name, db := range map[string]*DB{"OpenStore": durable, "Open": mem} {
		frozen := db.Freeze()
		if err := db.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
		if _, err := db.Apply(Insert(0.5, 0.5, 0.5)); err == nil {
			t.Fatalf("%s: Apply after Close accepted", name)
		}
		if err := frozen.Close(); err != nil {
			t.Fatalf("%s: Close on a frozen handle: %v", name, err)
		}
		if _, err := frozen.KSPR(frozen.Skyline()[0], 3); err != nil {
			t.Fatalf("%s: frozen handle stopped answering after Close: %v", name, err)
		}
	}
}

func TestOpenStoreRecovers(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenStore(dir, WithSnapshotEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 0 || db.Generation() != 0 {
		t.Fatalf("fresh store: len=%d gen=%d", db.Len(), db.Generation())
	}
	// Queries on an empty dataset error cleanly rather than panicking.
	if _, err := db.KSPR(0, 3); err == nil {
		t.Fatal("query on empty dataset accepted")
	}
	if _, err := db.KSPRVector([]float64{0.5, 0.5}, 3); err == nil {
		t.Fatal("vector query on empty dataset accepted")
	}

	muts := []Mutation{}
	for _, r := range liveRecords(3, 30, 3) {
		muts = append(muts, Insert(r...))
	}
	if _, err := db.Apply(muts...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if _, err := db.Apply(Insert(0.2, 0.3, 0.4)); err != nil {
			t.Fatal(err)
		}
	}
	wantGen, wantLen := db.Generation(), db.Len()
	wantSky := db.Skyline()

	// Crash: reopen without Close.
	db2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Generation() != wantGen || db2.Len() != wantLen {
		t.Fatalf("recovered gen=%d len=%d, want gen=%d len=%d",
			db2.Generation(), db2.Len(), wantGen, wantLen)
	}
	got := db2.Skyline()
	if len(got) != len(wantSky) {
		t.Fatalf("recovered skyline %v, want %v", got, wantSky)
	}
	for i := range got {
		if got[i] != wantSky[i] {
			t.Fatalf("recovered skyline %v, want %v", got, wantSky)
		}
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWatchAndMaintainKSPR(t *testing.T) {
	db, err := Open(liveRecords(4, 120, 3))
	if err != nil {
		t.Fatal(err)
	}
	var events []ApplyEvent
	cancel := db.Watch(func(ev ApplyEvent) { events = append(events, ev) })
	defer cancel()

	band := db.KSkyband(5)
	focal := band[len(band)/2]
	lq, err := db.MaintainKSPR(focal, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer lq.Close()

	focalStable, _ := db.StableID(focal)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 12; i++ {
		var err error
		switch i % 3 {
		case 0: // irrelevant: deep-interior insert
			_, err = db.Apply(Insert(0.02+0.05*rng.Float64(), 0.02, 0.02))
		case 1: // relevant: skyline-ish insert
			_, err = db.Apply(Insert(0.9+0.1*rng.Float64(), 0.9, 0.95))
		default: // delete a non-focal record
			st, _ := db.StableID(rng.Intn(db.Len()))
			if st == focalStable {
				st, _ = db.StableID(0)
			}
			_, err = db.Apply(Delete(st))
		}
		if err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}

		res, gen, err := lq.Result()
		if err != nil {
			t.Fatalf("maintained result %d: %v", i, err)
		}
		if gen != db.Generation() {
			t.Fatalf("maintained gen %d, live gen %d", gen, db.Generation())
		}
		dense, ok := db.DenseIndex(focalStable)
		if !ok {
			t.Fatal("focal disappeared")
		}
		cold, err := db.KSPR(dense, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(core.EncodeResult(res), core.EncodeResult(cold)) {
			t.Fatalf("step %d: maintained result != cold query", i)
		}
	}
	if len(events) != 12 {
		t.Fatalf("watcher saw %d events, want 12", len(events))
	}
	st := lq.Stats()
	if st.Kept == 0 || st.Recomputed == 0 {
		t.Fatalf("maintained query stats %+v: want both paths exercised", st)
	}

	// Deleting the focal option poisons the maintained query.
	if _, err := db.Apply(Delete(focalStable)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := lq.Result(); err == nil {
		t.Fatal("maintained query survived focal deletion")
	}
}

func TestMutationImpactClassification(t *testing.T) {
	db, err := Open([][]float64{
		{0.9, 0.9}, {0.8, 0.95}, {0.95, 0.8}, // skyline
		{0.5, 0.5}, // focal
		{0.7, 0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	old := db.Freeze()
	res, err := db.Apply(Insert(0.6, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	cur := db.Freeze()
	mi := NewMutationImpact(old, cur, res.Deltas, 5)
	focal := old.Record(3)
	if !mi.Unaffected(focal, 2, LPCTA) {
		t.Fatal("2-dominated insert classified affecting at k=2")
	}
	if mi.Unaffected(focal, 5, LPCTA) {
		t.Fatal("insert classified unaffecting at k=5 (only 4 dominators exist)")
	}
	if mi.Unaffected(focal, 2, CTA) {
		t.Fatal("CTA must not keep through Tier B")
	}
	// Tier A: a record below the focal is irrelevant for any algorithm.
	res2, err := db.Apply(Insert(0.2, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	mi2 := NewMutationImpact(cur, db.Freeze(), res2.Deltas, 2)
	if !mi2.Unaffected(focal, 2, CTA) {
		t.Fatal("focal-dominated insert classified affecting for CTA")
	}
}

// TestImpactProbabilitySamplesContract pins the documented guard:
// samples <= 0 (or a nil result) yields 0, never NaN or a silent
// default.
func TestImpactProbabilitySamplesContract(t *testing.T) {
	db, err := Open(liveRecords(6, 60, 3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.KSPR(db.KSkyband(3)[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, samples := range []int{0, -1, -100} {
		if got := db.ImpactProbability(res, samples, 1); got != 0 {
			t.Fatalf("ImpactProbability(samples=%d) = %v, want 0", samples, got)
		}
		if got := db.ImpactProbabilityPDF(res, func([]float64) float64 { return 1 }, samples, 1); got != 0 {
			t.Fatalf("ImpactProbabilityPDF(samples=%d) = %v, want 0", samples, got)
		}
	}
	if got := db.ImpactProbability(nil, 1000, 1); got != 0 {
		t.Fatalf("ImpactProbability(nil res) = %v, want 0", got)
	}
	if got := db.ImpactProbability(res, 5000, 1); got <= 0 || got > 1 {
		t.Fatalf("positive-samples probability %v out of (0, 1]", got)
	}
}

// TestOpenStoreOptions exercises the store option surface: WAL fsync
// and forced snapshots.
func TestOpenStoreOptions(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenStore(dir, WithWALSync(), WithSnapshotEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SnapshotStore(); err != nil {
		t.Fatalf("snapshot of empty store: %v", err)
	}
	if _, err := db.Apply(Insert(0.1, 0.2), Insert(0.3, 0.4)); err != nil {
		t.Fatal(err)
	}
	if err := db.SnapshotStore(); err != nil {
		t.Fatalf("forced snapshot: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Generation() != 1 || db2.Len() != 2 {
		t.Fatalf("recovered gen=%d len=%d", db2.Generation(), db2.Len())
	}
	// In-memory DBs have no store to snapshot.
	mem, err := Open(liveRecords(8, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.SnapshotStore(); err == nil {
		t.Fatal("SnapshotStore on an in-memory DB accepted")
	}
	if err := mem.Close(); err != nil {
		t.Fatalf("in-memory Close: %v", err)
	}
}
