package kspr

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rtree"
	"repro/internal/store"
)

// fillStore opens a store-backed DB at dir and applies n random records.
func fillStore(t *testing.T, dir string, n int, opts ...StoreOption) *DB {
	t.Helper()
	db, err := OpenStore(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	muts := []Mutation{}
	for _, r := range liveRecords(17, n, 3) {
		muts = append(muts, Insert(r...))
	}
	if _, err := db.Apply(muts...); err != nil {
		t.Fatal(err)
	}
	return db
}

// assertSameResults runs every algorithm on both handles and requires
// byte-identical encoded results — the acceptance bar for the persisted
// index: a warm restart may never change an answer, only skip work.
func assertSameResults(t *testing.T, warm, cold *DB) {
	t.Helper()
	algos := map[string]Algorithm{
		"CTA": CTA, "P-CTA": PCTA, "LP-CTA": LPCTA, "KSkybandCTA": KSkybandCTA,
	}
	for name, algo := range algos {
		for _, focal := range []int{0, 7, 31} {
			w, err := warm.KSPR(focal, 5, WithAlgorithm(algo))
			if err != nil {
				t.Fatalf("%s focal %d warm: %v", name, focal, err)
			}
			c, err := cold.KSPR(focal, 5, WithAlgorithm(algo))
			if err != nil {
				t.Fatalf("%s focal %d cold: %v", name, focal, err)
			}
			if !bytes.Equal(core.EncodeResult(w), core.EncodeResult(c)) {
				t.Fatalf("%s focal %d: warm result differs from cold", name, focal)
			}
		}
	}
	// Non-kSPR read paths must agree too (skyband queries within the
	// band-table slot's depth are served off the table).
	for k := 1; k <= 12; k++ {
		w, c := warm.KSkyband(k), cold.KSkyband(k)
		if len(w) != len(c) {
			t.Fatalf("k-skyband %d: warm %v cold %v", k, w, c)
		}
		for i := range w {
			if w[i] != c[i] {
				t.Fatalf("k-skyband %d: warm %v cold %v", k, w, c)
			}
		}
	}
}

// assertSlotFilledByQuery pins the band-table contract of a freshly
// installed generation, whether it was opened warm, opened cold or
// produced by Apply: the slot starts empty, and the first kSPR query
// fills it at depth k+1.
func assertSlotFilledByQuery(t *testing.T, db *DB, k int) {
	t.Helper()
	tree := db.cur().tree
	if b := tree.Band(); b != nil {
		t.Fatalf("band-table slot holds a depth-%d table before any query", b.K)
	}
	focal := db.KSkyband(1)[0] // a skyline focal runs the whole engine
	if _, err := db.KSPR(focal, k); err != nil {
		t.Fatal(err)
	}
	if b := tree.Band(); b == nil || b.K != k+1 {
		t.Fatalf("first query left the band-table slot at %+v, want depth %d", b, k+1)
	}
}

func TestOpenStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	db := fillStore(t, dir, 60)
	if err := db.SnapshotStore(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, store.IndexFileName)); err != nil {
		t.Fatalf("snapshot did not persist the index: %v", err)
	}

	warm, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.IndexWarm() {
		t.Fatal("restart with a persisted index was not warm")
	}
	assertSlotFilledByQuery(t, warm, 5)
	// Frozen handles pin the warm flag with the generation.
	if !warm.Freeze().IndexWarm() {
		t.Fatal("frozen handle lost the warm flag")
	}

	// A cold control: same store with the index file removed.
	if err := os.Remove(filepath.Join(dir, store.IndexFileName)); err != nil {
		t.Fatal(err)
	}
	cold, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cold.IndexWarm() {
		t.Fatal("restart without an index file claims to be warm")
	}
	assertSlotFilledByQuery(t, cold, 5)
	assertSameResults(t, warm, cold)

	// The cold open rewrote the index, so the next restart is warm again.
	again, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !again.IndexWarm() {
		t.Fatal("cold open did not persist a fresh index")
	}
}

func TestOpenStoreCorruptIndexFallsBack(t *testing.T) {
	dir := t.TempDir()
	db := fillStore(t, dir, 40)
	if err := db.SnapshotStore(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	path := filepath.Join(dir, store.IndexFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("corrupt index must not fail the open: %v", err)
	}
	if db2.IndexWarm() {
		t.Fatal("corrupt index served a warm start")
	}
	if db2.Len() != 40 {
		t.Fatalf("recovered %d records, want 40", db2.Len())
	}
	if _, err := db2.KSPR(0, 3); err != nil {
		t.Fatalf("query after fallback: %v", err)
	}
}

func TestOpenStoreStaleIndexFallsBack(t *testing.T) {
	dir := t.TempDir()
	db := fillStore(t, dir, 40, WithSnapshotEvery(1000))
	if err := db.SnapshotStore(); err != nil {
		t.Fatal(err)
	}
	// Advance past the snapshot: the WAL now holds a batch the index has
	// not seen, so recovery lands on a newer generation than idx.Gen.
	if _, err := db.Apply(Insert(0.9, 0.9, 0.9)); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := OpenStore(dir, WithSnapshotEvery(1000))
	if err != nil {
		t.Fatal(err)
	}
	if db2.IndexWarm() {
		t.Fatal("stale index served a warm start")
	}
	if db2.Len() != 41 {
		t.Fatalf("recovered %d records, want 41", db2.Len())
	}
}

func TestApplySnapshotPersistsIndex(t *testing.T) {
	dir := t.TempDir()
	db := fillStore(t, dir, 30, WithSnapshotEvery(1))
	// SnapshotEvery(1): the insert batch itself triggered the snapshot,
	// which must have persisted the index and left the live tree's
	// band-table slot to the first query.
	if _, err := os.Stat(filepath.Join(dir, store.IndexFileName)); err != nil {
		t.Fatalf("automatic snapshot did not persist the index: %v", err)
	}
	assertSlotFilledByQuery(t, db, 3)
	db.Close()

	db2, err := OpenStore(dir, WithSnapshotEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	if !db2.IndexWarm() {
		t.Fatal("restart after automatic snapshot was not warm")
	}
	// A layout built at another fanout must be rejected, not serve a
	// wrong tree.
	st := db2.cur()
	tree8, err := rtree.Build(st.tree.Records, rtree.WithFanout(8))
	if err != nil {
		t.Fatal(err)
	}
	order, groupEnds := tree8.LeafOrder()
	if err := store.WriteIndex(dir, &store.IndexSnapshot{Gen: st.gen, Fanout: 8, Dim: tree8.Dim, Order: order, GroupEnds: groupEnds}); err != nil {
		t.Fatal(err)
	}
	db2.Close()
	db3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if db3.IndexWarm() {
		t.Fatal("index built at fanout 8 served a fanout-64 open")
	}
}

// TestSnapshotStoreDuringApply races forced snapshots against a stream
// of batches: each snapshot hands the store the generation it is at, so
// none fails, and a reopen after the last one is warm and complete.
func TestSnapshotStoreDuringApply(t *testing.T) {
	dir := t.TempDir()
	db := fillStore(t, dir, 40, WithSnapshotEvery(-1))
	done := make(chan error)
	go func() {
		for i := 0; i < 20; i++ {
			if err := db.SnapshotStore(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 30; i++ {
		if _, err := db.Apply(Insert(0.1, 0.2, 0.3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("SnapshotStore during Apply: %v", err)
	}
	if err := db.SnapshotStore(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	again, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Generation() != 31 || again.Len() != 70 || !again.IndexWarm() {
		t.Fatalf("reopened at gen %d with %d records (warm %v), want gen 31, 70 records, warm",
			again.Generation(), again.Len(), again.IndexWarm())
	}
}

// encodeIndexV1 renders idx in the version-1 index layout, which
// followed the leaf layout with a k-skyband table: magic "KSPRIDX1", gen
// u64, fanout u32, dim u32, the order and group-end arrays, the band
// depth u32, the band id and count arrays (each array a u32 count plus
// i32 values), and a CRC-32 trailer, all little-endian.
func encodeIndexV1(idx *store.IndexSnapshot, band *rtree.BandTable) []byte {
	le := binary.LittleEndian
	i32s := func(b []byte, vals []int32) []byte {
		b = le.AppendUint32(b, uint32(len(vals)))
		for _, v := range vals {
			b = le.AppendUint32(b, uint32(v))
		}
		return b
	}
	b := []byte("KSPRIDX1")
	b = le.AppendUint64(b, idx.Gen)
	b = le.AppendUint32(b, uint32(idx.Fanout))
	b = le.AppendUint32(b, uint32(idx.Dim))
	b = i32s(b, idx.Order)
	b = i32s(b, idx.GroupEnds)
	b = le.AppendUint32(b, uint32(band.K))
	b = i32s(b, band.IDs)
	b = i32s(b, band.Cnt)
	return le.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestOpenStoreV1IndexFallsBack pins the format upgrade: an index file
// in the version-1 layout (with its depth-64 skyband table) fails the
// magic check, the open rebuilds cold with identical answers and
// rewrites the file in the current format, and the next open is warm.
func TestOpenStoreV1IndexFallsBack(t *testing.T) {
	dir := t.TempDir()
	db := fillStore(t, dir, 60)
	if err := db.SnapshotStore(); err != nil {
		t.Fatal(err)
	}
	idx, err := store.LoadIndex(dir)
	if err != nil || idx == nil {
		t.Fatalf("LoadIndex after SnapshotStore: (%v, %v)", idx, err)
	}
	v1 := encodeIndexV1(idx, db.cur().tree.KSkybandTable(64))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, store.IndexFileName)
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.LoadIndex(dir); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("v1 index: LoadIndex error %v, want a magic mismatch", err)
	}

	cold, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("v1 index must not fail the open: %v", err)
	}
	if cold.IndexWarm() {
		t.Fatal("v1 index served a warm start")
	}
	rewritten, err := store.LoadIndex(dir)
	if err != nil || rewritten == nil {
		t.Fatalf("cold open did not rewrite the index: (%v, %v)", rewritten, err)
	}
	if !reflect.DeepEqual(rewritten, idx) {
		t.Fatalf("rewritten index %+v differs from the layout it replaced %+v", rewritten, idx)
	}

	warm, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.IndexWarm() {
		t.Fatal("open after the v1 fallback was not warm")
	}
	assertSameResults(t, warm, cold)
}
