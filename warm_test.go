package kspr

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
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
	// Non-kSPR read paths must agree too (skyband queries hit the
	// persisted table directly on the warm handle).
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
	if warm.cur().tree.Band() == nil {
		t.Fatal("warm tree has no skyband table")
	}
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
	// which must have persisted the index and armed the live tree's table.
	if _, err := os.Stat(filepath.Join(dir, store.IndexFileName)); err != nil {
		t.Fatalf("automatic snapshot did not persist the index: %v", err)
	}
	if db.cur().tree.Band() == nil {
		t.Fatal("apply-snapshot state has no skyband table")
	}
	db.Close()

	db2, err := OpenStore(dir, WithSnapshotEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	if !db2.IndexWarm() {
		t.Fatal("restart after automatic snapshot was not warm")
	}
	// A mismatched fanout must reject the layout, not serve a wrong tree.
	db3, err := OpenStore(dir, WithStoreFanout(8))
	if err != nil {
		t.Fatal(err)
	}
	if db3.IndexWarm() {
		t.Fatal("index built at fanout 64 served a fanout-8 open")
	}
}
