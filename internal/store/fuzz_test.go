package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geom"
)

// FuzzDecodeWALPayload fuzzes the WAL frame payload parser — the bytes a
// crashed process (or a corrupt disk) hands recovery. Any input may be
// rejected, but none may panic or over-allocate, and every accepted
// payload must round-trip: re-encoding the decoded batch and decoding
// again reproduces it exactly (the frame format is canonical).
func FuzzDecodeWALPayload(f *testing.F) {
	good := encodeFrame(7, []Applied{
		{Mutation: Mutation{Op: OpInsert, ID: 1, Values: []float64{0.25, 0.75}}},
		{Mutation: Mutation{Op: OpUpdate, ID: 1, Values: []float64{0.5, 0.5}}},
		{Mutation: Mutation{Op: OpDelete, ID: 1}},
	})
	f.Add(good[8:]) // strip [len][crc]: decodePayload sees the payload only
	f.Add(encodeFrame(1, nil)[8:])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, payload []byte) {
		gen, muts, err := decodePayload(payload)
		if err != nil {
			return
		}
		reencode := func(gen uint64, muts []Mutation) []byte {
			applied := make([]Applied, len(muts))
			for i, m := range muts {
				applied[i] = Applied{Mutation: m}
			}
			return encodeFrame(gen, applied)
		}
		frame := reencode(gen, muts)
		gen2, muts2, err := decodePayload(frame[8:])
		if err != nil {
			t.Fatalf("re-encoded accepted payload rejected: %v", err)
		}
		// Bit-level comparison via the canonical encoding — DeepEqual on
		// the decoded values would treat identically-encoded NaNs as
		// unequal.
		if gen2 != gen || len(muts2) != len(muts) || !bytes.Equal(frame, reencode(gen2, muts2)) {
			t.Fatalf("round-trip mismatch: gen %d muts %v -> gen %d muts %v", gen, muts, gen2, muts2)
		}
	})
}

// FuzzDecodeIndex fuzzes the persisted candidate-index parser — the
// bytes a warm ksprd restart reads before serving queries. Any input may
// be rejected, but none may panic or allocate beyond the input size, and
// every accepted index must round-trip bit-exactly through the canonical
// encoder (so a warm load can never silently reinterpret a file).
func FuzzDecodeIndex(f *testing.F) {
	good := encodeIndex(&IndexSnapshot{
		Gen: 9, Fanout: 4, Dim: 2,
		Order: []int32{1, 0, 2}, GroupEnds: []int32{2, 3},
	})
	f.Add(good)
	f.Add(encodeIndex(&IndexSnapshot{Gen: 1, Fanout: 64, Dim: 3}))
	f.Add([]byte(indexMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := decodeIndex(data)
		if err != nil {
			return
		}
		b := encodeIndex(idx)
		idx2, err := decodeIndex(b)
		if err != nil {
			t.Fatalf("re-encoded accepted index rejected: %v", err)
		}
		if !bytes.Equal(b, encodeIndex(idx2)) {
			t.Fatalf("round-trip mismatch: %+v vs %+v", idx, idx2)
		}
	})
}

// FuzzLoadSnapshot fuzzes the snapshot file parser with arbitrary file
// contents. Accepted snapshots must survive a write/reload round trip
// with identical records; everything else must be a clean error — a
// panic or runaway allocation here would take down recovery at startup.
func FuzzLoadSnapshot(f *testing.F) {
	seedPath := filepath.Join(f.TempDir(), "seed.snap")
	recs := Records{Gen: 3, IDs: []int64{1, 4}, Rows: []geom.Vector{{0.1, 0.9}, {0.4, 0.6}}}
	if err := writeSnapshot(seedPath, recs, 5); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tmp := t.TempDir()
		path := filepath.Join(tmp, "fuzz.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		v, nextID, err := loadSnapshot(path)
		if err != nil {
			return
		}
		rt := filepath.Join(tmp, "roundtrip.snap")
		if err := writeSnapshot(rt, v, nextID); err != nil {
			t.Fatalf("re-writing accepted snapshot: %v", err)
		}
		v2, nextID2, err := loadSnapshot(rt)
		if err != nil {
			t.Fatalf("reloading re-written snapshot: %v", err)
		}
		rt2 := filepath.Join(tmp, "roundtrip2.snap")
		if err := writeSnapshot(rt2, v2, nextID2); err != nil {
			t.Fatalf("re-writing reloaded snapshot: %v", err)
		}
		// The writer is canonical, so equality of the written bytes is
		// bit-level equality of the records (and NaN-safe, unlike
		// DeepEqual on decoded float records).
		b1, err1 := os.ReadFile(rt)
		b2, err2 := os.ReadFile(rt2)
		if err1 != nil || err2 != nil {
			t.Fatalf("reading round-trip snapshots: %v / %v", err1, err2)
		}
		if v2.Gen != v.Gen || nextID2 != nextID || v2.dim() != v.dim() || !bytes.Equal(b1, b2) {
			t.Fatalf("round-trip mismatch: gen %d/%d nextID %d/%d dim %d/%d",
				v.Gen, v2.Gen, nextID, nextID2, v.dim(), v2.dim())
		}
	})
}
