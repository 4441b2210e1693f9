package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func testIndexSnapshot() *IndexSnapshot {
	return &IndexSnapshot{
		Gen:       42,
		Fanout:    8,
		Dim:       3,
		Order:     []int32{2, 0, 3, 1, 4},
		GroupEnds: []int32{2, 5},
	}
}

func TestIndexRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := testIndexSnapshot()
	if err := WriteIndex(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Writing again must atomically replace, not append.
	want.Gen = 43
	if err := WriteIndex(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err = LoadIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Gen != 43 {
		t.Fatalf("rewrite not visible: gen %d", got.Gen)
	}
}

func TestLoadIndexMissingFile(t *testing.T) {
	idx, err := LoadIndex(t.TempDir())
	if idx != nil || err != nil {
		t.Fatalf("missing index: got (%v, %v), want (nil, nil)", idx, err)
	}
}

// reseal recomputes the CRC trailer so a corruption lands in the decoder
// proper, not the checksum gate.
func reseal(b []byte) []byte {
	body := b[:len(b)-4]
	return append(body[:len(body):len(body)],
		byte(crc32.ChecksumIEEE(body)),
		byte(crc32.ChecksumIEEE(body)>>8),
		byte(crc32.ChecksumIEEE(body)>>16),
		byte(crc32.ChecksumIEEE(body)>>24))
}

func TestDecodeIndexRejectsCorruption(t *testing.T) {
	good := encodeIndex(testIndexSnapshot())
	if _, err := decodeIndex(good); err != nil {
		t.Fatalf("good index rejected: %v", err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"short":     good[:6],
		"magic":     append([]byte("NOTIDX00"), good[8:]...),
		"bitflip":   func() []byte { b := append([]byte(nil), good...); b[20] ^= 0xff; return b }(),
		"truncated": good[:len(good)-8],
		"trailing":  reseal(append(append([]byte(nil), good[:len(good)-4]...), 1, 2, 3, 4, 0, 0, 0, 0)),
		"huge-order": func() []byte {
			// A CRC-valid file whose order array claims 2^31-ish entries the
			// body cannot hold must be rejected before any allocation.
			b := append([]byte(nil), good[:len(indexMagic)+16]...)
			b = binary.LittleEndian.AppendUint32(b, 0x7fffffff)
			b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
			return b
		}(),
	}
	for name, data := range cases {
		if _, err := decodeIndex(data); err == nil {
			t.Errorf("%s: corrupt index accepted", name)
		}
	}
}

// TestDecodeIndexValidatesBandTable checks that a CRC-valid index whose
// header names an impossible tree shape (fanout below 2, no dimensions)
// is rejected.
func TestDecodeIndexValidatesBandTable(t *testing.T) {
	mutate := func(f func(idx *IndexSnapshot)) []byte {
		idx := testIndexSnapshot()
		f(idx)
		return encodeIndex(idx)
	}
	cases := map[string][]byte{
		"bad-fanout": mutate(func(i *IndexSnapshot) { i.Fanout = 1 }),
		"bad-dim":    mutate(func(i *IndexSnapshot) { i.Dim = 0 }),
	}
	for name, data := range cases {
		if _, err := decodeIndex(data); err == nil {
			t.Errorf("%s: invalid index accepted", name)
		}
	}
}

func TestWriteIndexLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	if err := WriteIndex(dir, testIndexSnapshot()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "index.tmp")); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind (stat err: %v)", err)
	}
}
