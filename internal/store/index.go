// Persisted candidate-index snapshots. Rebuilding the R-tree after a
// daemon restart costs d radix sorts of the dataset for STR tiling; the
// index file saves their output — the STR leaf order and leaf group
// boundaries — so a warm restart reassembles a structurally identical
// tree with one assembly pass and no sorting. The file is advisory: it is
// validated against the store generation on load, and any mismatch or
// corruption just means a cold rebuild, never wrong results.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// indexMagic identifies index files (8 bytes, versioned). Version 1
// files also carried a k-skyband table; they fail the magic check, so
// the open rebuilds cold and rewrites the file in this format.
const indexMagic = "KSPRIDX2"

// IndexFileName is the index file's name inside a store directory.
const IndexFileName = "index.bin"

// IndexSnapshot is the persisted form of a built candidate index: the
// dataset generation and tree shape it belongs to, and the STR leaf
// layout (record positions in leaf order plus exclusive group ends).
type IndexSnapshot struct {
	// Gen is the store generation the index was built from; an index
	// whose generation differs from the recovered version is stale.
	Gen uint64
	// Fanout and Dim pin the tree shape parameters.
	Fanout, Dim int
	// Order holds record positions (dense ids) in STR leaf order;
	// GroupEnds the exclusive end offset of each leaf's run.
	Order, GroupEnds []int32
}

func putI32s(b []byte, vals []int32) []byte {
	b = putU32(b, uint32(len(vals)))
	for _, v := range vals {
		b = putU32(b, uint32(v))
	}
	return b
}

func (r *reader) i32s(max int) []int32 {
	n := int(r.u32())
	if r.err != nil || n < 0 || n > max || r.off+4*n > len(r.b) {
		r.fail()
		return nil
	}
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(r.u32())
	}
	return vals
}

// encodeIndex renders the snapshot: magic, gen u64, fanout u32, dim u32,
// then the order and group-end arrays (each u32 count + i32 values), and
// a whole-file CRC trailer.
func encodeIndex(idx *IndexSnapshot) []byte {
	b := []byte(indexMagic)
	b = putU64(b, idx.Gen)
	b = putU32(b, uint32(idx.Fanout))
	b = putU32(b, uint32(idx.Dim))
	b = putI32s(b, idx.Order)
	b = putI32s(b, idx.GroupEnds)
	return putU32(b, crc32.ChecksumIEEE(b))
}

// decodeIndex parses and validates an index file's bytes. Like the WAL
// and snapshot decoders it is hardened against hostile input: every
// array length is bounded by the bytes actually present before its
// allocation, so a tiny CRC-valid file cannot demand a huge make. The
// leaf layout itself is validated by rtree.BuildFromOrder.
func decodeIndex(data []byte) (*IndexSnapshot, error) {
	if len(data) < len(indexMagic)+4 || string(data[:len(indexMagic)]) != indexMagic {
		return nil, fmt.Errorf("store: index has wrong magic")
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("store: index checksum mismatch")
	}
	r := &reader{b: body, off: len(indexMagic)}
	idx := &IndexSnapshot{Gen: r.u64()}
	idx.Fanout = int(int32(r.u32()))
	idx.Dim = int(int32(r.u32()))
	// Each array element costs 4 bytes; bound every claimed length by the
	// remaining body before allocating.
	idx.Order = r.i32s((len(body) - r.off) / 4)
	idx.GroupEnds = r.i32s((len(body) - r.off) / 4)
	if r.err != nil {
		return nil, fmt.Errorf("store: index corrupt")
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("store: index has trailing bytes")
	}
	if idx.Fanout < 2 || idx.Dim < 1 {
		return nil, fmt.Errorf("store: index header corrupt")
	}
	return idx, nil
}

// WriteIndex atomically replaces the index file in dir (see
// writeFileAtomic).
func WriteIndex(dir string, idx *IndexSnapshot) error {
	return writeFileAtomic(filepath.Join(dir, IndexFileName), encodeIndex(idx))
}

// LoadIndex reads the index file from dir. A missing file returns
// (nil, nil) — the cold path, not an error; anything unreadable or
// failing validation is an error the caller treats as "rebuild cold".
func LoadIndex(dir string) (*IndexSnapshot, error) {
	data, err := os.ReadFile(filepath.Join(dir, IndexFileName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: read index: %w", err)
	}
	return decodeIndex(data)
}
