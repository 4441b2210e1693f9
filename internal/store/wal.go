// WAL frame and snapshot encoding. Both use the same primitive little-
// endian layout; frames add a length+CRC header so a torn tail (crash
// mid-append) is detected and truncated at recovery, and snapshots add a
// whole-file CRC trailer so a half-written snapshot is never trusted.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/geom"
)

// snapMagic identifies snapshot files (8 bytes, versioned).
const snapMagic = "KSPRSTO1"

// maxFrame bounds a single WAL frame; larger claims mean corruption.
const maxFrame = 1 << 30

// ---- primitives ----------------------------------------------------------

func putU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func putU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func putF64s(b []byte, vals []float64) []byte {
	b = putU32(b, uint32(len(vals)))
	for _, v := range vals {
		b = putU64(b, math.Float64bits(v))
	}
	return b
}

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) f64s() []float64 {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+8*n > len(r.b) {
		r.fail()
		return nil
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Float64frombits(r.u64())
	}
	return vals
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("store: truncated payload")
	}
}

// ---- WAL frames ----------------------------------------------------------

// encodeFrame renders one applied batch as a WAL frame:
// [len u32][crc u32][payload], payload = gen u64, count u32, then per
// mutation op u8, id u64, values (u32 count + f64 bits; absent for
// deletes).
func encodeFrame(gen uint64, applied []Applied) []byte {
	payload := putU64(nil, gen)
	payload = putU32(payload, uint32(len(applied)))
	for _, a := range applied {
		payload = append(payload, byte(a.Op))
		payload = putU64(payload, uint64(a.ID))
		if a.Op != OpDelete {
			payload = putF64s(payload, a.Values)
		}
	}
	frame := putU32(nil, uint32(len(payload)))
	frame = putU32(frame, crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// decodePayload parses a WAL frame payload into its generation and
// mutation batch (insert ids pre-assigned, ready for replay).
func decodePayload(payload []byte) (uint64, []Mutation, error) {
	r := &reader{b: payload}
	gen := r.u64()
	n := int(r.u32())
	// Each mutation costs at least 9 bytes (op u8 + id u64); a count the
	// remaining payload cannot hold is corruption, rejected before the
	// batch allocation so a tiny frame cannot demand a huge make.
	if r.err != nil || n < 0 || n > (len(payload)-r.off)/9 {
		return 0, nil, fmt.Errorf("store: corrupt wal payload header")
	}
	muts := make([]Mutation, 0, n)
	for i := 0; i < n; i++ {
		if r.off >= len(r.b) {
			return 0, nil, fmt.Errorf("store: corrupt wal payload (short mutation list)")
		}
		op := Op(r.b[r.off])
		r.off++
		id := int64(r.u64())
		var vals []float64
		if op != OpDelete {
			vals = r.f64s()
		}
		if r.err != nil {
			return 0, nil, r.err
		}
		muts = append(muts, Mutation{Op: op, ID: id, Values: vals})
	}
	if r.off != len(r.b) {
		return 0, nil, fmt.Errorf("store: corrupt wal payload (trailing bytes)")
	}
	return gen, muts, nil
}

// replayWAL opens the WAL for appending, replaying every intact frame
// whose generation exceeds recs' onto it. A torn or corrupt tail frame is
// truncated away (the batch never finished committing); corruption before
// the tail is an error. It leaves the file positioned at the end in s.wal,
// the replayed batch count in s.walCount and the advanced id watermark in
// s.nextID, and returns the recovered records.
func (s *Store) replayWAL(recs Records) (_ Records, err error) {
	f, err := os.OpenFile(s.walPath(), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return Records{}, fmt.Errorf("store: open wal: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	data, err := io.ReadAll(f)
	if err != nil {
		return Records{}, fmt.Errorf("store: read wal: %w", err)
	}
	off := 0
	for off < len(data) {
		frameStart := off
		if off+8 > len(data) {
			break // torn header
		}
		plen := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if plen < 0 || plen > maxFrame || off+8+plen > len(data) {
			break // torn payload
		}
		payload := data[off+8 : off+8+plen]
		if crc32.ChecksumIEEE(payload) != crc {
			if off+8+plen == len(data) {
				break // torn tail: checksum never completed
			}
			return Records{}, fmt.Errorf("store: wal corrupt at offset %d (bad crc mid-log)", frameStart)
		}
		fgen, muts, err := decodePayload(payload)
		if err != nil {
			return Records{}, fmt.Errorf("store: wal frame at offset %d: %w", frameStart, err)
		}
		off += 8 + plen
		if fgen <= recs.Gen {
			continue // already covered by the snapshot
		}
		if fgen != recs.Gen+1 {
			return Records{}, fmt.Errorf("store: wal generation gap: have %d, frame carries %d", recs.Gen, fgen)
		}
		if recs, s.nextID, _, err = applyRecords(recs, s.nextID, muts, true); err != nil {
			return Records{}, fmt.Errorf("store: wal replay at offset %d: %w", frameStart, err)
		}
		s.walCount++
	}
	if off < len(data) {
		// Drop the torn tail so future appends start from a clean frame
		// boundary.
		if err := f.Truncate(int64(off)); err != nil {
			return Records{}, fmt.Errorf("store: truncate torn wal tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(off), 0); err != nil {
		return Records{}, fmt.Errorf("store: seek wal: %w", err)
	}
	s.wal = f
	return recs, nil
}

// ---- snapshots -----------------------------------------------------------

// writeSnapshot atomically replaces the snapshot file at path with recs
// and the id watermark: magic, gen u64, nextID u64, dim u32, count u32,
// then per record id u64 and values (u32 count + f64 bits), and a
// whole-file CRC trailer.
func writeSnapshot(path string, recs Records, nextID int64) error {
	b := []byte(snapMagic)
	b = putU64(b, recs.Gen)
	b = putU64(b, uint64(nextID))
	b = putU32(b, uint32(recs.dim()))
	b = putU32(b, uint32(len(recs.IDs)))
	for i, id := range recs.IDs {
		b = putU64(b, uint64(id))
		b = putF64s(b, recs.Rows[i])
	}
	b = putU32(b, crc32.ChecksumIEEE(b))
	return writeFileAtomic(path, b)
}

// writeFileAtomic replaces the file at path with b: it writes b to a
// temp file beside it (path with its extension replaced by .tmp), fsyncs
// it, renames it over path and fsyncs the directory, so a crash leaves
// the old file or the new one, never a torn one.
func writeFileAtomic(path string, b []byte) error {
	tmp := strings.TrimSuffix(path, filepath.Ext(path)) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync() // best-effort directory entry durability
		d.Close()
	}
	return nil
}

// loadSnapshot reads the snapshot file, returning the empty generation-0
// records when none exists. A snapshot that fails its CRC is an error —
// the rename dance makes a half-written snapshot impossible under crash
// semantics, so a bad checksum means real corruption. The rows share one
// backing array.
func loadSnapshot(path string) (Records, int64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Records{}, 0, nil
	}
	if err != nil {
		return Records{}, 0, fmt.Errorf("store: read snapshot: %w", err)
	}
	if len(data) < len(snapMagic)+4 || string(data[:len(snapMagic)]) != snapMagic {
		return Records{}, 0, fmt.Errorf("store: snapshot has wrong magic")
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return Records{}, 0, fmt.Errorf("store: snapshot checksum mismatch")
	}
	r := &reader{b: body, off: len(snapMagic)}
	gen := r.u64()
	nextID := int64(r.u64())
	dim := int(r.u32())
	n := int(r.u32())
	// Each record costs 12 bytes (id u64 + values count u32) plus 8 per
	// value, so a count beyond what the body holds cannot be satisfied —
	// reject it before the allocations, or a CRC-valid 30-byte file
	// claiming 4 billion records would OOM recovery. A store holds records
	// exactly while it has a dimensionality.
	if r.err != nil || (n == 0) != (dim == 0) || n > (len(body)-r.off)/(12+8*dim) {
		return Records{}, 0, fmt.Errorf("store: snapshot header corrupt")
	}
	recs := Records{Gen: gen, IDs: make([]int64, n), Rows: make([]geom.Vector, n)}
	flat := make([]float64, n*dim)
	for i := range recs.IDs {
		recs.IDs[i] = int64(r.u64())
		if int(r.u32()) != dim {
			return Records{}, 0, fmt.Errorf("store: snapshot record %d corrupt", i)
		}
		row := flat[i*dim : (i+1)*dim : (i+1)*dim]
		for j := range row {
			row[j] = math.Float64frombits(r.u64())
		}
		if r.err != nil {
			return Records{}, 0, fmt.Errorf("store: snapshot record %d corrupt", i)
		}
		recs.Rows[i] = row
	}
	if r.off != len(body) {
		return Records{}, 0, fmt.Errorf("store: snapshot has trailing bytes")
	}
	return recs, nextID, nil
}
