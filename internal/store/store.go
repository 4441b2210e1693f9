// Package store implements the durable half of the live-dataset
// subsystem: a versioned, disk-backed option store with an append-only
// write-ahead log of mutations, periodic binary snapshots, and MVCC
// generation handles. Writers advance the generation one atomic mutation
// batch at a time; readers take an immutable Version and keep using it for
// as long as they like, so in-flight queries never observe a torn dataset.
//
// # On-disk layout
//
// A store directory holds at most three files:
//
//	wal.log        append-only frames, one per applied mutation batch
//	snapshot.snap  the most recent full snapshot (replaced atomically)
//	snapshot.tmp   scratch for the snapshot rename dance (transient)
//
// Every WAL frame carries the generation it produced plus a CRC, so
// recovery is snapshot-load + replay of the frames whose generation
// exceeds the snapshot's. A torn final frame (crash mid-append) is
// detected by the CRC and truncated away; corruption anywhere earlier is
// reported as an error rather than silently skipped.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// Op identifies a mutation kind.
type Op uint8

// Mutation kinds: insert a new option, update an existing one in place,
// or delete it.
const (
	OpInsert Op = 1
	OpUpdate Op = 2
	OpDelete Op = 3
)

// String names the operation as the wire protocol spells it.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Mutation is one option-level change. ID names the stable option id for
// OpUpdate/OpDelete and must be zero for OpInsert (the store assigns the
// next id). Values carries the new attribute vector for insert/update and
// must be nil for delete.
type Mutation struct {
	Op     Op
	ID     int64
	Values []float64
}

// Applied is one executed mutation: the input with the assigned ID filled
// in (inserts) and the previous attribute vector captured (update/delete).
type Applied struct {
	Mutation
	// Old is the option's values before the mutation; nil for inserts.
	Old []float64
}

// Record is one live option: a stable id plus its attribute vector.
type Record struct {
	ID     int64
	Values []float64
}

// Version is an immutable MVCC handle on one generation of the store.
// All accessors are safe for concurrent use and remain valid after the
// store has advanced past (or even closed behind) this generation.
type Version struct {
	// Gen is the generation this version materializes; generation 0 is the
	// empty store.
	Gen  uint64
	recs []Record // ascending stable id
	rows [][]float64
	ids  []int64
	dim  int
}

func newVersion(gen uint64, recs []Record, dim int) *Version {
	v := &Version{Gen: gen, recs: recs, dim: dim}
	v.rows = make([][]float64, len(recs))
	v.ids = make([]int64, len(recs))
	for i, r := range recs {
		v.rows[i] = r.Values
		v.ids[i] = r.ID
	}
	return v
}

// Len returns the number of live options.
func (v *Version) Len() int { return len(v.recs) }

// Dim returns the attribute dimensionality (0 while the store is empty).
func (v *Version) Dim() int { return v.dim }

// Rows returns the live options' attribute vectors in ascending stable-id
// order — the dense view query indexes are built over. The returned slices
// are shared and must not be modified.
func (v *Version) Rows() [][]float64 { return v.rows }

// IDs returns the stable option id at each dense index, ascending. The
// returned slice is shared and must not be modified.
func (v *Version) IDs() []int64 { return v.ids }

// Dense maps a stable option id to its dense index in Rows.
func (v *Version) Dense(id int64) (int, bool) {
	i := sort.Search(len(v.ids), func(i int) bool { return v.ids[i] >= id })
	if i < len(v.ids) && v.ids[i] == id {
		return i, true
	}
	return 0, false
}

// Records returns the live options (id + values), ascending by id. The
// returned slice is shared and must not be modified.
func (v *Version) Records() []Record { return v.recs }

// Options tunes a Store.
type Options struct {
	// Sync fsyncs the WAL after every applied batch. Off by default: an OS
	// or process crash then loses at most the page-cache tail, while a
	// plain process kill loses nothing (writes reach the kernel before
	// Apply returns either way).
	Sync bool
	// SnapshotEvery writes a snapshot and truncates the WAL after this many
	// applied batches (default 256; negative disables automatic snapshots).
	SnapshotEvery int
	// OnEvent, when set, is called for store lifecycle events (WAL
	// recovery, snapshot writes, failed automatic snapshots). The
	// callback may run while the store's mutex is held, so it must be
	// fast and must not call back into the store.
	OnEvent func(Event)
}

// Event is one store lifecycle event delivered to Options.OnEvent.
type Event struct {
	// Kind is one of the Event* kinds below.
	Kind string
	// Gen is the store generation in force after the event.
	Gen uint64
	// Records is the live record count at Gen.
	Records int
	// WALFrames is the number of WAL frames replayed beyond the snapshot
	// (wal_recovery), compacted away (snapshot_write), or still awaiting
	// compaction (snapshot_failed).
	WALFrames int
	// Err is the failure's text (snapshot_failed only).
	Err string
}

// Store event kinds delivered to Options.OnEvent.
const (
	// EventWALRecovery fires once per Open after snapshot load + WAL replay.
	EventWALRecovery = "wal_recovery"
	// EventSnapshotWrite fires after each successful snapshot + WAL truncate.
	EventSnapshotWrite = "snapshot_write"
	// EventSnapshotFailed fires when an automatic snapshot fails. The
	// batch that triggered it stays applied, and every later batch
	// retries the snapshot until one succeeds.
	EventSnapshotFailed = "snapshot_failed"
)

// emit delivers ev to the OnEvent hook when one is installed.
func (s *Store) emit(ev Event) {
	if s.opts.OnEvent != nil {
		s.opts.OnEvent(ev)
	}
}

// DefaultSnapshotEvery is the automatic snapshot cadence in applied
// batches.
const DefaultSnapshotEvery = 256

// ErrIO marks server-side storage failures (a WAL append or fsync that
// did not complete). Mutations failing with ErrIO were NOT applied and
// are safe to retry; callers should distinguish them from validation
// errors, which indicate a bad request.
var ErrIO = errors.New("store: io failure")

// Store is a WAL-backed mutable option set. One writer at a time advances
// the generation through Apply; any number of readers take Versions.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	cur      atomic.Pointer[Version]
	nextID   int64
	wal      *os.File
	walSize  int64
	walCount int // batches appended since the last snapshot
	closed   bool
}

// Open opens (or creates) the store directory, recovering state by
// loading the latest snapshot and replaying the WAL tail. The recovered
// generation is exactly the last durably applied one.
func Open(dir string, opts Options) (*Store, error) {
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	s := &Store{dir: dir, opts: opts}
	ver, nextID, err := loadSnapshot(s.snapPath())
	if err != nil {
		return nil, err
	}
	s.nextID = nextID
	wal, size, count, ver, err := replayWAL(s.walPath(), ver, s)
	if err != nil {
		return nil, err
	}
	s.wal, s.walSize, s.walCount = wal, size, count
	s.cur.Store(ver)
	s.emit(Event{Kind: EventWALRecovery, Gen: ver.Gen, Records: ver.Len(), WALFrames: count})
	return s, nil
}

// View returns the current generation's immutable version.
func (s *Store) View() *Version { return s.cur.Load() }

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Apply executes one atomic mutation batch: it validates every mutation
// against the current generation, appends a single WAL frame, then
// installs the new Version. Either the whole batch applies (one new
// generation) or none of it does. It returns the new version together
// with the executed mutations (assigned ids, captured old values).
func (s *Store) Apply(muts []Mutation) (*Version, []Applied, error) {
	if len(muts) == 0 {
		return s.View(), nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, fmt.Errorf("store: closed")
	}
	cur := s.cur.Load()
	recs, nextID, dim, applied, err := applyRecords(cur.recs, s.nextID, cur.dim, muts, false)
	if err != nil {
		return nil, nil, err
	}
	gen := cur.Gen + 1
	frame := encodeFrame(gen, applied)
	if _, err := s.wal.Write(frame); err != nil {
		return nil, nil, fmt.Errorf("%w: wal append: %v", ErrIO, err)
	}
	if s.opts.Sync {
		if err := s.wal.Sync(); err != nil {
			return nil, nil, fmt.Errorf("%w: wal sync: %v", ErrIO, err)
		}
	}
	s.walSize += int64(len(frame))
	s.walCount++
	s.nextID = nextID
	s.cur.Store(newVersion(gen, recs, dim))
	if s.opts.SnapshotEvery > 0 && s.walCount >= s.opts.SnapshotEvery {
		// The batch is already durably committed (WAL) and installed; a
		// failed snapshot only delays compaction, so it must NOT fail the
		// Apply — callers would wrongly conclude the batch did not happen.
		// walCount stays high, so the next batch retries the snapshot; the
		// failure is reported through the OnEvent hook.
		if err := s.snapshotLocked(); err != nil {
			s.emit(Event{Kind: EventSnapshotFailed, Gen: gen, Records: len(recs), WALFrames: s.walCount, Err: err.Error()})
		}
	}
	return s.cur.Load(), applied, nil
}

// SinceSnapshot reports how many applied batches the WAL holds beyond
// the last durable snapshot. Zero right after an Apply means that Apply
// triggered an automatic snapshot — the moment callers persist derived
// artifacts (like the candidate index) alongside it.
func (s *Store) SinceSnapshot() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walCount
}

// Snapshot forces a snapshot of the current generation and truncates the
// WAL. It is called automatically every Options.SnapshotEvery batches.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	return s.snapshotLocked()
}

func (s *Store) snapshotLocked() error {
	ver := s.cur.Load()
	if err := writeSnapshot(s.dir, s.snapPath(), ver, s.nextID); err != nil {
		return err
	}
	// A crash between the snapshot rename and this truncate is harmless:
	// replay skips WAL frames whose generation the snapshot already covers.
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: truncate wal: %w", err)
	}
	if _, err := s.wal.Seek(0, 0); err != nil {
		return fmt.Errorf("store: rewind wal: %w", err)
	}
	compacted := s.walCount
	s.walSize, s.walCount = 0, 0
	s.emit(Event{Kind: EventSnapshotWrite, Gen: ver.Gen, Records: ver.Len(), WALFrames: compacted})
	return nil
}

// Close syncs and closes the WAL. The store must not be used afterwards;
// outstanding Versions remain valid.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.wal.Sync(); err != nil {
		s.wal.Close()
		return fmt.Errorf("store: close sync: %w", err)
	}
	return s.wal.Close()
}

func (s *Store) snapPath() string { return filepath.Join(s.dir, "snapshot.snap") }
func (s *Store) walPath() string  { return filepath.Join(s.dir, "wal.log") }

// ApplyRecords executes a mutation batch against an immutable record
// slice, producing a fresh slice (copy-on-write; the input and its value
// slices are never modified). It is the store's single source of truth
// for mutation semantics, exported so in-memory (WAL-less) datasets apply
// mutations identically to durable ones. It returns the new records, the
// advanced id watermark and dimensionality, and the executed mutations.
func ApplyRecords(in []Record, nextID int64, dim int, muts []Mutation) ([]Record, int64, int, []Applied, error) {
	return applyRecords(in, nextID, dim, muts, false)
}

// applyRecords is ApplyRecords plus the WAL-replay mode, where insert ids
// arrive pre-assigned. A delete only marks its record dead, and one pass
// at the end drops the dead, so a batch costs O(n + m log n) however many
// of its m mutations are deletes.
func applyRecords(in []Record, nextID int64, dim int, muts []Mutation, replay bool) (
	[]Record, int64, int, []Applied, error) {
	recs := append(make([]Record, 0, len(in)+len(muts)), in...)
	applied := make([]Applied, 0, len(muts))
	dead := make([]bool, cap(recs)) // by position in recs
	live := len(recs)
	find := func(id int64) (int, bool) {
		i := sort.Search(len(recs), func(i int) bool { return recs[i].ID >= id })
		if i < len(recs) && recs[i].ID == id && !dead[i] {
			return i, true
		}
		return 0, false
	}
	for mi, m := range muts {
		switch m.Op {
		case OpInsert:
			if err := checkValues(m.Values, &dim); err != nil {
				return nil, 0, 0, nil, fmt.Errorf("store: mutation %d: %w", mi, err)
			}
			id := m.ID
			if replay && id != 0 {
				if id < nextID {
					return nil, 0, 0, nil, fmt.Errorf("store: mutation %d: replayed insert id %d below next id %d", mi, id, nextID)
				}
			} else {
				if id != 0 {
					return nil, 0, 0, nil, fmt.Errorf("store: mutation %d: insert must not set an id (store assigns them)", mi)
				}
				id = nextID
			}
			nextID = id + 1
			vals := append([]float64(nil), m.Values...)
			recs = append(recs, Record{ID: id, Values: vals})
			live++
			applied = append(applied, Applied{Mutation: Mutation{Op: OpInsert, ID: id, Values: vals}})
		case OpUpdate:
			if err := checkValues(m.Values, &dim); err != nil {
				return nil, 0, 0, nil, fmt.Errorf("store: mutation %d: %w", mi, err)
			}
			i, ok := find(m.ID)
			if !ok {
				return nil, 0, 0, nil, fmt.Errorf("store: mutation %d: update of unknown option id %d", mi, m.ID)
			}
			old := recs[i].Values
			vals := append([]float64(nil), m.Values...)
			recs[i] = Record{ID: m.ID, Values: vals}
			applied = append(applied, Applied{Mutation: Mutation{Op: OpUpdate, ID: m.ID, Values: vals}, Old: old})
		case OpDelete:
			if m.Values != nil {
				return nil, 0, 0, nil, fmt.Errorf("store: mutation %d: delete must not carry values", mi)
			}
			i, ok := find(m.ID)
			if !ok {
				return nil, 0, 0, nil, fmt.Errorf("store: mutation %d: delete of unknown option id %d", mi, m.ID)
			}
			dead[i] = true
			live--
			applied = append(applied, Applied{Mutation: Mutation{Op: OpDelete, ID: m.ID}, Old: recs[i].Values})
			if live == 0 {
				// Emptied mid-batch: later inserts in the SAME batch may
				// establish a new dimensionality (the delete-all + insert-all
				// reload pattern depends on this).
				dim = 0
			}
		default:
			return nil, 0, 0, nil, fmt.Errorf("store: mutation %d: unknown op %d", mi, m.Op)
		}
	}
	kept := recs[:0]
	for i, r := range recs {
		if !dead[i] {
			kept = append(kept, r)
		}
	}
	clear(recs[len(kept):])
	recs = kept
	if live == 0 {
		dim = 0 // an emptied store accepts any dimensionality again
	}
	return recs, nextID, dim, applied, nil
}

// checkValues validates an insert/update vector against the store's
// dimensionality, fixing it on first use.
func checkValues(vals []float64, dim *int) error {
	if len(vals) == 0 {
		return fmt.Errorf("insert/update needs a non-empty values vector")
	}
	if err := geom.CheckFinite(vals); err != nil {
		return err
	}
	if *dim == 0 {
		*dim = len(vals)
	} else if len(vals) != *dim {
		return fmt.Errorf("values have %d attributes, store has %d", len(vals), *dim)
	}
	return nil
}
