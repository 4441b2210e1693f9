// Package store implements the durable half of the live-dataset
// subsystem: a write-ahead log of mutation batches, periodic binary
// snapshots, and the id allocator and generation counter behind them.
// The store is a log, not a second copy of the dataset: its caller holds
// each generation's records (the kspr package keeps them in the
// generation's R-tree index) and hands them to Apply, which validates a
// batch against them, assigns insert ids, appends one WAL frame and
// returns the next generation's records. A store made by InMemory has no
// directory: it validates and assigns ids the same way but logs nothing.
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
	"slices"
	"sync"

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

// Records is one generation of a store's records, ascending by stable
// id: Rows[i] is the attribute vector of option IDs[i]. The store keeps
// none of it. Open and Apply return a generation's records, and Apply and
// Snapshot take them back from the caller, which holds them in between
// (the kspr package in the generation's index). Nothing may modify them.
type Records struct {
	// Gen is the generation the records materialize; generation 0 is the
	// empty store.
	Gen  uint64
	IDs  []int64
	Rows []geom.Vector
}

// dim is the records' dimensionality, 0 while there are none.
func (r Records) dim() int {
	if len(r.Rows) == 0 {
		return 0
	}
	return len(r.Rows[0])
}

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

// Store logs one dataset's mutation batches: it validates each batch
// against the records its caller hands it, assigns insert ids, appends
// the batch to the WAL, writes snapshots and counts generations. One
// writer at a time advances the generation through Apply.
type Store struct {
	dir  string // "" for a store without a directory (InMemory)
	opts Options

	mu       sync.Mutex
	gen      uint64 // the current generation
	live     int    // its record count
	nextID   int64
	wal      *os.File // nil without a directory
	walCount int      // batches appended since the last snapshot
	closed   bool
}

// Open opens (or creates) the store directory, recovering state by
// loading the latest snapshot and replaying the WAL tail. It returns the
// recovered records, which are exactly the last durably applied
// generation's.
func Open(dir string, opts Options) (*Store, Records, error) {
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Records{}, fmt.Errorf("store: create dir: %w", err)
	}
	s := &Store{dir: dir, opts: opts}
	recs, nextID, err := loadSnapshot(s.snapPath())
	if err != nil {
		return nil, Records{}, err
	}
	s.nextID = nextID
	if recs, err = s.replayWAL(recs); err != nil {
		return nil, Records{}, err
	}
	s.gen, s.live = recs.Gen, len(recs.IDs)
	s.emit(Event{Kind: EventWALRecovery, Gen: recs.Gen, Records: s.live, WALFrames: s.walCount})
	return s, recs, nil
}

// InMemory returns a store without a directory whose generation 1 holds
// n records with ids 0..n-1, as a freshly loaded dataset does. It
// validates batches and assigns ids like a store opened with Open, but
// writes nothing: it has no WAL, and Snapshot fails.
func InMemory(n int) *Store {
	return &Store{gen: 1, live: n, nextID: int64(n)}
}

// Dir returns the store directory ("" for an InMemory store).
func (s *Store) Dir() string { return s.dir }

// Apply executes one atomic mutation batch against cur, the records of
// the store's current generation: it validates every mutation against
// them, appends a single WAL frame, and returns the next generation's
// records together with the executed mutations (assigned ids, captured
// old values). Either the whole batch applies (one new generation) or
// none of it does. A cur whose generation or record count is not the
// store's is an error; cur itself is never modified.
func (s *Store) Apply(cur Records, muts []Mutation) (Records, []Applied, error) {
	if len(muts) == 0 {
		return cur, nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkLocked(cur); err != nil {
		return Records{}, nil, err
	}
	next, nextID, applied, err := applyRecords(cur, s.nextID, muts, false)
	if err != nil {
		return Records{}, nil, err
	}
	if s.wal != nil {
		if _, err := s.wal.Write(encodeFrame(next.Gen, applied)); err != nil {
			return Records{}, nil, fmt.Errorf("%w: wal append: %v", ErrIO, err)
		}
		if s.opts.Sync {
			if err := s.wal.Sync(); err != nil {
				return Records{}, nil, fmt.Errorf("%w: wal sync: %v", ErrIO, err)
			}
		}
		s.walCount++
	}
	s.gen, s.live, s.nextID = next.Gen, len(next.IDs), nextID
	if s.wal != nil && s.opts.SnapshotEvery > 0 && s.walCount >= s.opts.SnapshotEvery {
		// The batch is already durably committed (WAL) and installed; a
		// failed snapshot only delays compaction, so it must NOT fail the
		// Apply — callers would wrongly conclude the batch did not happen.
		// walCount stays high, so the next batch retries the snapshot; the
		// failure is reported through the OnEvent hook.
		if err := s.snapshotLocked(next); err != nil {
			s.emit(Event{Kind: EventSnapshotFailed, Gen: next.Gen, Records: s.live, WALFrames: s.walCount, Err: err.Error()})
		}
	}
	return next, applied, nil
}

// checkLocked rejects a closed store and records that are not the
// current generation's: the cheap guard against a caller handing back
// some other generation.
func (s *Store) checkLocked(cur Records) error {
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if cur.Gen != s.gen || len(cur.IDs) != s.live || len(cur.Rows) != s.live {
		return fmt.Errorf("store: handed generation %d with %d ids and %d rows, store is at generation %d with %d records",
			cur.Gen, len(cur.IDs), len(cur.Rows), s.gen, s.live)
	}
	return nil
}

// SinceSnapshot reports how many applied batches the WAL holds beyond
// the last durable snapshot. Zero right after an Apply on a store with a
// directory means that Apply triggered an automatic snapshot — the moment
// callers persist derived artifacts (like the candidate index) alongside
// it.
func (s *Store) SinceSnapshot() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walCount
}

// Snapshot writes cur, the records of the current generation, as the
// store's snapshot and truncates the WAL. Apply calls it every
// Options.SnapshotEvery batches. An InMemory store has nowhere to write
// one, so Snapshot fails there.
func (s *Store) Snapshot(cur Records) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkLocked(cur); err != nil {
		return err
	}
	if s.wal == nil {
		return fmt.Errorf("store: no directory to snapshot to")
	}
	return s.snapshotLocked(cur)
}

func (s *Store) snapshotLocked(cur Records) error {
	if err := writeSnapshot(s.snapPath(), cur, s.nextID); err != nil {
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
	s.walCount = 0
	s.emit(Event{Kind: EventSnapshotWrite, Gen: cur.Gen, Records: len(cur.IDs), WALFrames: compacted})
	return nil
}

// Close syncs and closes the WAL. Apply and Snapshot fail afterwards;
// records the store handed out stay valid.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal == nil {
		return nil
	}
	if err := s.wal.Sync(); err != nil {
		s.wal.Close()
		return fmt.Errorf("store: close sync: %w", err)
	}
	return s.wal.Close()
}

func (s *Store) snapPath() string { return filepath.Join(s.dir, "snapshot.snap") }
func (s *Store) walPath() string  { return filepath.Join(s.dir, "wal.log") }

// applyRecords executes a mutation batch against cur, producing the next
// generation's records (copy-on-write: cur and its rows are never
// modified) and the advanced id watermark. It is the store's single
// source of truth for mutation semantics; in WAL-replay mode insert ids
// arrive pre-assigned. A delete only marks its record dead, and one pass
// at the end drops the dead, so a batch costs O(n + m log n) however many
// of its m mutations are deletes.
func applyRecords(cur Records, nextID int64, muts []Mutation, replay bool) (Records, int64, []Applied, error) {
	ids := append(make([]int64, 0, len(cur.IDs)+len(muts)), cur.IDs...)
	rows := append(make([]geom.Vector, 0, len(cur.IDs)+len(muts)), cur.Rows...)
	dim := cur.dim()
	applied := make([]Applied, 0, len(muts))
	dead := make([]bool, cap(ids)) // by position in ids
	live := len(ids)
	find := func(id int64) (int, bool) {
		i, ok := slices.BinarySearch(ids, id)
		return i, ok && !dead[i]
	}
	step := func(m Mutation) error {
		switch m.Op {
		case OpInsert:
			if err := checkValues(m.Values, &dim); err != nil {
				return err
			}
			id := m.ID
			if replay && id != 0 {
				if id < nextID {
					return fmt.Errorf("replayed insert id %d below next id %d", id, nextID)
				}
			} else {
				if id != 0 {
					return fmt.Errorf("insert must not set an id (store assigns them)")
				}
				id = nextID
			}
			nextID = id + 1
			vals := append([]float64(nil), m.Values...)
			ids = append(ids, id)
			rows = append(rows, vals)
			live++
			applied = append(applied, Applied{Mutation: Mutation{Op: OpInsert, ID: id, Values: vals}})
		case OpUpdate:
			if err := checkValues(m.Values, &dim); err != nil {
				return err
			}
			i, ok := find(m.ID)
			if !ok {
				return fmt.Errorf("update of unknown option id %d", m.ID)
			}
			old := rows[i]
			vals := append([]float64(nil), m.Values...)
			rows[i] = vals
			applied = append(applied, Applied{Mutation: Mutation{Op: OpUpdate, ID: m.ID, Values: vals}, Old: old})
		case OpDelete:
			if m.Values != nil {
				return fmt.Errorf("delete must not carry values")
			}
			i, ok := find(m.ID)
			if !ok {
				return fmt.Errorf("delete of unknown option id %d", m.ID)
			}
			dead[i] = true
			live--
			applied = append(applied, Applied{Mutation: Mutation{Op: OpDelete, ID: m.ID}, Old: rows[i]})
			if live == 0 {
				// Emptied mid-batch: later inserts in the SAME batch may
				// establish a new dimensionality (the delete-all + insert-all
				// reload pattern depends on this).
				dim = 0
			}
		default:
			return fmt.Errorf("unknown op %d", m.Op)
		}
		return nil
	}
	for mi, m := range muts {
		if err := step(m); err != nil {
			return Records{}, 0, nil, fmt.Errorf("store: mutation %d: %w", mi, err)
		}
	}
	kept := 0
	for i := range ids {
		if !dead[i] {
			ids[kept], rows[kept] = ids[i], rows[i]
			kept++
		}
	}
	clear(rows[kept:])
	return Records{Gen: cur.Gen + 1, IDs: ids[:kept], Rows: rows[:kept]}, nextID, applied, nil
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
