package kspr

// The live-dataset surface of DB: durable WAL-backed stores (OpenStore),
// the mutation API (Apply, with Insert/Update/Delete constructors),
// change notification (Watch), immutable generation handles (Freeze), and
// incrementally maintained queries (MaintainKSPR). Every live DB, opened
// by Open or by OpenStore, runs one Apply path: its store validates the
// batch against the records the current index holds, assigns ids and
// logs the batch (a store without a directory logs nothing), and the
// next generation's records are indexed once. Writing the index file
// beside a snapshot is the one step only a store with a directory takes.
// See docs/ARCHITECTURE.md, "Durability & consistency model".

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/store"
)

// Mutation is one option-level dataset change; build them with Insert,
// Update and Delete. Option ids are stable: they survive any number of
// mutations and never get reused, unlike dense record indexes, which
// shift when earlier records are deleted.
type Mutation = store.Mutation

// Op identifies a mutation kind (see the Insert/Update/Delete
// constructors, which are the usual way to build mutations).
type Op = store.Op

// Mutation kinds, re-exported for callers that inspect mutations.
const (
	OpInsert = store.OpInsert
	OpUpdate = store.OpUpdate
	OpDelete = store.OpDelete
)

// ErrStoreIO marks a mutation batch that failed on the storage side (WAL
// append/fsync). The batch was NOT applied and is safe to retry; serving
// layers should report it as a server error, not a bad request.
var ErrStoreIO = store.ErrIO

// Insert returns a mutation adding a new option; the store assigns its id
// (reported in ApplyResult.IDs).
func Insert(values ...float64) Mutation {
	return Mutation{Op: store.OpInsert, Values: values}
}

// Update returns a mutation replacing the option id's attribute vector.
func Update(id int64, values ...float64) Mutation {
	return Mutation{Op: store.OpUpdate, ID: id, Values: values}
}

// Delete returns a mutation removing the option id.
func Delete(id int64) Mutation {
	return Mutation{Op: store.OpDelete, ID: id}
}

// Delta is one applied record-level change as watchers and the
// incremental-maintenance classifier see it: the attribute vector before
// the change (nil for inserts) and after it (nil for deletes).
type Delta struct {
	Old, New []float64
}

// ApplyResult reports one applied mutation batch.
type ApplyResult struct {
	// Generation is the dataset generation the batch produced.
	Generation uint64
	// IDs holds the stable option id each mutation addressed, aligned with
	// the input batch (freshly assigned for inserts).
	IDs []int64
	// Deltas are the applied record-level changes, aligned with the input.
	Deltas []Delta
}

// ApplyEvent notifies a watcher of one applied batch.
type ApplyEvent struct {
	// Generation is the new dataset generation; Deltas the record-level
	// changes that produced it.
	Generation uint64
	Deltas     []Delta
}

// StoreOption configures OpenStore.
type StoreOption func(*storeConfig)

type storeConfig struct {
	sync     bool
	snapshot int
	onEvent  func(StoreEvent)
}

// StoreEvent is one durable-store lifecycle event (WAL recovery, snapshot
// write or failure, index warm/cold decision) delivered to a
// WithStoreEvents hook.
type StoreEvent = store.Event

// Store event kinds delivered to WithStoreEvents hooks, extending the
// underlying store's wal_recovery / snapshot_write / snapshot_failed with
// the candidate-index open decision.
const (
	// StoreEventIndexWarm fires when OpenStore reassembles the R-tree from
	// a persisted candidate index (restart skipped the STR sorts).
	StoreEventIndexWarm = "index_warm"
	// StoreEventIndexCold fires when OpenStore had to rebuild the index
	// from scratch (missing, stale, or invalid index file).
	StoreEventIndexCold = "index_cold"
)

// WithStoreEvents installs a lifecycle-event hook on the opened store:
// WAL recovery, snapshot writes and failures, and the index warm/cold
// decision. The hook may run with internal store locks held — keep it
// fast and do not call back into the DB.
func WithStoreEvents(fn func(StoreEvent)) StoreOption {
	return func(c *storeConfig) { c.onEvent = fn }
}

// WithWALSync fsyncs the write-ahead log after every applied batch, making
// acknowledged mutations survive power loss (not just process crashes) at
// the cost of one fsync per Apply.
func WithWALSync() StoreOption {
	return func(c *storeConfig) { c.sync = true }
}

// WithSnapshotEvery sets how many applied batches elapse between automatic
// store snapshots (default 256; negative disables them). Snapshots bound
// WAL replay time at recovery.
func WithSnapshotEvery(n int) StoreOption {
	return func(c *storeConfig) { c.snapshot = n }
}

// OpenStore opens (or creates) a WAL-backed dataset store at dir and
// returns a live DB bound to it: crash recovery replays the WAL on top of
// the latest snapshot, so the returned DB is at exactly the last applied
// generation. The DB may be empty (Len 0) until the first insert batch.
func OpenStore(dir string, opts ...StoreOption) (*DB, error) {
	var cfg storeConfig
	for _, o := range opts {
		o(&cfg)
	}
	st, recs, err := store.Open(dir, store.Options{Sync: cfg.sync, SnapshotEvery: cfg.snapshot, OnEvent: cfg.onEvent})
	if err != nil {
		return nil, fmt.Errorf("kspr: %w", err)
	}
	// A persisted candidate index lets the warm path reassemble the
	// R-tree in O(n) without the STR sorts; any load or validation
	// failure just means a cold rebuild.
	idx, _ := store.LoadIndex(dir)
	state, err := newState(recs, idx)
	if err != nil {
		st.Close()
		return nil, err
	}
	if state.tree != nil {
		kind := StoreEventIndexWarm
		if !state.warmIndex {
			kind = StoreEventIndexCold
			// Cold open: persist a fresh index so the next restart is
			// warm. Persistence is advisory — an unwritable index file
			// must not fail the open.
			_ = store.WriteIndex(dir, state.leafLayout())
		}
		if cfg.onEvent != nil {
			cfg.onEvent(StoreEvent{Kind: kind, Gen: state.gen, Records: state.len()})
		}
	}
	db := &DB{store: st}
	db.st.Store(state)
	return db, nil
}

// newState indexes one generation's records, reassembling the index from
// a persisted layout when idx matches the generation exactly (generation
// number, dimensionality, record count, fanout). A stale or invalid
// layout silently falls back to the cold build — the index file can
// never change results, only skip work.
func newState(recs store.Records, idx *store.IndexSnapshot) (*dbState, error) {
	state := &dbState{gen: recs.Gen, ids: recs.IDs}
	n := len(recs.Rows)
	if n == 0 {
		return state, nil
	}
	d := len(recs.Rows[0])
	if d < 2 {
		return nil, fmt.Errorf("kspr: store records must have at least 2 attributes, got %d", d)
	}
	if idx != nil && idx.Gen == recs.Gen && idx.Dim == d &&
		idx.Fanout == rtree.DefaultFanout && len(idx.Order) == n {
		if tree, err := rtree.BuildFromOrder(recs.Rows, idx.Order, idx.GroupEnds); err == nil {
			state.tree = tree
			state.warmIndex = true
			return state, nil
		}
	}
	tree, err := rtree.Build(recs.Rows)
	if err != nil {
		return nil, fmt.Errorf("kspr: indexing store generation %d: %w", recs.Gen, err)
	}
	state.tree = tree
	return state, nil
}

// records hands the generation to the store: its stable ids and the rows
// its index holds.
func (st *dbState) records() store.Records {
	recs := store.Records{Gen: st.gen, IDs: st.ids}
	if st.tree == nil {
		return recs
	}
	recs.Rows = st.tree.Records
	if recs.IDs == nil {
		recs.IDs = make([]int64, len(recs.Rows))
		for i := range recs.IDs {
			recs.IDs[i] = int64(i)
		}
	}
	return recs
}

// leafLayout exports the STR leaf layout of the generation's tree as a
// persistable candidate index, ready for store.WriteIndex.
func (st *dbState) leafLayout() *store.IndexSnapshot {
	order, groupEnds := st.tree.LeafOrder()
	return &store.IndexSnapshot{
		Gen:       st.gen,
		Fanout:    rtree.DefaultFanout,
		Dim:       st.tree.Dim,
		Order:     order,
		GroupEnds: groupEnds,
	}
}

// Generation returns the dataset generation this handle reads from:
// monotonically increasing for live DBs, pinned for frozen ones. Open
// starts at 1; an empty store is generation 0.
func (db *DB) Generation() uint64 { return db.cur().gen }

// StableID maps a dense record index of this handle's generation to the
// record's stable option id.
func (db *DB) StableID(dense int) (int64, bool) {
	st := db.cur()
	if dense < 0 || dense >= st.len() {
		return 0, false
	}
	return st.stableID(dense), true
}

// DenseIndex maps a stable option id to its dense record index in this
// handle's generation (false when the option does not exist there).
func (db *DB) DenseIndex(id int64) (int, bool) { return db.cur().dense(id) }

// Freeze returns an immutable DB pinned to the current generation. The
// frozen handle shares the index (cheap) and keeps answering queries for
// its generation no matter how far the live DB advances — the MVCC handle
// serving paths hold while a reload or mutation storm runs underneath.
// Apply and SnapshotStore on a frozen handle fail, Close is a no-op, and
// Watch on one never fires.
func (db *DB) Freeze() *DB {
	return &DB{frozen: db.cur()}
}

// Apply executes one atomic mutation batch against the live dataset: all
// mutations validate and apply together, producing exactly one new
// generation, or none do. In-flight queries keep the snapshot they
// started with; queries issued after Apply returns see the new
// generation. For DBs opened with OpenStore the batch is WAL-appended
// before it becomes visible, so an acknowledged Apply survives a crash.
// Apply fails once the DB is closed. Watchers run synchronously (in
// Apply's goroutine) after the swap, in registration order. Apply is
// safe for concurrent use; batches serialize.
func (db *DB) Apply(muts ...Mutation) (*ApplyResult, error) {
	if db.frozen != nil {
		return nil, fmt.Errorf("kspr: Apply on a frozen DB handle")
	}
	if len(muts) == 0 {
		return &ApplyResult{Generation: db.Generation()}, nil
	}
	for i, m := range muts {
		if m.Op == store.OpInsert || m.Op == store.OpUpdate {
			if len(m.Values) < 2 {
				return nil, fmt.Errorf("kspr: mutation %d: records need at least 2 attributes, got %d", i, len(m.Values))
			}
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	next, applied, err := db.store.Apply(db.st.Load().records(), muts)
	if err != nil {
		return nil, fmt.Errorf("kspr: %w", err)
	}
	state, err := newState(next, nil)
	if err != nil {
		return nil, err
	}
	if dir := db.store.Dir(); dir != "" && db.store.SinceSnapshot() == 0 && state.tree != nil {
		// This batch triggered an automatic store snapshot; persist the
		// candidate index alongside it. Advisory like the snapshot
		// itself: a failed write never fails the Apply.
		_ = store.WriteIndex(dir, state.leafLayout())
	}

	res := &ApplyResult{Generation: state.gen}
	res.IDs = make([]int64, len(applied))
	res.Deltas = make([]Delta, len(applied))
	for i, a := range applied {
		res.IDs[i] = a.ID
		res.Deltas[i] = Delta{Old: a.Old}
		if a.Op != store.OpDelete {
			res.Deltas[i].New = a.Values
		}
	}
	db.st.Store(state)
	if len(db.watchers) > 0 {
		ev := ApplyEvent{Generation: res.Generation, Deltas: res.Deltas}
		for _, w := range db.watcherList() {
			w(ev)
		}
	}
	return res, nil
}

// watcherList snapshots the watcher callbacks in registration order.
func (db *DB) watcherList() []func(ApplyEvent) {
	keys := make([]int64, 0, len(db.watchers))
	for k := range db.watchers {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ { // insertion sort: registries are tiny
		for j := i; j > 0 && keys[j-1] > keys[j]; j-- {
			keys[j-1], keys[j] = keys[j], keys[j-1]
		}
	}
	out := make([]func(ApplyEvent), len(keys))
	for i, k := range keys {
		out[i] = db.watchers[k]
	}
	return out
}

// Watch registers fn to run after every applied mutation batch, in
// Apply's goroutine and in registration order; keep callbacks fast. The
// returned cancel function unregisters it. On a frozen handle Watch is a
// no-op (frozen handles never mutate).
func (db *DB) Watch(fn func(ApplyEvent)) (cancel func()) {
	if db.frozen != nil {
		return func() {}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.watchLocked(fn)
}

// watchLocked registers a watcher; callers hold db.mu.
func (db *DB) watchLocked(fn func(ApplyEvent)) (cancel func()) {
	if db.watchers == nil {
		db.watchers = make(map[int64]func(ApplyEvent))
	}
	id := db.nextW
	db.nextW++
	db.watchers[id] = fn
	return func() {
		db.mu.Lock()
		delete(db.watchers, id)
		db.mu.Unlock()
	}
}

// SnapshotStore forces a store snapshot now (WAL truncation included)
// and persists the candidate index alongside it, so a restart from this
// snapshot skips the STR sorts of the index build. It fails on DBs built
// by Open, whose store has no directory, and on frozen handles.
func (db *DB) SnapshotStore() error {
	if db.frozen != nil {
		return fmt.Errorf("kspr: SnapshotStore on a frozen DB handle")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	st := db.st.Load()
	if err := db.store.Snapshot(st.records()); err != nil {
		return err
	}
	if st.tree == nil {
		return nil
	}
	return store.WriteIndex(db.store.Dir(), st.leafLayout())
}

// Close closes the DB's store, whether Open or OpenStore made it: later
// Apply calls fail, while frozen handles and in-flight queries keep
// answering. Close on a frozen handle is a no-op.
func (db *DB) Close() error {
	if db.frozen != nil {
		return nil
	}
	return db.store.Close()
}

// LiveQueryStats reports a maintained query's decision tallies.
type LiveQueryStats struct {
	// Generation is the dataset generation the current result is valid
	// for; Kept counts generations absorbed without recomputation,
	// Recomputed the cold reruns (the initial run excluded).
	Generation uint64
	Kept       uint64
	Recomputed uint64
}

// LiveQuery is an incrementally maintained kSPR result: it tracks a focal
// option (by stable id) across dataset generations, classifying every
// mutation batch against the focal's cached k-skyband state and
// recomputing only when a mutation can actually change the answer. The
// maintained result is always byte-identical to a cold query on the
// current generation. Create with DB.MaintainKSPR; Close to detach.
type LiveQuery struct {
	mu     sync.Mutex
	db     *DB
	stable int64
	opts   core.Options
	m      *core.Maintainer
	gen    uint64
	err    error
	cancel func()
}

func (q *LiveQuery) lock()   { q.mu.Lock() }
func (q *LiveQuery) unlock() { q.mu.Unlock() }

// MaintainKSPR answers the query cold and keeps the result current across
// future Apply calls. focalID is a dense record index of the current
// generation; the query then tracks that option's stable id, following
// reprices (recompute with the new vector) and erroring out if the option
// is deleted. The per-query options mirror KSPR's.
func (db *DB) MaintainKSPR(focalID, k int, opts ...QueryOption) (*LiveQuery, error) {
	if db.frozen != nil {
		return nil, fmt.Errorf("kspr: MaintainKSPR on a frozen DB handle")
	}
	q := &LiveQuery{db: db, opts: buildOptions(k, opts)}
	// The cold run happens outside every lock; registration then commits
	// only if no mutation landed meanwhile (checked under db.mu, so the
	// registered watcher can never miss a generation), else it retries on
	// the fresh state. Locks are never held across each other here, so
	// Apply's db.mu -> q.mu order stays the only order in the program.
	for {
		st := db.cur()
		if st.tree == nil || focalID < 0 || focalID >= st.tree.Len() {
			return nil, fmt.Errorf("kspr: focal id %d out of range [0, %d)", focalID, db.Len())
		}
		m, err := core.NewMaintainer(st.tree, st.tree.Records[focalID], focalID, q.opts)
		if err != nil {
			return nil, err
		}
		db.mu.Lock()
		if db.st.Load() == st {
			q.stable = st.stableID(focalID)
			q.m = m
			q.gen = st.gen
			q.cancel = db.watchLocked(q.onApply)
			db.mu.Unlock()
			return q, nil
		}
		db.mu.Unlock() // a mutation slipped in: redo the cold run on it
	}
}

// onApply advances the maintained result to the just-installed
// generation. It runs in Apply's goroutine, after the state swap.
func (q *LiveQuery) onApply(ev ApplyEvent) {
	q.lock()
	defer q.unlock()
	if q.err != nil || ev.Generation <= q.gen {
		return
	}
	st := q.db.cur()
	dense, ok := st.dense(q.stable)
	if !ok {
		q.err = fmt.Errorf("kspr: maintained focal option %d was deleted at generation %d", q.stable, ev.Generation)
		return
	}
	if _, _, err := q.m.Apply(st.tree, dense, coreDeltas(ev.Deltas)); err != nil {
		q.err = err
		return
	}
	q.gen = ev.Generation
}

// Result returns the maintained result and the generation it is valid
// for. After the focal option is deleted (or a recompute failed) it
// returns the error instead.
func (q *LiveQuery) Result() (*Result, uint64, error) {
	q.lock()
	defer q.unlock()
	if q.err != nil {
		return nil, q.gen, q.err
	}
	return q.m.Result(), q.gen, nil
}

// Stats returns the maintained query's keep/recompute tallies.
func (q *LiveQuery) Stats() LiveQueryStats {
	q.lock()
	defer q.unlock()
	st := LiveQueryStats{Generation: q.gen}
	if q.m != nil {
		ms := q.m.Stats()
		st.Kept, st.Recomputed = ms.Kept, ms.Recomputed
	}
	return st
}

// Close detaches the maintained query from the DB's mutation stream.
func (q *LiveQuery) Close() {
	if q.cancel != nil {
		q.cancel()
	}
}

// MutationImpact classifies one applied mutation batch against many focal
// queries cheaply: every changed vector's strict dominators are counted
// once, in its own generation, and each focal's Unaffected check is then
// a handful of comparisons. The serving layer uses it to migrate cached
// results across generations instead of invalidating them; maintained
// queries (MaintainKSPR) classify with the same rule. Unaffected
// classifies by value, not identity: callers must separately ensure the
// focal option itself was not mutated.
type MutationImpact = core.MutationImpact

// NewMutationImpact analyzes the batch against both generations: old and
// new must be handles on the generations immediately before and after
// it. maxK is the largest k Unaffected will be asked; a larger k is
// always classified affected unless the focal weakly dominates every
// changed vector.
func NewMutationImpact(oldDB, newDB *DB, deltas []Delta, maxK int) *MutationImpact {
	return core.NewMutationImpact(oldDB.cur().tree, newDB.cur().tree, coreDeltas(deltas), maxK)
}

// coreDeltas converts deltas to the engine's form.
func coreDeltas(deltas []Delta) []core.Delta {
	out := make([]core.Delta, len(deltas))
	for i, d := range deltas {
		out[i] = core.Delta{Old: geom.Vector(d.Old), New: geom.Vector(d.New)}
	}
	return out
}
