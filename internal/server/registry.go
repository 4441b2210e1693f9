// Package server implements ksprd, the long-lived kSPR query service: a
// dataset registry with hot reload and live mutation, a bounded worker
// pool with per-request deadlines, a sharded LRU result cache with
// cross-generation migration, and HTTP/JSON handlers for the paper's
// query repertoire (exact kSPR, top-k, skyline, market impact) plus the
// dataset mutation API.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	kspr "repro"
	"repro/internal/dataset"
)

// Snapshot is an immutable, queryable view of a registered dataset. Queries
// resolve a snapshot once and keep using it for their whole lifetime, so a
// concurrent reload or mutation (which installs a NEW snapshot under the
// same name) never disturbs in-flight work: the old snapshot stays valid
// until its last query releases it.
type Snapshot struct {
	// Name is the registry key; Generation increases monotonically across
	// the whole registry with every (re)load AND every mutation batch, so
	// (Name, Generation) uniquely identifies one dataset incarnation — the
	// cache keys off it.
	Name       string
	Generation uint64
	// StoreGeneration is the underlying live dataset's own generation (the
	// one WAL recovery restores); Durable reports whether it is WAL-backed.
	StoreGeneration uint64
	Durable         bool
	// DB is the frozen, indexed dataset handle pinned to this generation;
	// it is safe for concurrent readers.
	DB *kspr.DB
	// Dataset retains attribute names and optional record labels (records
	// themselves live in DB).
	Dataset  *dataset.Dataset
	LoadedAt time.Time
	// Source describes where the data came from (path, "generated", ...).
	Source string
	// IndexWarm reports whether this incarnation's candidate index was
	// reassembled from the persisted layout (true) or rebuilt cold.
	IndexWarm bool
}

// DatasetInfo is the registry listing entry exposed over the API.
type DatasetInfo struct {
	Name            string    `json:"name"`
	Generation      uint64    `json:"generation"`
	StoreGeneration uint64    `json:"store_generation"`
	Durable         bool      `json:"durable,omitempty"`
	Records         int       `json:"records"`
	Dims            int       `json:"dims"`
	Attributes      []string  `json:"attributes,omitempty"`
	Source          string    `json:"source,omitempty"`
	LoadedAt        time.Time `json:"loaded_at"`
	// IndexWarm reports whether the dataset's candidate index came from the
	// persisted layout (warm restart) rather than a cold rebuild.
	IndexWarm bool `json:"index_warm"`
}

// liveEntry is the mutable state behind one registered dataset: the live
// (mutable) DB handle plus the metadata that rides along generations.
type liveEntry struct {
	db     *kspr.DB
	attrs  []string
	labels map[int64]string // stable option id -> label
	source string
}

// Registry maps names to dataset snapshots behind an RWMutex. Loads build
// the index outside the lock where possible, so readers are rarely blocked
// on indexing; mutations hold the write lock for the re-index (documented
// trade-off: a mutation briefly blocks snapshot resolution, never
// in-flight queries).
type Registry struct {
	mu    sync.RWMutex
	sets  map[string]*Snapshot
	lives map[string]*liveEntry
	gen   atomic.Uint64

	// storeDir, when non-empty, makes every dataset durable: each name gets
	// a WAL-backed store under storeDir/<name>. walSync and snapshotEvery
	// configure those stores.
	storeDir      string
	walSync       bool
	snapshotEvery int

	// onStoreEvent, when set, receives each durable dataset's store
	// lifecycle events (WAL recovery, snapshot writes, index warm/cold)
	// tagged with the dataset name. Set it before any Load/Recover; the
	// callback may run with store locks held, so keep it fast.
	onStoreEvent func(name string, ev kspr.StoreEvent)
}

// NewRegistry returns an empty, in-memory registry.
func NewRegistry() *Registry {
	return &Registry{sets: make(map[string]*Snapshot), lives: make(map[string]*liveEntry)}
}

// NewRegistryWithStore returns a registry whose datasets are WAL-backed
// under dir (see Registry.storeDir). walSync fsyncs every mutation batch;
// snapshotEvery sets the store snapshot cadence (0 = default).
func NewRegistryWithStore(dir string, walSync bool, snapshotEvery int) *Registry {
	r := NewRegistry()
	r.storeDir = dir
	r.walSync = walSync
	r.snapshotEvery = snapshotEvery
	return r
}

// Durable reports whether the registry's datasets are WAL-backed.
func (r *Registry) Durable() bool { return r.storeDir != "" }

// SetStoreEventHook installs the per-dataset store lifecycle-event hook
// (see Registry.onStoreEvent). Call it before Load or Recover open any
// stores; events from already-open stores are not retrofitted.
func (r *Registry) SetStoreEventHook(fn func(name string, ev kspr.StoreEvent)) {
	r.mu.Lock()
	r.onStoreEvent = fn
	r.mu.Unlock()
}

// ErrDatasetNotFound marks registry operations on unknown dataset names;
// handlers map it to 404.
var ErrDatasetNotFound = errors.New("server: dataset not found")

// validateStoreName restricts durable dataset names to filesystem-safe
// characters (they become directory names).
func validateStoreName(name string) error {
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("server: durable dataset name %q: only [A-Za-z0-9._-] allowed", name)
		}
	}
	if name == "" || name == "." || name == ".." {
		return fmt.Errorf("server: invalid dataset name %q", name)
	}
	return nil
}

// storeOptions assembles the kspr store options for this registry.
func (r *Registry) storeOptions() []kspr.StoreOption {
	var opts []kspr.StoreOption
	if r.walSync {
		opts = append(opts, kspr.WithWALSync())
	}
	if r.snapshotEvery != 0 {
		opts = append(opts, kspr.WithSnapshotEvery(r.snapshotEvery))
	}
	return opts
}

// Load indexes ds and installs it under name, replacing any previous
// snapshot with that name. With a store directory configured the load is
// durable: it opens (or creates) the dataset's WAL-backed store and
// replaces its contents in one atomic mutation batch, so the reload
// itself survives a crash. It returns the new snapshot.
func (r *Registry) Load(name string, ds *dataset.Dataset, source string) (*Snapshot, error) {
	if name == "" {
		return nil, fmt.Errorf("server: dataset name must not be empty")
	}
	if r.storeDir == "" {
		// In-memory: a reload is simply a fresh live DB.
		db, err := kspr.Open(ds.Float64s())
		if err != nil {
			return nil, fmt.Errorf("server: indexing dataset %q: %w", name, err)
		}
		entry := &liveEntry{db: db, attrs: ds.Attributes, labels: labelMapFromSlice(ds.Labels, db), source: source}
		r.mu.Lock()
		defer r.mu.Unlock()
		r.lives[name] = entry
		return r.installLocked(name, entry), nil
	}

	if err := validateStoreName(name); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	entry, created, err := r.openEntryLocked(name)
	if err != nil {
		return nil, err
	}
	// Replace the store contents atomically: delete every live option,
	// insert the new records. One batch, one generation.
	var muts []kspr.Mutation
	deletes := entry.db.Len()
	for i := 0; i < deletes; i++ {
		id, _ := entry.db.StableID(i)
		muts = append(muts, kspr.Delete(id))
	}
	for _, rec := range ds.Float64s() {
		muts = append(muts, kspr.Insert(rec...))
	}
	res, err := entry.db.Apply(muts...)
	if err != nil {
		if created {
			// Don't leave a never-loaded orphan (with an open WAL handle)
			// behind; a pre-existing entry stays valid with its old data.
			_ = entry.db.Close()
			delete(r.lives, name)
		}
		return nil, fmt.Errorf("server: loading dataset %q into store: %w", name, err)
	}
	entry.attrs = ds.Attributes
	entry.source = source
	entry.labels = make(map[int64]string)
	for i, label := range ds.Labels {
		if label != "" && i < ds.Len() {
			entry.labels[res.IDs[deletes+i]] = label
		}
	}
	r.persistMetaLocked(name, entry)
	return r.installLocked(name, entry), nil
}

// openEntryLocked resolves (or creates) the live entry for a durable
// dataset; created reports whether this call opened it.
func (r *Registry) openEntryLocked(name string) (*liveEntry, bool, error) {
	if entry, ok := r.lives[name]; ok {
		return entry, false, nil
	}
	opts := r.storeOptions()
	if hook := r.onStoreEvent; hook != nil {
		opts = append(opts, kspr.WithStoreEvents(func(ev kspr.StoreEvent) { hook(name, ev) }))
	}
	db, err := kspr.OpenStore(filepath.Join(r.storeDir, name), opts...)
	if err != nil {
		return nil, false, fmt.Errorf("server: opening store for dataset %q: %w", name, err)
	}
	entry := &liveEntry{db: db, labels: make(map[int64]string)}
	r.lives[name] = entry
	return entry, true, nil
}

// labelMapFromSlice maps dense-index labels to stable ids (which coincide
// at load time).
func labelMapFromSlice(labels []string, db *kspr.DB) map[int64]string {
	m := make(map[int64]string)
	for i, label := range labels {
		if label == "" {
			continue
		}
		if id, ok := db.StableID(i); ok {
			m[id] = label
		}
	}
	return m
}

// installLocked freezes the live entry into a new snapshot and makes it
// current. Callers hold the write lock.
func (r *Registry) installLocked(name string, e *liveEntry) *Snapshot {
	frozen := e.db.Freeze()
	labels := denseLabels(frozen, e.labels)
	snap := &Snapshot{
		Name:            name,
		Generation:      r.gen.Add(1),
		StoreGeneration: frozen.Generation(),
		Durable:         r.storeDir != "",
		DB:              frozen,
		Dataset: &dataset.Dataset{
			Name:       name,
			Attributes: e.attrs,
			Labels:     labels,
		},
		LoadedAt:  time.Now(),
		Source:    e.source,
		IndexWarm: frozen.IndexWarm(),
	}
	r.sets[name] = snap
	return snap
}

// denseLabels materializes the stable-id label map as a dense slice for
// one frozen generation (nil when no labels exist).
func denseLabels(db *kspr.DB, labels map[int64]string) []string {
	if len(labels) == 0 {
		return nil
	}
	out := make([]string, db.Len())
	for i := range out {
		if id, ok := db.StableID(i); ok {
			out[i] = labels[id]
		}
	}
	return out
}

// Mutate applies one atomic mutation batch to the named dataset and
// installs the resulting generation. labels optionally carries a label
// per mutation index (inserts and updates). It returns the snapshots
// before and after the batch plus the applied record-level deltas, which
// the serving layer feeds to the incremental cache migration.
func (r *Registry) Mutate(name string, muts []kspr.Mutation, labels map[int]string) (old, cur *Snapshot, res *kspr.ApplyResult, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	entry, ok := r.lives[name]
	old = r.sets[name]
	if !ok || old == nil {
		return nil, nil, nil, fmt.Errorf("%w: %q", ErrDatasetNotFound, name)
	}
	res, err = entry.db.Apply(muts...)
	if err != nil {
		return nil, nil, nil, err
	}
	for i, m := range muts {
		switch m.Op {
		case kspr.OpInsert, kspr.OpUpdate:
			if label, ok := labels[i]; ok && label != "" {
				if entry.labels == nil {
					entry.labels = make(map[int64]string)
				}
				entry.labels[res.IDs[i]] = label
			}
		case kspr.OpDelete:
			delete(entry.labels, res.IDs[i])
		}
	}
	if r.storeDir != "" {
		r.persistMetaLocked(name, entry)
	}
	cur = r.installLocked(name, entry)
	return old, cur, res, nil
}

// LoadCSV reads a CSV file (see dataset.ReadCSV) and installs it.
func (r *Registry) LoadCSV(name, path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("server: open dataset: %w", err)
	}
	defer f.Close()
	ds, err := dataset.ReadCSV(f, name)
	if err != nil {
		return nil, err
	}
	return r.Load(name, ds, path)
}

// Recover scans the store directory and re-registers every dataset found
// there, restoring each to its last applied generation (snapshot load +
// WAL replay). It returns the recovered snapshots sorted by name.
func (r *Registry) Recover() ([]*Snapshot, error) {
	if r.storeDir == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(r.storeDir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("server: scanning store dir: %w", err)
	}
	var out []*Snapshot
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		if validateStoreName(name) != nil {
			continue
		}
		entry, _, err := r.openEntryLocked(name)
		if err != nil {
			return out, err
		}
		r.loadMetaLocked(name, entry)
		entry.source = fmt.Sprintf("recovered from %s", filepath.Join(r.storeDir, name))
		out = append(out, r.installLocked(name, entry))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// PendingRecovery lists the dataset names present in the store directory
// but not yet registered — what Recover still has to replay. /readyz
// reports these while startup recovery runs.
func (r *Registry) PendingRecovery() []string {
	if r.storeDir == "" {
		return nil
	}
	entries, err := os.ReadDir(r.storeDir)
	if err != nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		if validateStoreName(name) != nil {
			continue
		}
		if _, ok := r.sets[name]; ok {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// storeMeta is the sidecar metadata persisted next to a dataset's WAL:
// what the binary store does not carry (attribute names, record labels).
type storeMeta struct {
	Attributes []string          `json:"attributes,omitempty"`
	Labels     map[string]string `json:"labels,omitempty"`
	Source     string            `json:"source,omitempty"`
}

// persistMetaLocked writes the sidecar metadata best-effort (metadata loss
// never fails a mutation; the worst case is attribute names reverting to
// generated ones after recovery).
func (r *Registry) persistMetaLocked(name string, e *liveEntry) {
	meta := storeMeta{Attributes: e.attrs, Source: e.source}
	if len(e.labels) > 0 {
		meta.Labels = make(map[string]string, len(e.labels))
		for id, label := range e.labels {
			meta.Labels[strconv.FormatInt(id, 10)] = label
		}
	}
	raw, err := json.Marshal(meta)
	if err != nil {
		return
	}
	path := filepath.Join(r.storeDir, name, "meta.json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return
	}
	_ = os.Rename(tmp, path)
}

// loadMetaLocked restores the sidecar metadata, synthesizing attribute
// names when none were persisted.
func (r *Registry) loadMetaLocked(name string, e *liveEntry) {
	raw, err := os.ReadFile(filepath.Join(r.storeDir, name, "meta.json"))
	if err == nil {
		var meta storeMeta
		if json.Unmarshal(raw, &meta) == nil {
			e.attrs = meta.Attributes
			e.source = meta.Source
			if len(meta.Labels) > 0 {
				e.labels = make(map[int64]string, len(meta.Labels))
				for k, v := range meta.Labels {
					if id, err := strconv.ParseInt(k, 10, 64); err == nil {
						e.labels[id] = v
					}
				}
			}
		}
	}
	if len(e.attrs) == 0 && e.db.Dim() > 0 {
		attrs := make([]string, e.db.Dim())
		for j := range attrs {
			attrs[j] = fmt.Sprintf("a%d", j+1)
		}
		e.attrs = attrs
	}
}

// Get resolves the current snapshot for name.
func (r *Registry) Get(name string) (*Snapshot, bool) {
	r.mu.RLock()
	snap, ok := r.sets[name]
	r.mu.RUnlock()
	return snap, ok
}

// Live resolves the live (mutable) DB handle for name; used by tests and
// tooling that bypass the HTTP mutation API.
func (r *Registry) Live(name string) (*kspr.DB, bool) {
	r.mu.RLock()
	e, ok := r.lives[name]
	r.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return e.db, true
}

// Unload removes name from the registry and closes its store (if any).
// In-flight queries holding the snapshot are unaffected; the on-disk
// store directory is kept (Recover or a reload re-registers it).
func (r *Registry) Unload(name string) bool {
	r.mu.Lock()
	_, ok := r.sets[name]
	delete(r.sets, name)
	entry, live := r.lives[name]
	delete(r.lives, name)
	r.mu.Unlock()
	if live {
		_ = entry.db.Close()
	}
	return ok || live
}

// Close releases every live store handle.
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, e := range r.lives {
		_ = e.db.Close()
		delete(r.lives, name)
	}
}

// Count returns the number of registered datasets without building the
// List view; the telemetry sampler calls it every tick.
func (r *Registry) Count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sets)
}

// MaxGeneration returns the highest dataset generation currently
// registered (0 with no datasets) — the tag slo_burn journal events carry
// so a breach joins against flight-recorder evidence captured under the
// same generation.
func (r *Registry) MaxGeneration() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var g uint64
	for _, s := range r.sets {
		if s.Generation > g {
			g = s.Generation
		}
	}
	return g
}

// List returns the registered datasets sorted by name.
func (r *Registry) List() []DatasetInfo {
	r.mu.RLock()
	infos := make([]DatasetInfo, 0, len(r.sets))
	for _, s := range r.sets {
		infos = append(infos, DatasetInfo{
			Name:            s.Name,
			Generation:      s.Generation,
			StoreGeneration: s.StoreGeneration,
			Durable:         s.Durable,
			Records:         s.DB.Len(),
			Dims:            s.DB.Dim(),
			Attributes:      s.Dataset.Attributes,
			Source:          s.Source,
			LoadedAt:        s.LoadedAt,
			IndexWarm:       s.IndexWarm,
		})
	}
	r.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}
