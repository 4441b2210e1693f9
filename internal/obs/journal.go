package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Journal event types: the server lifecycle moments worth correlating
// against captured slow requests. Durable-store events are journaled
// under the kinds their source defines (internal/store's Event* and the
// root package's StoreEventIndex*).
const (
	// EventDatasetLoad / EventDatasetUnload record registry membership
	// changes.
	EventDatasetLoad   = "dataset_load"
	EventDatasetUnload = "dataset_unload"
	// EventMutationBatch records an applied :mutate batch.
	EventMutationBatch = "mutation_batch"
	// EventCacheMigration records a post-mutation cache migration sweep.
	EventCacheMigration = "cache_migration"
	// EventCPUBudgetExhausted records a 429 issued because the CPU budget
	// could not cover a request's required parallelism.
	EventCPUBudgetExhausted = "cpu_budget_exhausted"
	// EventBlackBox records a black-box bundle write (panic/SIGQUIT).
	EventBlackBox = "black_box"
	// EventSLOBurn / EventSLOResolve record an SLO starting and stopping
	// an active burn-rate breach, tagged with the dataset generation in
	// force so the breach joins against captured flight evidence.
	EventSLOBurn    = "slo_burn"
	EventSLOResolve = "slo_resolved"
)

// JournalEvent is one server lifecycle event. Seq is a journal-wide
// monotonic sequence number; Generation/StoreGeneration carry the dataset
// generation tokens in force when the event fired, so a captured request
// (which records its own generation) can be joined against the journal.
type JournalEvent struct {
	Seq             uint64         `json:"seq"`
	Time            time.Time      `json:"time"`
	Type            string         `json:"type"`
	Dataset         string         `json:"dataset,omitempty"`
	Generation      uint64         `json:"generation,omitempty"`
	StoreGeneration uint64         `json:"store_generation,omitempty"`
	Detail          map[string]any `json:"detail,omitempty"`
}

// DefaultJournalCapacity bounds the journal ring. Lifecycle events are
// rare (per mutation batch / snapshot / load, not per request), so a few
// hundred covers hours of typical operation.
const DefaultJournalCapacity = 512

// Journal is a bounded in-memory ring of lifecycle events with monotonic
// sequence numbers. Appends are rare relative to request traffic, so a
// single mutex suffices. All methods are nil-safe (journal disabled).
type Journal struct {
	seq  atomic.Uint64
	mu   sync.Mutex
	buf  []JournalEvent
	next int
	n    int
}

// NewJournal creates a journal retaining the most recent capacity events
// (0 selects DefaultJournalCapacity).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{buf: make([]JournalEvent, capacity)}
}

// Append records one event, assigning its sequence number and timestamp,
// and returns the assigned sequence. The event's Seq/Time fields are
// overwritten. Returns 0 on a nil journal.
func (j *Journal) Append(ev JournalEvent) uint64 {
	if j == nil {
		return 0
	}
	ev.Seq = j.seq.Add(1)
	ev.Time = time.Now()
	j.mu.Lock()
	j.buf[j.next] = ev
	j.next = (j.next + 1) % len(j.buf)
	if j.n < len(j.buf) {
		j.n++
	}
	j.mu.Unlock()
	return ev.Seq
}

// LastSeq returns the most recently assigned sequence number (0 when
// empty or nil).
func (j *Journal) LastSeq() uint64 {
	if j == nil {
		return 0
	}
	return j.seq.Load()
}

// Since returns up to limit retained events with Seq > after, in sequence
// order (limit <= 0 means all). Events evicted from the ring are gone; the
// caller can detect a gap by comparing the first returned Seq to after+1.
func (j *Journal) Since(after uint64, limit int) []JournalEvent {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	out := make([]JournalEvent, 0, j.n)
	for k := 0; k < j.n; k++ {
		idx := k
		if j.n == len(j.buf) {
			idx = (j.next + k) % len(j.buf)
		}
		if j.buf[idx].Seq > after {
			out = append(out, j.buf[idx])
		}
	}
	j.mu.Unlock()
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Snapshot returns every retained event in sequence order.
func (j *Journal) Snapshot() []JournalEvent {
	return j.Since(0, 0)
}
