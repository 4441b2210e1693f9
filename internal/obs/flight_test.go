package obs

import (
	"testing"
	"time"
)

func TestFlightNilSafe(t *testing.T) {
	var f *FlightRecorder
	if f.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if kind, ok := f.ShouldCapture("kspr", 500, time.Second); ok || kind != "" {
		t.Fatalf("nil ShouldCapture = %q, %v", kind, ok)
	}
	f.Record(WideEvent{Endpoint: "kspr"})
	if got := f.Events(FlightFilter{}); got != nil {
		t.Fatalf("nil Events = %v, want nil", got)
	}
	if s := f.Stats(); s != (FlightStats{}) {
		t.Fatalf("nil Stats = %+v, want zero", s)
	}
}

func TestFlightCapturePolicy(t *testing.T) {
	cases := []struct {
		name        string
		sampleEvery int
		status      int
		latency     time.Duration
		wantKind    string
		wantOK      bool
	}{
		{"server error", 64, 500, time.Millisecond, CaptureError, true},
		{"not found", 64, 404, time.Millisecond, CaptureError, true},
		{"backpressure 429", 64, 429, time.Millisecond, CaptureError, true},
		{"slow at threshold", 64, 200, 100 * time.Millisecond, CaptureSlow, true},
		{"slow above threshold", 64, 200, time.Second, CaptureSlow, true},
		{"first normal sampled", 64, 200, time.Millisecond, CaptureSampled, true},
		{"every normal when N=1", 1, 200, time.Millisecond, CaptureSampled, true},
		{"sampling disabled", -1, 200, time.Millisecond, "", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := NewFlightRecorder(0, 100*time.Millisecond, c.sampleEvery)
			kind, ok := f.ShouldCapture("kspr", c.status, c.latency)
			if kind != c.wantKind || ok != c.wantOK {
				t.Fatalf("ShouldCapture = %q, %v; want %q, %v", kind, ok, c.wantKind, c.wantOK)
			}
		})
	}
}

func TestFlightPerEndpointSampling(t *testing.T) {
	f := NewFlightRecorder(0, 0, 4)
	sampled := 0
	for i := 0; i < 8; i++ {
		if _, ok := f.ShouldCapture("kspr", 200, time.Millisecond); ok {
			sampled++
		}
	}
	if sampled != 2 {
		t.Fatalf("sampled %d of 8 at 1-in-4, want 2", sampled)
	}
	// Each endpoint counts independently, so a fresh endpoint's first
	// request is always sampled.
	if kind, ok := f.ShouldCapture("batch", 200, time.Millisecond); !ok || kind != CaptureSampled {
		t.Fatalf("fresh endpoint first request = %q, %v; want sampled", kind, ok)
	}
	s := f.Stats()
	if s.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", s.Dropped)
	}
}

func TestFlightRingOverwrite(t *testing.T) {
	f := NewFlightRecorder(8, 0, 1)
	base := time.Now()
	for i := 0; i < 24; i++ {
		f.Record(WideEvent{
			Time:      base.Add(time.Duration(i) * time.Millisecond),
			Endpoint:  "kspr",
			LatencyNs: int64(i),
		})
	}
	got := f.Events(FlightFilter{})
	if len(got) != 8 {
		t.Fatalf("retained %d events at capacity 8, want 8", len(got))
	}
	// Striped round-robin keeps the most recent event per stripe slot: the
	// last 8 records survive, oldest first.
	for i, ev := range got {
		if want := int64(16 + i); ev.LatencyNs != want {
			t.Fatalf("event %d = record %d, want %d", i, ev.LatencyNs, want)
		}
	}
	if s := f.Stats(); s.Captured != 24 {
		t.Fatalf("captured = %d, want 24", s.Captured)
	}
}

func TestFlightFilters(t *testing.T) {
	f := NewFlightRecorder(64, 0, 1)
	base := time.Now()
	add := func(i int, endpoint, dataset string, status int, lat time.Duration) {
		f.Record(WideEvent{
			Time:      base.Add(time.Duration(i) * time.Millisecond),
			Endpoint:  endpoint,
			Dataset:   dataset,
			Status:    status,
			LatencyNs: int64(lat),
		})
	}
	add(0, "kspr", "a", 200, time.Millisecond)
	add(1, "kspr", "b", 404, time.Millisecond)
	add(2, "batch", "a", 200, 50*time.Millisecond)
	add(3, "batch", "b", 429, 2*time.Millisecond)
	add(4, "kspr", "a", 200, 80*time.Millisecond)

	if got := f.Events(FlightFilter{Endpoint: "kspr"}); len(got) != 3 {
		t.Fatalf("endpoint filter kept %d, want 3", len(got))
	}
	if got := f.Events(FlightFilter{Dataset: "b"}); len(got) != 2 {
		t.Fatalf("dataset filter kept %d, want 2", len(got))
	}
	if got := f.Events(FlightFilter{ErrorsOnly: true}); len(got) != 2 {
		t.Fatalf("errors-only kept %d, want 2", len(got))
	}
	if got := f.Events(FlightFilter{MinLatency: 40 * time.Millisecond}); len(got) != 2 {
		t.Fatalf("min-latency kept %d, want 2", len(got))
	}
	got := f.Events(FlightFilter{Limit: 2})
	if len(got) != 2 || got[0].LatencyNs != int64(2*time.Millisecond) || got[1].LatencyNs != int64(80*time.Millisecond) {
		// Limit keeps the MOST RECENT events (records 3 and 4), oldest first.
		t.Fatalf("limit=2 kept %+v, want records 3 and 4", got)
	}
}

func TestJournalSeqAndSince(t *testing.T) {
	j := NewJournal(16)
	for i := 0; i < 5; i++ {
		seq := j.Append(JournalEvent{Type: EventMutationBatch, Dataset: "d"})
		if seq != uint64(i+1) {
			t.Fatalf("append %d assigned seq %d, want %d", i, seq, i+1)
		}
	}
	if j.LastSeq() != 5 {
		t.Fatalf("LastSeq = %d, want 5", j.LastSeq())
	}
	got := j.Since(2, 0)
	if len(got) != 3 || got[0].Seq != 3 || got[2].Seq != 5 {
		t.Fatalf("Since(2) = %+v, want seqs 3..5", got)
	}
	if got := j.Since(2, 2); len(got) != 2 || got[1].Seq != 4 {
		t.Fatalf("Since(2, limit 2) = %+v, want seqs 3,4", got)
	}
	if got := j.Since(5, 0); len(got) != 0 {
		t.Fatalf("Since(last) = %+v, want empty", got)
	}
	for _, ev := range j.Snapshot() {
		if ev.Time.IsZero() {
			t.Fatal("Append left a zero timestamp")
		}
	}
}

func TestJournalRingEviction(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Append(JournalEvent{Type: EventMutationBatch})
	}
	got := j.Snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d events at capacity 4, want 4", len(got))
	}
	for i, ev := range got {
		if want := uint64(7 + i); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
	// A caller asking from a long-evicted cursor sees the gap: the first
	// returned seq jumps past after+1.
	if got := j.Since(1, 0); got[0].Seq != 7 {
		t.Fatalf("Since(1) starts at seq %d, want 7 (gap)", got[0].Seq)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	if seq := j.Append(JournalEvent{Type: EventBlackBox}); seq != 0 {
		t.Fatalf("nil Append = %d, want 0", seq)
	}
	if j.LastSeq() != 0 || j.Since(0, 0) != nil || j.Snapshot() != nil {
		t.Fatal("nil journal reads are not zero")
	}
}

// BenchmarkFlightShouldCaptureDrop measures the always-on recorder's cost
// on the overwhelmingly common path: an ordinary request that is NOT
// captured. This is the number the <2% serving-overhead claim rests on.
func BenchmarkFlightShouldCaptureDrop(b *testing.B) {
	f := NewFlightRecorder(0, 500*time.Millisecond, DefaultFlightSampleEvery)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			f.ShouldCapture("kspr", 200, time.Millisecond)
		}
	})
}
