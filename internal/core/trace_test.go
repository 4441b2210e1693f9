package core

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rtree"
)

// phaseSet runs one traced query and returns the recorded phase names.
func phaseSet(t *testing.T, opts Options) (map[string]obs.Phase, *Result) {
	t.Helper()
	tr, recs := buildIND(t, 120, 4, 99)
	// A skyline focal guarantees a non-empty result (rank 1 somewhere).
	focalID := tr.Skyline()[0]
	trace := obs.NewTrace()
	opts.K = 8
	opts.Trace = trace
	opts.FinalizeGeometry = true
	res, err := Run(tr, recs[focalID], focalID, opts)
	if err != nil {
		t.Fatalf("%v: %v", opts.Algorithm, err)
	}
	got := make(map[string]obs.Phase)
	for _, p := range trace.Phases() {
		if p.Ns < 0 || p.Count <= 0 {
			t.Fatalf("%v: malformed phase %+v", opts.Algorithm, p)
		}
		got[p.Name] = p
	}
	if trace.TotalNs() > res.Stats.Elapsed.Nanoseconds() {
		t.Fatalf("%v: phase sum %d exceeds elapsed %d (phases overlap?)",
			opts.Algorithm, trace.TotalNs(), res.Stats.Elapsed.Nanoseconds())
	}
	return got, res
}

// TestTracePhaseCompleteness pins the phase vocabulary each algorithm
// records: every path must account its dominance filtering, expansion and
// finalization, the skyband/progressive paths their candidate discovery,
// and LP-CTA its rank-bound classification. Phase times must never sum
// past the run's wall time (the non-overlap invariant EXPLAIN mode
// depends on).
func TestTracePhaseCompleteness(t *testing.T) {
	expect := map[Algorithm][]string{
		CTA:         {PhaseDominance, PhaseExpand, PhaseFinalize},
		KSkybandCTA: {PhaseDominance, PhaseSkyband, PhaseExpand, PhaseFinalize},
		PCTA:        {PhaseDominance, PhaseSkyband, PhaseExpand, PhasePivots, PhaseFinalize},
		LPCTA:       {PhaseDominance, PhaseSkyband, PhaseExpand, PhaseRankBounds, PhasePivots, PhaseFinalize},
	}
	for algo, want := range expect {
		for _, par := range []int{1, 4} {
			got, res := phaseSet(t, Options{Algorithm: algo, Parallelism: par})
			if res.Stats.Regions == 0 {
				t.Fatalf("%v: expected a non-empty result for the phase check", algo)
			}
			for _, name := range want {
				if _, ok := got[name]; !ok {
					t.Errorf("%v (parallelism %d): phase %q missing (got %v)", algo, par, name, got)
				}
			}
		}
	}
}

// TestTraceDisabledIsIdentical pins that running with and without a trace
// yields byte-identical results (tracing is pure observation).
func TestTraceDisabledIsIdentical(t *testing.T) {
	tr, recs := buildIND(t, 100, 3, 17)
	base, err := Run(tr, recs[5], 5, Options{K: 6, Algorithm: LPCTA, FinalizeGeometry: true})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := Run(tr, recs[5], 5, Options{K: 6, Algorithm: LPCTA, FinalizeGeometry: true, Trace: obs.NewTrace()})
	if err != nil {
		t.Fatal(err)
	}
	if string(EncodeResult(base)) != string(EncodeResult(traced)) {
		t.Fatal("tracing changed the result")
	}
}

// TestTraceBatchShared pins that one trace, shared by every item of a
// batch, aggregates all their phases without racing.
func TestTraceBatchShared(t *testing.T) {
	tr, recs := buildIND(t, 120, 4, 23)
	trace := obs.NewTrace()
	items := make([]BatchItem, 6)
	for i := range items {
		items[i] = BatchItem{FocalID: i * 7}
	}
	_ = recs
	outcomes, err := RunBatch(tr, items, BatchOptions{Options: Options{
		K: 8, Algorithm: LPCTA, FinalizeGeometry: true, Trace: trace, Parallelism: 4,
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("item %d: %v", i, o.Err)
		}
	}
	got := map[string]bool{}
	for _, p := range trace.Phases() {
		got[p.Name] = true
	}
	for _, name := range []string{PhaseSkyband, PhaseExpand, PhaseRankBounds, PhaseFinalize} {
		if !got[name] {
			t.Errorf("batch trace missing phase %q (got %v)", name, trace.Phases())
		}
	}
}

// TestTraceIncrementalClassify pins that maintained queries record the
// delta-classification phase on the keep path.
func TestTraceIncrementalClassify(t *testing.T) {
	tr, recs := buildIND(t, 80, 3, 31)
	trace := obs.NewTrace()
	m, err := NewMaintainer(tr, recs[4], 4, Options{K: 5, Algorithm: LPCTA, FinalizeGeometry: true, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	// Insert a record far from the focal's competitive neighbourhood: the
	// classifier runs (recording PhaseClassify) whatever it decides.
	newRec := geom.Vector{0.001, 0.001, 0.001}
	recs2 := append(append([]geom.Vector{}, recs...), newRec)
	tr2, err := rtree.Build(recs2, rtree.WithFanout(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Apply(tr2, 4, []Delta{{New: newRec}}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range trace.Phases() {
		if p.Name == PhaseClassify {
			found = true
		}
	}
	if !found {
		t.Fatalf("maintained apply did not record %q (got %v)", PhaseClassify, trace.Phases())
	}
}
