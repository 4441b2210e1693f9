package store

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
)

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return s
}

func apply(t *testing.T, s *Store, muts ...Mutation) (*Version, []Applied) {
	t.Helper()
	v, a, err := s.Apply(muts)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	return v, a
}

func TestApplyBasics(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	v, a := apply(t, s,
		Mutation{Op: OpInsert, Values: []float64{1, 2}},
		Mutation{Op: OpInsert, Values: []float64{3, 4}},
	)
	if v.Gen != 1 || v.Len() != 2 || v.Dim() != 2 {
		t.Fatalf("after insert: gen=%d len=%d dim=%d", v.Gen, v.Len(), v.Dim())
	}
	if a[0].ID != 0 || a[1].ID != 1 {
		t.Fatalf("assigned ids %d, %d", a[0].ID, a[1].ID)
	}
	v, a = apply(t, s, Mutation{Op: OpUpdate, ID: 0, Values: []float64{9, 9}})
	if got := v.Rows()[0]; got[0] != 9 {
		t.Fatalf("update not applied: %v", got)
	}
	if a[0].Old[0] != 1 {
		t.Fatalf("old values not captured: %v", a[0].Old)
	}
	v, _ = apply(t, s, Mutation{Op: OpDelete, ID: 0})
	if v.Len() != 1 || v.IDs()[0] != 1 {
		t.Fatalf("delete left %v", v.IDs())
	}
	if _, ok := v.Dense(0); ok {
		t.Fatal("deleted id still dense-resolvable")
	}
	if i, ok := v.Dense(1); !ok || i != 0 {
		t.Fatalf("Dense(1) = %d, %v", i, ok)
	}
	// New inserts never reuse a deleted id.
	_, a = apply(t, s, Mutation{Op: OpInsert, Values: []float64{5, 5}})
	if a[0].ID != 2 {
		t.Fatalf("insert reused id: %d", a[0].ID)
	}
}

func TestApplyValidation(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	apply(t, s, Mutation{Op: OpInsert, Values: []float64{1, 2}})
	cases := []Mutation{
		{Op: OpInsert, Values: []float64{1, 2, 3}},     // wrong dim
		{Op: OpInsert, Values: nil},                    // empty
		{Op: OpInsert, ID: 7, Values: []float64{1, 2}}, // explicit id
		{Op: OpUpdate, ID: 42, Values: []float64{1, 2}},
		{Op: OpDelete, ID: 42},
		{Op: OpDelete, ID: 0, Values: []float64{1, 2}},
		{Op: Op(9)},
	}
	for i, m := range cases {
		if _, _, err := s.Apply([]Mutation{m}); err == nil {
			t.Fatalf("case %d: invalid mutation accepted", i)
		}
	}
	// A failed batch must not change anything.
	_, _, err := s.Apply([]Mutation{
		{Op: OpInsert, Values: []float64{8, 8}},
		{Op: OpDelete, ID: 42},
	})
	if err == nil {
		t.Fatal("half-bad batch accepted")
	}
	v := s.View()
	if v.Gen != 1 || v.Len() != 1 {
		t.Fatalf("failed batch mutated state: gen=%d len=%d", v.Gen, v.Len())
	}
}

func TestVersionsAreImmutable(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	v1, _ := apply(t, s, Mutation{Op: OpInsert, Values: []float64{1, 2}})
	v2, _ := apply(t, s, Mutation{Op: OpUpdate, ID: 0, Values: []float64{7, 7}})
	if v1.Rows()[0][0] != 1 {
		t.Fatalf("old version mutated: %v", v1.Rows()[0])
	}
	if v2.Rows()[0][0] != 7 {
		t.Fatalf("new version wrong: %v", v2.Rows()[0])
	}
}

func TestRecoveryFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	apply(t, s, Mutation{Op: OpInsert, Values: []float64{1, 2}})
	apply(t, s, Mutation{Op: OpInsert, Values: []float64{3, 4}})
	apply(t, s, Mutation{Op: OpDelete, ID: 0})
	want := s.View()
	// Simulate a crash: reopen without Close.
	s2 := open(t, dir, Options{})
	assertSameVersion(t, want, s2.View())
	// The recovered store keeps assigning fresh ids.
	_, a := apply(t, s2, Mutation{Op: OpInsert, Values: []float64{5, 6}})
	if a[0].ID != 2 {
		t.Fatalf("recovered nextID wrong: assigned %d", a[0].ID)
	}
}

func TestRecoveryWithSnapshotAndTail(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SnapshotEvery: -1})
	apply(t, s, Mutation{Op: OpInsert, Values: []float64{1, 2}})
	apply(t, s, Mutation{Op: OpInsert, Values: []float64{3, 4}})
	if err := s.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	apply(t, s, Mutation{Op: OpUpdate, ID: 1, Values: []float64{8, 8}})
	want := s.View()
	s2 := open(t, dir, Options{})
	assertSameVersion(t, want, s2.View())
	if s2.View().Gen != 3 {
		t.Fatalf("recovered generation %d, want 3", s2.View().Gen)
	}
}

func TestTornTailIsTruncated(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	apply(t, s, Mutation{Op: OpInsert, Values: []float64{1, 2}})
	want := s.View()
	// A crash mid-append leaves a torn frame: some header bytes and part
	// of a payload.
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{200, 0, 0, 0, 1, 2, 3, 4, 9, 9}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s2 := open(t, dir, Options{})
	assertSameVersion(t, want, s2.View())
	// The tail was truncated, so appending keeps working.
	v, _ := apply(t, s2, Mutation{Op: OpInsert, Values: []float64{3, 4}})
	if v.Gen != 2 || v.Len() != 2 {
		t.Fatalf("post-truncate apply: gen=%d len=%d", v.Gen, v.Len())
	}
	s3 := open(t, dir, Options{})
	assertSameVersion(t, v, s3.View())
}

func TestMidLogCorruptionIsAnError(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	apply(t, s, Mutation{Op: OpInsert, Values: []float64{1, 2}})
	apply(t, s, Mutation{Op: OpInsert, Values: []float64{3, 4}})
	path := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[9] ^= 0xff // flip a byte inside the FIRST frame's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("mid-log corruption silently accepted")
	}
}

// TestCrashStream is the acceptance scenario: a randomized mutation
// stream, "killed" (abandoned without Close) at a random point and
// reopened, must recover the exact pre-crash dataset and generation —
// including when snapshots landed mid-stream.
func TestCrashStream(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 5; round++ {
		dir := t.TempDir()
		s := open(t, dir, Options{SnapshotEvery: 7})
		var live []int64
		steps := 10 + rng.Intn(40)
		for i := 0; i < steps; i++ {
			var m Mutation
			switch {
			case len(live) == 0 || rng.Float64() < 0.5:
				m = Mutation{Op: OpInsert, Values: []float64{rng.Float64(), rng.Float64(), rng.Float64()}}
			case rng.Float64() < 0.5:
				m = Mutation{Op: OpUpdate, ID: live[rng.Intn(len(live))], Values: []float64{rng.Float64(), rng.Float64(), rng.Float64()}}
			default:
				m = Mutation{Op: OpDelete, ID: live[rng.Intn(len(live))]}
			}
			_, a, err := s.Apply([]Mutation{m})
			if err != nil {
				t.Fatalf("round %d step %d: %v", round, i, err)
			}
			switch a[0].Op {
			case OpInsert:
				live = append(live, a[0].ID)
			case OpDelete:
				for j, id := range live {
					if id == a[0].ID {
						live = append(live[:j], live[j+1:]...)
						break
					}
				}
			}
		}
		want := s.View()
		s2 := open(t, dir, Options{}) // crash: no Close
		assertSameVersion(t, want, s2.View())
		if s2.View().Gen != want.Gen {
			t.Fatalf("round %d: recovered gen %d, want %d", round, s2.View().Gen, want.Gen)
		}
	}
}

func TestSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SnapshotEvery: 3})
	for i := 0; i < 7; i++ {
		apply(t, s, Mutation{Op: OpInsert, Values: []float64{float64(i), 1}})
	}
	// 7 batches with cadence 3: two snapshots happened, WAL holds 1 frame.
	fi, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("wal empty; expected exactly the post-snapshot tail")
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.snap")); err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}
	s2 := open(t, dir, Options{})
	assertSameVersion(t, s.View(), s2.View())
}

func TestSyncOption(t *testing.T) {
	s := open(t, t.TempDir(), Options{Sync: true})
	v, _ := apply(t, s, Mutation{Op: OpInsert, Values: []float64{1, 2}})
	if v.Gen != 1 {
		t.Fatalf("gen %d", v.Gen)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, _, err := s.Apply([]Mutation{{Op: OpInsert, Values: []float64{1, 2}}}); err == nil {
		t.Fatal("apply after close accepted")
	}
}

func assertSameVersion(t *testing.T, want, got *Version) {
	t.Helper()
	if want.Gen != got.Gen {
		t.Fatalf("generation %d, want %d", got.Gen, want.Gen)
	}
	if !reflect.DeepEqual(want.IDs(), got.IDs()) {
		t.Fatalf("ids %v, want %v", got.IDs(), want.IDs())
	}
	if !reflect.DeepEqual(want.Rows(), got.Rows()) {
		t.Fatalf("rows differ")
	}
	if want.Dim() != got.Dim() {
		t.Fatalf("dim %d, want %d", got.Dim(), want.Dim())
	}
}

func TestApplyRecordsExported(t *testing.T) {
	recs, nextID, dim, applied, err := ApplyRecords(nil, 0, 0, []Mutation{
		{Op: OpInsert, Values: []float64{1, 2}},
		{Op: OpInsert, Values: []float64{3, 4}},
		{Op: OpUpdate, ID: 0, Values: []float64{5, 6}},
		{Op: OpDelete, ID: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != 0 || recs[0].Values[0] != 5 {
		t.Fatalf("records %+v", recs)
	}
	if nextID != 2 || dim != 2 || len(applied) != 4 {
		t.Fatalf("nextID=%d dim=%d applied=%d", nextID, dim, len(applied))
	}
	// The exported form never accepts pre-assigned insert ids.
	if _, _, _, _, err := ApplyRecords(nil, 0, 0, []Mutation{{Op: OpInsert, ID: 5, Values: []float64{1, 2}}}); err == nil {
		t.Fatal("pre-assigned insert id accepted outside replay")
	}
}

func TestOpStringAndAccessors(t *testing.T) {
	for op, want := range map[Op]string{OpInsert: "insert", OpUpdate: "update", OpDelete: "delete", Op(9): "Op(9)"} {
		if got := op.String(); got != want {
			t.Fatalf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if s.Dir() != dir {
		t.Fatalf("Dir() = %q", s.Dir())
	}
	v, _ := apply(t, s, Mutation{Op: OpInsert, Values: []float64{1, 2}})
	if recs := v.Records(); len(recs) != 1 || recs[0].ID != 0 {
		t.Fatalf("Records() = %+v", recs)
	}
}

// TestReloadChangesDimensionality pins the delete-all + insert-all reload
// pattern: emptying the store mid-batch frees the dimensionality, so the
// same atomic batch may re-establish a different one.
func TestReloadChangesDimensionality(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	apply(t, s, Mutation{Op: OpInsert, Values: []float64{1, 2, 3}},
		Mutation{Op: OpInsert, Values: []float64{4, 5, 6}})
	v, _ := apply(t, s,
		Mutation{Op: OpDelete, ID: 0},
		Mutation{Op: OpDelete, ID: 1},
		Mutation{Op: OpInsert, Values: []float64{1, 2, 3, 4}},
		Mutation{Op: OpInsert, Values: []float64{5, 6, 7, 8}},
	)
	if v.Dim() != 4 || v.Len() != 2 {
		t.Fatalf("after reload batch: dim=%d len=%d", v.Dim(), v.Len())
	}
	// And the mixed-dim batch without full emptying still fails.
	if _, _, err := s.Apply([]Mutation{{Op: OpInsert, Values: []float64{1, 2}}}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

// refApplyRecords is applyRecords as it was before deletes became
// tombstones, kept as the reference: each delete closes its gap at once,
// so a batch of m deletes moves O(n·m) records.
func refApplyRecords(in []Record, nextID int64, dim int, muts []Mutation, replay bool) (
	[]Record, int64, int, []Applied, error) {
	recs := append(make([]Record, 0, len(in)+len(muts)), in...)
	applied := make([]Applied, 0, len(muts))
	find := func(id int64) (int, bool) {
		i := sort.Search(len(recs), func(i int) bool { return recs[i].ID >= id })
		if i < len(recs) && recs[i].ID == id {
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
			old := recs[i].Values
			recs = append(recs[:i], recs[i+1:]...)
			applied = append(applied, Applied{Mutation: Mutation{Op: OpDelete, ID: m.ID}, Old: old})
			if len(recs) == 0 {
				dim = 0
			}
		default:
			return nil, 0, 0, nil, fmt.Errorf("store: mutation %d: unknown op %d", mi, m.Op)
		}
	}
	if len(recs) == 0 {
		dim = 0
	}
	return recs, nextID, dim, applied, nil
}

// randBatch draws a store of up to 8 records and a batch of up to 12
// mutations over it. Ids come from the live records, from ids deleted
// earlier in the batch, and from unknown ids; values are sometimes of the
// wrong width, empty or non-finite. In "reload" mode the batch deletes
// every live id in ascending order, then inserts records of a new
// dimensionality, as Registry.Load does.
func randBatch(rng *rand.Rand, reload bool) ([]Record, int64, int, []Mutation) {
	dim := 2 + rng.Intn(2)
	var recs []Record
	id := int64(rng.Intn(3))
	for i := rng.Intn(9); i > 0; i-- {
		vals := make([]float64, dim)
		for j := range vals {
			vals[j] = float64(rng.Intn(4))
		}
		recs = append(recs, Record{ID: id, Values: vals})
		id += 1 + int64(rng.Intn(3))
	}
	nextID := id + int64(rng.Intn(2))
	if len(recs) == 0 {
		dim = 0
	}
	values := func(d int) []float64 {
		switch rng.Intn(60) {
		case 0:
			return nil
		case 1:
			return []float64{math.Inf(1)}
		case 2:
			d = 1 + rng.Intn(4)
		}
		vals := make([]float64, d)
		for j := range vals {
			vals[j] = float64(rng.Intn(4))
		}
		return vals
	}
	// live and gone track the ids the batch so far leaves live and has
	// deleted, so most picks address a live record.
	var live, gone []int64
	for _, r := range recs {
		live = append(live, r.ID)
	}
	pickID := func() int64 {
		switch p := rng.Intn(24); {
		case p < 22 && len(live) > 0:
			return live[rng.Intn(len(live))]
		case p == 22 && len(gone) > 0:
			return gone[rng.Intn(len(gone))]
		}
		return int64(rng.Intn(int(nextID) + 3))
	}
	var muts []Mutation
	if reload {
		for _, r := range recs {
			muts = append(muts, Mutation{Op: OpDelete, ID: r.ID})
		}
		newDim := 2 + rng.Intn(3)
		for i := 1 + rng.Intn(4); i > 0; i-- {
			muts = append(muts, Mutation{Op: OpInsert, Values: values(newDim)})
		}
		if rng.Intn(2) == 0 {
			muts = append(muts, Mutation{Op: OpUpdate, ID: pickID(), Values: values(newDim)})
		}
		return recs, nextID, dim, muts
	}
	d, next := max(dim, 2), nextID
	for i := rng.Intn(13); i > 0; i-- {
		var m Mutation
		switch op := rng.Intn(40); {
		case op < 16:
			m = Mutation{Op: OpInsert, Values: values(d)}
			if rng.Intn(40) == 0 {
				m.ID = next + int64(rng.Intn(3)) - 1
			}
			live = append(live, max(next, m.ID))
			next = max(next, m.ID) + 1
		case op < 24:
			m = Mutation{Op: OpUpdate, ID: pickID(), Values: values(d)}
		case op < 39:
			m = Mutation{Op: OpDelete, ID: pickID()}
			if rng.Intn(40) == 0 {
				m.Values = values(d)
			}
			if i := slices.Index(live, m.ID); i >= 0 {
				live = slices.Delete(live, i, i+1)
				gone = append(gone, m.ID)
			}
		default:
			m = Mutation{Op: Op(4 + rng.Intn(2)), ID: pickID()}
		}
		muts = append(muts, m)
	}
	return recs, nextID, dim, muts
}

// cloneRecords deep-copies recs, values included; nil stays nil.
func cloneRecords(recs []Record) []Record {
	if recs == nil {
		return nil
	}
	out := make([]Record, len(recs))
	for i, r := range recs {
		out[i] = Record{ID: r.ID, Values: append([]float64(nil), r.Values...)}
	}
	return out
}

// TestApplyRecordsMatchesReference pins the tombstoning applyRecords to
// the reference on random batches, in both modes: the same records, id
// watermark, dimensionality, executed mutations and error text, and an
// input left untouched whether the batch applies or fails.
func TestApplyRecordsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var failed, emptied, redimmed int
	for trial := 0; trial < 4000; trial++ {
		reload, replay := trial%4 == 0, trial%3 == 0
		in, nextID, dim, muts := randBatch(rng, reload)
		before := cloneRecords(in)
		wantRecs, wantNext, wantDim, wantApplied, wantErr := refApplyRecords(cloneRecords(in), nextID, dim, muts, replay)
		gotRecs, gotNext, gotDim, gotApplied, gotErr := applyRecords(in, nextID, dim, muts, replay)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("trial %d: error %v, reference %v (muts %+v)", trial, gotErr, wantErr, muts)
		}
		if !reflect.DeepEqual(in, before) {
			t.Fatalf("trial %d: input modified: %+v, was %+v", trial, in, before)
		}
		if wantErr != nil {
			failed++
			continue
		}
		if len(wantRecs) == 0 {
			emptied++
		}
		if dim != 0 && wantDim != 0 && wantDim != dim {
			redimmed++
		}
		if !reflect.DeepEqual(gotRecs, wantRecs) || gotNext != wantNext || gotDim != wantDim ||
			!reflect.DeepEqual(gotApplied, wantApplied) {
			t.Fatalf("trial %d: got (%+v, %d, %d, %+v), reference (%+v, %d, %d, %+v) for muts %+v",
				trial, gotRecs, gotNext, gotDim, gotApplied, wantRecs, wantNext, wantDim, wantApplied, muts)
		}
	}
	if failed < 400 || failed > 3600 || emptied < 40 || redimmed < 40 {
		t.Fatalf("weak coverage: %d of 4000 batches failed, %d emptied the store, %d changed its dimensionality",
			failed, emptied, redimmed)
	}
}

// BenchmarkApplyRecordsReload times the durable reload batch at n=20,000:
// delete every live id in ascending order, then insert n new records.
func BenchmarkApplyRecordsReload(b *testing.B) {
	const n, d = 20000, 3
	rng := rand.New(rand.NewSource(1))
	in := make([]Record, n)
	muts := make([]Mutation, 0, 2*n)
	for i := range in {
		in[i] = Record{ID: int64(i), Values: []float64{rng.Float64(), rng.Float64(), rng.Float64()}}
		muts = append(muts, Mutation{Op: OpDelete, ID: int64(i)})
	}
	for i := 0; i < n; i++ {
		muts = append(muts, Mutation{Op: OpInsert, Values: []float64{rng.Float64(), rng.Float64(), rng.Float64()}})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recs, _, _, _, err := ApplyRecords(in, n, d, muts); err != nil || len(recs) != n {
			b.Fatalf("reload: %d records, %v", len(recs), err)
		}
	}
}
