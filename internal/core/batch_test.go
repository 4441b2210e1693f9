package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// TestBatchMatchesSerial is the batch scheduler's correctness contract:
// for every algorithm, across seeds, dimensionalities, shortlist sizes and
// scheduler shapes, RunBatch returns per-item results that are deeply
// identical — same regions in the same order, same ranks, witnesses,
// vertices, constraints, volumes and side statistics — to running each
// item through Run serially.
func TestBatchMatchesSerial(t *testing.T) {
	for _, algo := range []Algorithm{CTA, PCTA, LPCTA, KSkybandCTA} {
		for _, d := range []int{3, 5} {
			if d == 5 && (algo == CTA || algo == KSkybandCTA) {
				// The non-progressive variants process every record in high
				// dimensions; LP-CTA and P-CTA cover the d=5 paths cheaply.
				continue
			}
			for _, k := range []int{4, 8} {
				n := 200
				if d == 5 {
					n = 60
				}
				if raceEnabled {
					n /= 2
				}
				seed := int64(41*int64(d) + int64(k))
				tr, recs := buildRandom(t, n, d, seed)

				// A panel of focal options: skyline records (real work),
				// an arbitrary mid-dataset record, a hypothetical vector
				// focal, and one item overriding the batch K.
				sky := tr.Skyline(nil)
				items := []BatchItem{
					{FocalID: sky[0]},
					{FocalID: sky[len(sky)/2]},
					{FocalID: n / 3},
					{FocalID: -1, Focal: recs[sky[0]].Clone()},
					{FocalID: sky[len(sky)-1], K: k / 2},
				}
				base := Options{
					K:                k,
					Algorithm:        algo,
					FinalizeGeometry: true,
					ComputeVolumes:   d == 3,
					VolumeSamples:    400,
					Seed:             7,
				}

				// Ground truth: each item as an independent serial run.
				want := make([]*Result, len(items))
				for i, it := range items {
					o := base
					if it.K != 0 {
						o.K = it.K
					}
					o.Parallelism = 1
					focal := it.Focal
					if focal == nil {
						focal = recs[it.FocalID]
					}
					res, err := Run(tr, focal, it.FocalID, o)
					if err != nil {
						t.Fatalf("%v d=%d k=%d item %d serial: %v", algo, d, k, i, err)
					}
					want[i] = res
				}

				// Scheduler shapes for the 5-item panel: slots x engine
				// workers, plus the fork pool's leftover tokens.
				for _, cfg := range []struct {
					label                     string
					parallelism, slots, inner int
				}{
					{"one slot", 1, 1, 1},
					{"two slots, no fork pool", 2, 2, 1},
					{"five slots, 1-token pool", 6, 5, 1},
					{"five 2-worker slots, 7-token pool", 12, 5, 2},
				} {
					if slots, inner := resolveOuterInner(cfg.parallelism, len(items)); slots != cfg.slots || inner != cfg.inner {
						t.Fatalf("%s: parallelism %d resolves to %d slots x %d workers",
							cfg.label, cfg.parallelism, slots, inner)
					}
					opts := BatchOptions{Options: base}
					opts.Parallelism = cfg.parallelism
					got, err := RunBatch(tr, items, opts)
					if err != nil {
						t.Fatalf("%v d=%d k=%d %s: %v", algo, d, k, cfg.label, err)
					}
					if len(got) != len(items) {
						t.Fatalf("%v d=%d k=%d %s: %d outcomes for %d items",
							algo, d, k, cfg.label, len(got), len(items))
					}
					for i := range got {
						if got[i].Err != nil {
							t.Fatalf("%v d=%d k=%d %s item %d: %v", algo, d, k, cfg.label, i, got[i].Err)
						}
						if !reflect.DeepEqual(got[i].Result.Regions, want[i].Regions) {
							t.Fatalf("%v d=%d k=%d %s: item %d regions differ\nserial: %+v\nbatch:  %+v",
								algo, d, k, cfg.label, i, want[i].Regions, got[i].Result.Regions)
						}
						if gs, ws := statsComparable(got[i].Result.Stats), statsComparable(want[i].Stats); gs != ws {
							t.Fatalf("%v d=%d k=%d %s: item %d stats differ\nserial: %+v\nbatch:  %+v",
								algo, d, k, cfg.label, i, ws, gs)
						}
					}
				}
			}
		}
	}
}

// TestBatchPerItemErrors: a bad item settles with its own error and leaves
// its siblings untouched.
func TestBatchPerItemErrors(t *testing.T) {
	tr, _ := buildRandom(t, 80, 3, 5)
	items := []BatchItem{
		{FocalID: tr.Skyline(nil)[0]},
		{FocalID: 9999},                         // out of range
		{FocalID: -1, Focal: geom.Vector{1, 1}}, // wrong dimensionality
		{FocalID: tr.Skyline(nil)[0], K: 3},     // fine
	}
	got, err := RunBatch(tr, items, BatchOptions{Options: Options{K: 5, Algorithm: LPCTA, Parallelism: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Err != nil || got[0].Result == nil {
		t.Fatalf("item 0 should succeed: %v", got[0].Err)
	}
	if got[1].Err == nil {
		t.Fatal("out-of-range focal id must fail")
	}
	if got[2].Err == nil {
		t.Fatal("wrong-dimensional focal vector must fail")
	}
	if got[3].Err != nil || got[3].Result == nil {
		t.Fatalf("item 3 should succeed: %v", got[3].Err)
	}
}

// TestBatchItemCancellation: an item runs under both the batch context
// and its own. A done item context fails only that item; a done batch
// context fails every item, including one whose own context is live, with
// the error of the context that fired.
func TestBatchItemCancellation(t *testing.T) {
	tr, _ := buildRandom(t, 120, 3, 23)
	sky := tr.Skyline(nil)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	live, cancelLive := context.WithCancel(context.Background())
	defer cancelLive()
	for _, tc := range []struct {
		name        string
		batch, item context.Context
		// want[i] is the error item i must fail with; nil means it succeeds.
		want [2]error
	}{
		{"item cancelled, no batch context", nil, cancelled, [2]error{nil, context.Canceled}},
		{"item cancelled, batch live", live, cancelled, [2]error{nil, context.Canceled}},
		{"item deadline expired, batch live", live, expired, [2]error{nil, context.DeadlineExceeded}},
		{"batch cancelled, item live", cancelled, context.Background(), [2]error{context.Canceled, context.Canceled}},
		{"batch deadline expired, item live", expired, live, [2]error{context.DeadlineExceeded, context.DeadlineExceeded}},
	} {
		items := []BatchItem{
			{FocalID: sky[0]},
			{FocalID: sky[0], Ctx: tc.item},
		}
		got, err := RunBatch(tr, items, BatchOptions{Options: Options{
			K: 5, Algorithm: LPCTA, Parallelism: 2, Ctx: tc.batch,
		}})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, want := range tc.want {
			switch {
			case want == nil && got[i].Err != nil:
				t.Errorf("%s: item %d failed: %v", tc.name, i, got[i].Err)
			case want != nil && !errors.Is(got[i].Err, want):
				t.Errorf("%s: item %d returned %v, want %v", tc.name, i, got[i].Err, want)
			}
		}
	}
}

// TestBatchSharesBandTable pins that batch items share the generation's
// band table: a batch over a fresh tree fills its band slot, at the depth
// the deepest item needs, while its items run concurrently, and every item
// still equals a serial Run on a separate tree. The race-stress lane runs
// this test at -count=10.
func TestBatchSharesBandTable(t *testing.T) {
	n := 160
	if raceEnabled {
		n /= 2
	}
	_, recs := buildRandom(t, n, 3, 77)
	batchTree, err := rtree.Build(recs)
	if err != nil {
		t.Fatal(err)
	}
	serialTree, err := rtree.Build(recs)
	if err != nil {
		t.Fatal(err)
	}
	if batchTree.Band() != nil {
		t.Fatal("a freshly built tree already holds a band table")
	}
	// Skyline focals reach the skyband read at every K.
	sky := batchTree.Skyline(nil)
	const maxK = 8
	items := make([]BatchItem, 6)
	for i := range items {
		items[i] = BatchItem{FocalID: sky[i%len(sky)], K: 4}
		if i%2 == 1 {
			items[i].K = maxK
		}
	}
	base := Options{Algorithm: LPCTA, FinalizeGeometry: true, Parallelism: 1}
	opts := BatchOptions{Options: base}
	opts.Parallelism = 4
	got, err := RunBatch(batchTree, items, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if got[i].Err != nil {
			t.Fatalf("item %d: %v", i, got[i].Err)
		}
		o := base
		o.K = it.K
		want, err := Run(serialTree, recs[it.FocalID], it.FocalID, o)
		if err != nil {
			t.Fatalf("item %d serial: %v", i, err)
		}
		if !reflect.DeepEqual(got[i].Result.Regions, want.Regions) {
			t.Fatalf("item %d (k=%d): regions differ from the serial run", i, it.K)
		}
		if gs, ws := statsComparable(got[i].Result.Stats), statsComparable(want.Stats); gs != ws {
			t.Fatalf("item %d (k=%d): stats differ\nserial: %+v\nbatch:  %+v", i, it.K, ws, gs)
		}
	}
	if b := batchTree.Band(); b == nil || b.K != maxK+1 {
		t.Fatalf("after the batch the band slot holds %+v, want a depth-%d table", b, maxK+1)
	}
}

// TestBatchOnOutcome: every item fires the callback exactly once, with the
// same outcome that lands in the returned slice.
func TestBatchOnOutcome(t *testing.T) {
	tr, _ := buildRandom(t, 80, 3, 31)
	sky := tr.Skyline(nil)
	items := make([]BatchItem, 6)
	for i := range items {
		items[i] = BatchItem{FocalID: sky[i%len(sky)]}
	}
	var mu sync.Mutex
	seen := make(map[int]int)
	opts := BatchOptions{
		Options: Options{K: 4, Algorithm: PCTA, Parallelism: 3},
		OnOutcome: func(i int, o BatchOutcome) {
			mu.Lock()
			seen[i]++
			mu.Unlock()
		},
	}
	got, err := RunBatch(tr, items, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(items) {
		t.Fatalf("callback fired for %d items, want %d", len(seen), len(items))
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("item %d fired %d times", i, c)
		}
	}
	for i := range got {
		if got[i].Err != nil {
			t.Fatalf("item %d: %v", i, got[i].Err)
		}
	}
}

// TestBatchValidation covers the batch-level error paths.
func TestBatchValidation(t *testing.T) {
	tr, _ := buildRandom(t, 30, 3, 3)
	if got, err := RunBatch(tr, nil, BatchOptions{Options: Options{K: 3}}); err != nil || got != nil {
		t.Fatalf("empty batch: got %v, %v; want nil, nil", got, err)
	}
	items := []BatchItem{{FocalID: 0}}
	if _, err := RunBatch(tr, items, BatchOptions{}); err == nil {
		t.Fatal("batch without any positive K must error")
	}
}
