package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
)

func ctxTestTree(t *testing.T, n, d int) *rtree.Tree {
	t.Helper()
	ds, err := dataset.Generate(dataset.Anticorrelated, n, d, 42)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]geom.Vector, len(ds.Records))
	copy(recs, ds.Records)
	tree, err := rtree.Build(recs)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestRunHonoursCancelledContext(t *testing.T) {
	tree := ctxTestTree(t, 500, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead before the query starts

	for _, algo := range []Algorithm{CTA, PCTA, LPCTA} {
		_, err := Run(tree, tree.Records[3], 3, Options{K: 10, Algorithm: algo, Ctx: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", algo, err)
		}
	}
}

func TestRunHonoursDeadline(t *testing.T) {
	tree := ctxTestTree(t, 3000, 4)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Run(tree, tree.Records[1], 1, Options{K: 30, Algorithm: CTA, Ctx: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// The full CTA query on this workload takes orders of magnitude longer
	// than the deadline; cancellation must cut processing short.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("query ran %v past a 1ms deadline", elapsed)
	}
}

func TestRunNilContextUnaffected(t *testing.T) {
	tree := ctxTestTree(t, 200, 3)
	res, err := Run(tree, tree.Records[5], 5, Options{K: 5, Algorithm: LPCTA, FinalizeGeometry: true})
	if err != nil {
		t.Fatalf("nil-ctx run failed: %v", err)
	}
	// Same query with a live context must agree exactly.
	res2, err := Run(tree, tree.Records[5], 5, Options{
		K: 5, Algorithm: LPCTA, FinalizeGeometry: true, Ctx: context.Background(),
	})
	if err != nil {
		t.Fatalf("ctx run failed: %v", err)
	}
	if len(res.Regions) != len(res2.Regions) {
		t.Fatalf("ctx changed the result: %d vs %d regions", len(res.Regions), len(res2.Regions))
	}
}
