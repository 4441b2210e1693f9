// Batch execution. A kSPR workload that interrogates one dataset with many
// focal options (a product panel, a pricing sweep, a what-if grid) runs
// through RunBatch, a scheduler over the per-query path Run takes. Items
// share what every query on the tree already shares: the generation's
// k-skyband table (rtree.Tree.Band), which the first item that needs it
// fills and the rest read, and internal/lp's workspace pool. The scheduler
// adds:
//
//   - one Options.Parallelism budget: with W workers and N items, min(W, N)
//     items run concurrently and each item's engine gets W/min(W,N)
//     workers, so a one-item batch behaves exactly like Run and a wide
//     batch keeps every core on a distinct query;
//   - per-item errors and timeouts, and outcomes streamed as items settle.
//
// Each item's Result is byte-identical to a serial Run of that item (see
// TestBatchMatchesSerial); only scheduling-observable fields (Elapsed,
// Stats.Parallelism) depend on the batch shape.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// BatchItem is one focal option of a batch. Focal may be nil when FocalID
// names a dataset record; a non-nil Focal is used verbatim (FocalID < 0
// for hypothetical records), and a non-finite one fails the item. A
// non-zero K overrides BatchOptions.K, so a batch may mix shortlist sizes;
// a negative K fails the item.
type BatchItem struct {
	FocalID int
	Focal   geom.Vector
	K       int
}

// BatchOutcome is the per-item result of RunBatch: exactly one of Result
// and Err is set. Item failures (bad focal id, item timeout) are
// reported here, not as a batch-level error, so one poisoned item cannot
// sink its siblings.
type BatchOutcome struct {
	Result *Result
	Err    error
}

// BatchOptions configures RunBatch. The embedded Options apply to every
// item (K acts as the default shortlist size; Ctx as the batch-wide
// cancellation).
type BatchOptions struct {
	Options
	// ItemTimeout, when positive, bounds each item's processing time: the
	// item's context is derived with this timeout when the item starts
	// running (queue time does not count), so one pathological item times
	// out on its own instead of consuming the whole batch's deadline.
	ItemTimeout time.Duration
	// OnOutcome, when set, receives each item's outcome as soon as it
	// settles (completion order, not item order; calls are serialized).
	OnOutcome func(i int, o BatchOutcome)
}

// resolveOuterInner splits a parallelism budget across n items: outer
// items run concurrently, each on an engine of inner workers.
func resolveOuterInner(workers, n int) (outer, inner int) {
	outer = workers
	if outer > n {
		outer = n
	}
	if outer < 1 {
		outer = 1
	}
	inner = workers / outer
	if inner < 1 {
		inner = 1
	}
	return outer, inner
}

// RunBatch answers kSPR for every item over one dataset, scheduling the
// items across the Options.Parallelism budget. The returned slice is
// indexed like items and is identical regardless of parallelism or
// scheduling order. A non-nil error is returned only for batch-level
// misconfiguration (unusable index, no positive K anywhere); per-item
// failures land in the corresponding BatchOutcome.
func RunBatch(tree *rtree.Tree, items []BatchItem, opts BatchOptions) ([]BatchOutcome, error) {
	if len(items) == 0 {
		return nil, nil
	}
	if tree.Dim < 2 {
		return nil, fmt.Errorf("core: kSPR needs at least 2 data dimensions")
	}
	maxK := 0
	for i := range items {
		k := items[i].K
		if k == 0 {
			k = opts.K
		}
		if k > maxK {
			maxK = k
		}
	}
	if maxK <= 0 {
		return nil, fmt.Errorf("core: batch needs a positive K (options or per item)")
	}

	workers := resolveParallelism(opts.Parallelism)
	outer, inner := resolveOuterInner(workers, len(items))

	outcomes := make([]BatchOutcome, len(items))
	var emitMu sync.Mutex
	settle := func(i int, o BatchOutcome) {
		outcomes[i] = o
		if opts.OnOutcome != nil {
			emitMu.Lock()
			opts.OnOutcome(i, o)
			emitMu.Unlock()
		}
	}
	runItem := func(i int) {
		it := items[i]
		o := opts.Options
		if it.K != 0 {
			o.K = it.K
		}
		if opts.ItemTimeout > 0 {
			base := o.Ctx
			if base == nil {
				base = context.Background()
			}
			ctx, cancel := context.WithTimeout(base, opts.ItemTimeout)
			defer cancel()
			o.Ctx = ctx
		}
		o.Parallelism = inner
		focal := it.Focal
		var err error
		switch {
		case focal != nil:
			err = geom.CheckFinite(focal)
		case it.FocalID < 0 || it.FocalID >= tree.Len():
			err = fmt.Errorf("focal id %d out of range [0, %d)", it.FocalID, tree.Len())
		default:
			focal = tree.Records[it.FocalID]
		}
		var res *Result
		if err != nil {
			err = fmt.Errorf("core: batch item %d: %w", i, err)
		} else {
			res, err = Run(tree, focal, it.FocalID, o)
		}
		if err != nil {
			settle(i, BatchOutcome{Err: err})
			return
		}
		settle(i, BatchOutcome{Result: res})
	}

	// Item failures settle in their outcome, never as a parallelDo error.
	parallelDo(outer, len(items), func(_, i int) error {
		runItem(i)
		return nil
	})
	return outcomes, nil
}
