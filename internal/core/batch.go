// Shared-work batch execution. A kSPR workload that interrogates one
// dataset with many focal options (a product panel, a pricing sweep, a
// what-if grid) repeats a large amount of dataset-dependent work per query:
// the k-skyband candidate filter, the candidate R-tree used by the pivot
// reportability checks, and the warm-up of per-worker LP solver arenas.
// RunBatch answers kSPR for N focal options in a single pass that pays
// those costs once:
//
//   - dominance precomputation: one (maxK+1)-skyband of the dataset with
//     exact dominator counts, from which every item's per-focal k-skyband
//     is derived in O(band) instead of a fresh R-tree traversal — exactly,
//     so results stay byte-identical to serial runs;
//   - a single candidate R-tree over that skyband, shared (read-only) by
//     every item's progressive reportability checks;
//   - a batch-wide celltree.Forks token pool, so insertion fan-out capacity
//     migrates to whichever item can use it;
//   - one lp.Solver arena per scheduler slot, rebound (SetStats) to each
//     item it runs, so simplex scratch memory is reused across queries.
//
// Scheduling goes through the same Options.Parallelism budget as a single
// query: with W workers and N items, min(W, N) items run concurrently and
// each item's engine gets W/min(W,N) workers, so a one-item batch behaves
// exactly like Run and a wide batch keeps every core on a distinct query.
// Each item's Result is byte-identical to a serial Run of that item (see
// TestBatchMatchesSerial); only scheduling-observable fields (Elapsed,
// Stats.Parallelism) depend on the batch shape.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/celltree"
	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/lp"
	"repro/internal/rtree"
)

// maxSharedBand caps the skyband size the batch precomputation is built
// for: the dominance table is quadratic in the band, so beyond this the
// batch falls back to independent per-item traversals (results are
// identical; only the sharing is skipped).
const maxSharedBand = 4096

// ErrBatchAborted marks items that were never started because an earlier
// item failed and the batch runs in fail-fast mode.
var ErrBatchAborted = errors.New("core: batch item skipped after earlier item failed")

// BatchItem is one focal option of a batch. Focal may be nil when FocalID
// names a dataset record; a non-nil Focal is used verbatim (FocalID < 0
// for hypothetical records), and a non-finite one fails the item. K overrides BatchOptions.K when positive, so
// a batch may mix shortlist sizes. Ctx, when non-nil, cancels just this
// item (it replaces Options.Ctx for the item's run).
type BatchItem struct {
	FocalID int
	Focal   geom.Vector
	K       int
	Ctx     context.Context
}

// BatchOutcome is the per-item result of RunBatch: exactly one of Result
// and Err is set. Item failures (bad focal id, per-item cancellation) are
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
	// FailFast aborts items not yet started once any item errors; they
	// settle with ErrBatchAborted.
	FailFast bool
	// NoShare disables the shared precomputation, running every item as an
	// independent serial query on the scheduler. Outputs are identical
	// either way; the switch exists for cross-checking and measurement.
	NoShare bool
	// ItemTimeout, when positive, bounds each item's processing time: the
	// item's context is derived with this timeout when the item starts
	// running (queue time does not count), so one pathological item times
	// out on its own instead of consuming the whole batch's deadline.
	ItemTimeout time.Duration
	// OnOutcome, when set, receives each item's outcome as soon as it
	// settles (completion order, not item order; calls are serialized).
	OnOutcome func(i int, o BatchOutcome)
}

// batchShared is the read-only state precomputed once per batch and
// consulted by every item's runner.
type batchShared struct {
	// band is the (maxK+1)-skyband of the dataset in ascending id order:
	// the only records that can appear in any item's k-skyband (k <= maxK).
	band []int
	// recs[i] is the record vector of band[i]; domCnt[i] its exact
	// dominator count over the full dataset (all dominators of a band
	// member are band members, by transitivity).
	recs   []geom.Vector
	domCnt []int
	// domAdj[i] lists the band positions of band[i]'s dominators, powering
	// the derived first-batch skyline of the progressive algorithms.
	domAdj [][]int32
	// candTree indexes the band records (record id i in candTree is band
	// position i); shared by every item's reportability checks.
	candTree *rtree.Tree
}

// newBatchShared builds the shared dominance precomputation for shortlist
// sizes up to maxK. It returns a shared state with a nil candTree when
// there is nothing worth sharing (empty dataset band, or a band too large
// for the quadratic dominance table).
func newBatchShared(tree *rtree.Tree, maxK int) (*batchShared, error) {
	band := tree.KSkyband(maxK+1, nil)
	if len(band) == 0 || len(band) > maxSharedBand {
		return &batchShared{}, nil
	}
	s := &batchShared{
		band:   band,
		recs:   make([]geom.Vector, len(band)),
		domCnt: make([]int, len(band)),
		domAdj: make([][]int32, len(band)),
	}
	for i, id := range band {
		s.recs[i] = tree.Records[id]
	}
	// The quadratic dominance table runs over a gathered flat copy of the
	// band records (see internal/kernel): one contiguous array instead of
	// a slice-of-slices walk.
	rows := kernel.PackRows(s.recs, tree.Dim)
	kernel.PairwiseDominators(rows, len(band), tree.Dim, s.domCnt, s.domAdj)
	var err error
	s.candTree, err = rtree.Build(s.recs)
	if err != nil {
		return nil, fmt.Errorf("core: batch candidate index: %w", err)
	}
	return s, nil
}

// inSkyband reports whether band position i belongs to the k-skyband of
// the dataset with the record focalID excluded — the same membership
// tree.KSkyband(k, exclude focalID) computes, derived from the shared
// dominator counts: excluding the focal record removes at most its own
// dominance contribution from every count.
func (s *batchShared) inSkyband(i, k, focalID int, tree *rtree.Tree) bool {
	if s.band[i] == focalID {
		return false
	}
	cnt := s.domCnt[i]
	if focalID >= 0 && geom.Dominates(tree.Records[focalID], s.recs[i]) {
		cnt--
	}
	return cnt < k
}

// skyband materializes the derived k-skyband id list (ascending, matching
// tree.KSkyband output order).
func (s *batchShared) skyband(tree *rtree.Tree, k, focalID int) []int {
	out := make([]int, 0, len(s.band))
	for i, id := range s.band {
		if s.inSkyband(i, k, focalID, tree) {
			out = append(out, id)
		}
	}
	return out
}

// firstBatch derives tree.Skyline(exclude skip) for a query that reached
// the progressive loop, in ascending id order. The derivation is exact
// there: a record outside the skip set whose dominators all lie in skip
// has only focal-dominating dominators (a dominator that the focal
// dominates or ties would transitively put the record in skip), so its
// dominator count is at most baseRank <= K-1 and it belongs to the shared
// band. Skyline membership within D\skip is then "every dominator is
// skipped", read straight off the adjacency lists.
func (s *batchShared) firstBatch(skip rtree.ExcludeFunc) []int {
	out := make([]int, 0, 16)
	for i, id := range s.band {
		if skip(id) {
			continue
		}
		onSky := true
		for _, j := range s.domAdj[i] {
			if !skip(s.band[j]) {
				onSky = false
				break
			}
		}
		if onSky {
			out = append(out, id)
		}
	}
	return out
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

// RunBatch answers kSPR for every item over one dataset, sharing
// precomputation and scheduling across the Options.Parallelism budget.
// The returned slice is indexed like items and is identical regardless of
// parallelism or scheduling order. A non-nil error is returned only for
// batch-level misconfiguration (unusable index, no positive K anywhere);
// per-item failures land in the corresponding BatchOutcome.
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

	var shared *batchShared
	if !opts.NoShare && len(items) > 1 && opts.Algorithm != CTA {
		sharedSpan := opts.Trace.Span(PhaseSkyband)
		var err error
		shared, err = newBatchShared(tree, maxK)
		sharedSpan.End()
		if err != nil {
			return nil, err
		}
		if shared.candTree == nil {
			shared = nil // nothing worth sharing
		}
	}

	workers := resolveParallelism(opts.Parallelism)
	outer, inner := resolveOuterInner(workers, len(items))
	var forks *celltree.Forks
	if workers > outer {
		// The batch-wide fork pool: insertion fan-out tokens float between
		// items, so capacity freed by a finished item is picked up by
		// whichever item next reaches a fork point.
		forks = celltree.NewForks(workers - outer)
	}

	outcomes := make([]BatchOutcome, len(items))
	var next atomic.Int64
	next.Store(-1)
	var aborted atomic.Bool
	var emitMu sync.Mutex
	settle := func(i int, o BatchOutcome) {
		outcomes[i] = o
		if opts.OnOutcome != nil {
			emitMu.Lock()
			opts.OnOutcome(i, o)
			emitMu.Unlock()
		}
	}
	runItem := func(arena *lp.Solver, i int) {
		if opts.FailFast && aborted.Load() {
			settle(i, BatchOutcome{Err: ErrBatchAborted})
			return
		}
		it := items[i]
		o := opts.Options
		if it.K != 0 {
			o.K = it.K
		}
		if it.Ctx != nil {
			o.Ctx = it.Ctx
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
			res, err = runQuery(tree, focal, it.FocalID, o, shared, arena, forks)
		}
		if err != nil {
			if opts.FailFast {
				aborted.Store(true)
			}
			settle(i, BatchOutcome{Err: err})
			return
		}
		settle(i, BatchOutcome{Result: res})
	}

	if outer == 1 {
		arena := lp.NewSolver(nil)
		for i := range items {
			runItem(arena, i)
		}
		return outcomes, nil
	}
	var wg sync.WaitGroup
	for w := 0; w < outer; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := lp.NewSolver(nil)
			for {
				i := int(next.Add(1))
				if i >= len(items) {
					return
				}
				runItem(arena, i)
			}
		}()
	}
	wg.Wait()
	return outcomes, nil
}
