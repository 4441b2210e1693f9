// Parallel expansion engine. A kSPR query has three CPU-heavy phases —
// hyperplane insertion into the CellTree, look-ahead rank-bound
// classification, and region finalization. Insertion is the paper's
// single depth-first walk; the other two decompose into independent items
// (fresh leaves, decided cells), which the engine fans across
// Options.Parallelism goroutines while keeping every observable output
// byte-identical to the serial algorithms:
//
//   - rank bounds and finalization pull work items from a shared atomic
//     cursor (work-stealing at item granularity) into per-worker slots,
//     then apply the results in item order; one worker is the serial loop;
//   - every worker counts its LPs into its own lp.Stats, merged after the
//     phase; LP scratch memory is borrowed per solve from internal/lp's
//     workspace pool;
//   - workers only read the CellTree; prunes, reports and emitted regions
//     apply on the calling goroutine, in item order.
package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelLeafThreshold is the fresh-leaf batch size below which rank-bound
// classification stays serial: below it goroutine startup dominates the LP
// work being spread.
const parallelLeafThreshold = 16

// resolveParallelism maps an Options.Parallelism setting to an effective
// worker count: <= 0 means one worker per available CPU, anything else is
// taken literally (1 = the paper's serial algorithms).
func resolveParallelism(p int) int {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		p = 1
	}
	return p
}

// workers resolves the runner's Options.Parallelism.
func (r *runner) workers() int { return resolveParallelism(r.opts.Parallelism) }

// parallelDo runs body(worker, i) for every i in [0, n) across up to
// workers goroutines. Items are claimed from a shared atomic cursor, so a
// worker that finishes its item immediately steals the next unclaimed one.
// Each in-flight worker sees a distinct worker index in [0, workers), so
// callers can give workers private state (LP stats) sized by the
// workers argument. Errors are collected per item and the lowest-index one
// is returned — the same error a serial left-to-right loop would surface —
// with remaining items abandoned on the first failure.
func parallelDo(workers, n int, body func(worker, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := body(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	next.Store(-1)
	var failed atomic.Bool
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n || failed.Load() {
					return
				}
				if err := body(w, i); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
