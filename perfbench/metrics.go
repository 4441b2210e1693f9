package main

import (
	"strings"
	"time"

	kspr "repro"
)

// units is every metric the benchmark can emit, with its unit. The
// end-to-end names carry no dot; per-layer names are "<layer>.<metric>".
// BENCHMARK.json must list the same names with the same units.
var units = map[string]string{
	"setup_s":     "s",
	"ops_per_s":   "1/s",
	"p50_ms":      "ms",
	"tail_ms":     "ms",
	"kspr_p50_ms": "ms",
	"maxrss_mb":   "MiB",

	"core.dominance_ms":             "ms",
	"core.skyband_ms":               "ms",
	"core.expand_ms":                "ms",
	"core.rank_bounds_ms":           "ms",
	"core.pivot_check_ms":           "ms",
	"core.finalize_ms":              "ms",
	"core.unattributed_ms":          "ms",
	"core.processed_records":        "count",
	"core.rank_bound_decided_ratio": "ratio",
	"celltree.nodes":                "count",
	"celltree.cells_pruned":         "count",
	"celltree.dom_shortcuts":        "count",
	"lp.solves":                     "count",
	"lp.pivots":                     "count",
	"rtree.build_ms":                "ms",
	"rtree.skyband_ms":              "ms",
	"store.reopen_cold_ms":          "ms",
	"store.bytes_per_user_byte":     "ratio",
	"store.snapshot_writes":         "count",
	"server.cache_hit_ratio":        "ratio",
	"server.cache_migrated_ratio":   "ratio",
	"server.cache_evictions":        "count",
	"server.whatif_keep_rate":       "ratio",
	"server.miss_engine_ms":         "ms",
	"server.miss_overhead_ms":       "ms",
	"runtime.alloc_bytes_per_op":    "B",
	"runtime.gc_per_kop":            "count",
	"obs.trace_overhead_ratio":      "ratio",
	"ops.batch_p50_ms":              "ms",
	"ops.whatif_p50_ms":             "ms",
	"ops.mutate_p50_ms":             "ms",
	"ops.mutate_tail_ms":            "ms",
}

// zeroLayers sets every per-layer metric to 0, the value of a layer the
// workload does not exercise; each workload then fills in what it measured.
func zeroLayers(o *runOut) {
	for name := range units {
		if strings.Contains(name, ".") {
			o.metrics[name] = 0
		}
	}
}

// endToEnd fills the end-to-end metrics of an untraced timed phase; lat
// holds the successful operations' latencies by class.
func endToEnd(o *runOut, setupS float64, lat latencies, wall time.Duration) {
	all := lat.all()
	t := tailOf(all)
	o.metrics["setup_s"] = setupS
	o.metrics["ops_per_s"] = float64(o.ok) / wall.Seconds()
	o.metrics["p50_ms"] = median(all)
	o.metrics["tail_ms"] = t.Value
	o.metrics["kspr_p50_ms"] = lat.p50(classKSPR)
	o.metrics["maxrss_mb"] = maxRSSMB()
	o.notes["tail_ms"] = t
	counts := map[string]int{}
	for class, xs := range lat {
		counts[class] = len(xs)
	}
	o.notes["samples"] = counts
}

// mutateLayers fills the per-class write latencies of a traced phase.
func mutateLayers(o *runOut, lat latencies) {
	w := sortedCopy(lat[classMutate])
	t := tailOf(w)
	o.metrics["ops.mutate_p50_ms"] = median(w)
	o.metrics["ops.mutate_tail_ms"] = t.Value
	o.notes["mutate_tail_ms"] = t
}

// Operation classes, shared by the latency maps of every workload.
const (
	classKSPR   = "kspr"
	classBatch  = "batch"
	classMutate = "mutate"
	classWhatIf = "whatif"
)

// enginePhases are the engine phases reported as core.<phase>_ms.
var enginePhases = []string{"dominance", "skyband", "expand", "rank_bounds", "pivot_check", "finalize"}

// engineAcc sums the traced engine work of a set of queries: phase time
// from kspr.WithTrace and work counts from Result.Stats.
type engineAcc struct {
	ops     int
	wallNs  int64
	phaseNs map[string]int64
	st      kspr.Stats
}

func (a *engineAcc) add(tr *kspr.Trace, wall time.Duration, st kspr.Stats) {
	if a.phaseNs == nil {
		a.phaseNs = map[string]int64{}
	}
	a.ops++
	a.wallNs += int64(wall)
	for _, p := range tr.Phases() {
		a.phaseNs[p.Name] += p.Ns
	}
	a.st.ProcessedRecords += st.ProcessedRecords
	a.st.CellTreeNodes += st.CellTreeNodes
	a.st.CellsPruned += st.CellsPruned
	a.st.DomShortcuts += st.DomShortcuts
	a.st.LPSolves += st.LPSolves
	a.st.LPPivots += st.LPPivots
	a.st.RankBoundCells += st.RankBoundCells
	a.st.EarlyReported += st.EarlyReported
	a.st.EarlyPruned += st.EarlyPruned
}

// fill reports the sums per query as the core, celltree and lp metrics.
func (a *engineAcc) fill(m map[string]float64) {
	if a.ops == 0 {
		return
	}
	per := func(v int64) float64 { return float64(v) / float64(a.ops) }
	var phaseSum int64
	for _, ns := range a.phaseNs {
		phaseSum += ns
	}
	for _, p := range enginePhases {
		m["core."+p+"_ms"] = per(a.phaseNs[p]) / 1e6
	}
	m["core.unattributed_ms"] = per(a.wallNs-phaseSum) / 1e6
	m["core.processed_records"] = per(int64(a.st.ProcessedRecords))
	if a.st.RankBoundCells > 0 {
		m["core.rank_bound_decided_ratio"] = float64(a.st.EarlyReported+a.st.EarlyPruned) / float64(a.st.RankBoundCells)
	}
	m["celltree.nodes"] = per(int64(a.st.CellTreeNodes))
	m["celltree.cells_pruned"] = per(int64(a.st.CellsPruned))
	m["celltree.dom_shortcuts"] = per(int64(a.st.DomShortcuts))
	m["lp.solves"] = per(int64(a.st.LPSolves))
	m["lp.pivots"] = per(int64(a.st.LPPivots))
}

// rtreeLayers times the index layer through the public API on the
// workload's records: kspr.Open (bulk load) and a k-skyband traversal on
// a freshly built index (no persisted skyband table).
func rtreeLayers(o *runOut, records [][]float64, k, reps int) error {
	var db *kspr.DB
	build, err := medianDuration(reps, func() error {
		var err error
		db, err = kspr.Open(records)
		return err
	})
	if err != nil {
		return err
	}
	band, err := medianDuration(reps, func() error {
		db.KSkyband(k)
		return nil
	})
	if err != nil {
		return err
	}
	o.metrics["rtree.build_ms"] = build * 1e3
	o.metrics["rtree.skyband_ms"] = band * 1e3
	return nil
}
