// Command ksprbench regenerates the tables and figures of the paper's
// evaluation (§7 and appendices) on scaled-down workloads. Run a single
// experiment or the whole suite:
//
//	ksprbench -list
//	ksprbench -exp fig10b
//	ksprbench -exp all -scale 0.5 -queries 3 -seed 1
//
// Absolute numbers differ from the paper (different hardware, language,
// and scale); the shapes — who wins, by roughly what factor, where trends
// bend — are what the harness reproduces. See EXPERIMENTS.md.
//
// With -json the command instead runs a fixed per-algorithm micro-benchmark
// and writes BENCH_<name>.json (ns/op per algorithm, serial and — unless
// -parallel 1 — again on a multi-worker engine with the speedup ratio), so
// successive PRs can diff serving performance and the serial/parallel gap:
//
//	ksprbench -json -name pr12 -scale 0.5
//	ksprbench -json -name core -parallel 4
//
// -batch N additionally sweeps the batch scheduler: N focal options
// answered by one kspr.DB.KSPRBatch call versus N independent serial
// runs, recording per-algorithm batch ns/op and the batch speedup (the
// scheduling gain: about 1.0x on one core, parallel items on multicore):
//
//	ksprbench -json -name core -parallel 4 -batch 8
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"time"

	kspr "repro"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		scale   = flag.Float64("scale", 1.0, "cardinality scale factor (1.0 = 20K base)")
		queries = flag.Int("queries", 3, "focal records averaged per data point")
		seed    = flag.Int64("seed", 1, "random seed")
		skyband = flag.Bool("skyband-focals", false, "draw focal records from the K-skyband (non-trivial queries) instead of uniformly")
		list    = flag.Bool("list", false, "list experiments and exit")
		asJSON  = flag.Bool("json", false, "run the per-algorithm micro-benchmark and write BENCH_<name>.json")
		name    = flag.String("name", "main", "benchmark name for the -json summary file")
		dist    = flag.String("dist", "IND", "benchmark data distribution for -json: IND, COR, ANTI")
		dims    = flag.Int("d", 4, "benchmark dimensionality for -json")
		kFlag   = flag.Int("k", 10, "benchmark shortlist size for -json")
		par     = flag.Int("parallel", 0, "parallel sweep worker count for -json (0 = all cores, 1 = skip the sweep)")
		batch   = flag.Int("batch", 0, "batch scheduling sweep for -json: this many focals as one KSPRBatch call vs as many serial runs (0 = skip, otherwise >= 2)")
		mutN    = flag.Int("mutate", 0, "mutation sweep size for -json: WAL apply throughput + incremental-vs-cold maintenance over this many mutations (0 = skip)")
		whatN   = flag.Int("whatif", 0, "what-if sweep for -json: an impact-price frontier of this many grid points plus a repricing search, recording whatif_probe_ns and whatif_keep_rate (0 = skip, otherwise >= 2)")
		largeN  = flag.Float64("n", 0, "large-N sweep for -json: time the columnar kernels at n = 1e3, 1e4, ... up to this cardinality (accepts 1e6 notation; 0 = skip, otherwise >= 1000)")
	)
	flag.Parse()

	if *par < 0 {
		fmt.Fprintf(os.Stderr, "ksprbench: -parallel must be >= 0 (0 = all cores, 1 = skip the sweep), got %d\n", *par)
		flag.Usage()
		os.Exit(2)
	}
	if *batch < 0 || *batch == 1 {
		fmt.Fprintf(os.Stderr, "ksprbench: -batch must be 0 (skip) or >= 2 focals, got %d\n", *batch)
		flag.Usage()
		os.Exit(2)
	}
	if *queries < 1 {
		fmt.Fprintf(os.Stderr, "ksprbench: -queries must be >= 1, got %d\n", *queries)
		flag.Usage()
		os.Exit(2)
	}

	if *mutN < 0 {
		fmt.Fprintf(os.Stderr, "ksprbench: -mutate must be >= 0, got %d\n", *mutN)
		flag.Usage()
		os.Exit(2)
	}
	if *whatN < 0 || *whatN == 1 {
		fmt.Fprintf(os.Stderr, "ksprbench: -whatif must be 0 (skip) or >= 2 grid points, got %d\n", *whatN)
		flag.Usage()
		os.Exit(2)
	}
	topN := int(*largeN)
	if *largeN != 0 && (topN < 1000 || float64(topN) != *largeN) {
		fmt.Fprintf(os.Stderr, "ksprbench: -n must be 0 (skip) or an integer >= 1000, got %g\n", *largeN)
		flag.Usage()
		os.Exit(2)
	}

	if *asJSON {
		if err := runBenchJSON(*name, *dist, *dims, *kFlag, *scale, *queries, *seed, *par, *batch, *mutN, *whatN, topN); err != nil {
			fmt.Fprintln(os.Stderr, "ksprbench:", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
		}
		return
	}

	cfg := experiments.Config{
		Scale:         *scale,
		Queries:       *queries,
		Seed:          *seed,
		SkybandFocals: *skyband,
		Out:           os.Stdout,
	}

	run := func(e experiments.Experiment) {
		start := time.Now()
		if err := e.Run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "ksprbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range experiments.All() {
			run(e)
		}
		return
	}
	e, ok := experiments.Lookup(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "ksprbench: unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
	run(e)
}

// benchSummary is the schema of BENCH_<name>.json. Algorithms maps
// algorithm name to average ns/op over the benchmark's queries with the
// serial engine (parallelism 1); AlgorithmsParallel holds the same
// workload on Parallelism engine workers, and Speedup the serial/parallel
// ratio, so the file records a 1-core vs n-core baseline per algorithm.
type benchSummary struct {
	Name       string           `json:"name"`
	Timestamp  string           `json:"timestamp"`
	GoVersion  string           `json:"go_version"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	CPUs       int              `json:"cpus"`
	Dist       string           `json:"dist"`
	N          int              `json:"n"`
	D          int              `json:"d"`
	K          int              `json:"k"`
	Queries    int              `json:"queries"`
	Seed       int64            `json:"seed"`
	Algorithms map[string]int64 `json:"ns_per_op"`
	// AlgorithmsP95/P99 are nearest-rank tail latencies over the serial
	// sweep's per-query wall times, so benchcmp can gate tail latency, not
	// just the mean. They are only emitted at -queries >= minTailQueries:
	// below that the nearest-rank estimate collapses to the max and the
	// gate compares noise to noise.
	AlgorithmsP95      map[string]int64   `json:"p95_ns,omitempty"`
	AlgorithmsP99      map[string]int64   `json:"p99_ns,omitempty"`
	Parallelism        int                `json:"parallelism,omitempty"`
	AlgorithmsParallel map[string]int64   `json:"ns_per_op_parallel,omitempty"`
	Speedup            map[string]float64 `json:"speedup,omitempty"`
	// Batch sweep (-batch N): ns/op for N focals answered as N independent
	// serial runs versus one KSPRBatch call on BatchParallelism workers,
	// and the serial/batch ratio. Items share nothing a serial run does
	// not, so the ratio measures scheduling only: about 1.0 on a single
	// core, the parallel-items gain on multicore.
	BatchFocals         int                `json:"batch_focals,omitempty"`
	BatchParallelism    int                `json:"batch_parallelism,omitempty"`
	AlgorithmsBatchBase map[string]int64   `json:"ns_per_op_batch_serial,omitempty"`
	AlgorithmsBatch     map[string]int64   `json:"ns_per_op_batch,omitempty"`
	BatchSpeedup        map[string]float64 `json:"batch_speedup,omitempty"`
	// Mutation sweep (-mutate N): live-dataset numbers. MutationOpsPerSec
	// is the WAL-backed store's apply throughput (single mutations, no
	// fsync); the incremental pair times keeping one focal's kSPR result
	// current across N mutations — NsPerGenIncremental with the
	// maintenance engine (classify, keep or recompute), NsPerGenCold with
	// a cold recompute every generation — and IncrementalSpeedup their
	// ratio. IncrementalKept / IncrementalRecomputed report the decision
	// mix behind the incremental number.
	Mutations             int     `json:"mutations,omitempty"`
	MutationOpsPerSec     float64 `json:"mutation_ops_per_sec,omitempty"`
	NsPerGenIncremental   int64   `json:"ns_per_gen_incremental,omitempty"`
	NsPerGenCold          int64   `json:"ns_per_gen_cold,omitempty"`
	IncrementalSpeedup    float64 `json:"incremental_speedup,omitempty"`
	IncrementalKept       uint64  `json:"incremental_kept,omitempty"`
	IncrementalRecomputed uint64  `json:"incremental_recomputed,omitempty"`
	// What-if sweep (-whatif N): an N-point impact-price frontier for a
	// skyband focal (grid spanning dominated through competitive prices)
	// plus one repricing bisection. WhatIfProbeNs is the frontier's average
	// wall-clock per grid probe, WhatIfKeepRate the fraction of probes the
	// engine answered from its dominator count (the gate asserts it stays
	// > 0), and WhatIfPriceNs the full bisection search.
	WhatIfPoints   int     `json:"whatif_points,omitempty"`
	WhatIfProbeNs  int64   `json:"whatif_probe_ns,omitempty"`
	WhatIfKeepRate float64 `json:"whatif_keep_rate,omitempty"`
	WhatIfKept     int     `json:"whatif_kept,omitempty"`
	WhatIfPriceNs  int64   `json:"whatif_price_ns,omitempty"`
	// Large-N sweep (-n N): dataset-cardinality scaling of the columnar
	// kernels, measured at n = 1e3, 1e4, ... up to N on a fixed
	// largen_d / largen_k workload (3 dimensions, k=5 — chosen so the
	// top point finishes in CI). Each point times index construction
	// (kspr.Open: flat packing + STR bulk load), one k-skyband
	// extraction, one TopK traversal, one flat Rank scan, one LP-CTA
	// kSPR query without geometry on a skyband focal, and one Apply
	// shaped like the wide workload's writer. When the sweep
	// reaches exactly n = 1e6 that point is mirrored into ns_per_op_n1e6,
	// the map benchcmp's large-n gate diffs across PRs.
	LargeNTop   int              `json:"largen_top,omitempty"`
	LargeND     int              `json:"largen_d,omitempty"`
	LargeNK     int              `json:"largen_k,omitempty"`
	LargeNSweep []largeNPoint    `json:"largen_sweep,omitempty"`
	LargeN1e6   map[string]int64 `json:"ns_per_op_n1e6,omitempty"`
}

// largeNPoint is one cardinality of the large-N sweep.
type largeNPoint struct {
	N         int   `json:"n"`
	BuildNs   int64 `json:"build_ns"`
	SkybandNs int64 `json:"skyband_ns"`
	TopKNs    int64 `json:"topk_ns"`
	RankNs    int64 `json:"rank_ns"`
	KSPRNs    int64 `json:"kspr_ns"`
	ApplyNs   int64 `json:"apply_ns"`
}

// runBenchJSON times every algorithm on one synthetic workload — serially,
// unless par == 1 again on a par-worker engine, and with nb > 0 as an
// nb-focal batch versus nb serial runs — and writes the ns/op summary to
// BENCH_<name>.json in the working directory.
func runBenchJSON(name, dist string, d, k int, scale float64, queries int, seed int64, par, nb, nm, nw, topN int) error {
	n := int(2000 * scale)
	if n < 100 {
		n = 100
	}
	if queries < 1 {
		queries = 1
	}
	ds, err := dataset.Generate(dataset.Distribution(dist), n, d, seed)
	if err != nil {
		return err
	}
	db, err := kspr.Open(ds.Float64s())
	if err != nil {
		return err
	}

	// Focal records come from the k-skyband so every query does real work
	// (a dominated focal short-circuits to an empty result immediately).
	band := db.KSkyband(k)
	if len(band) == 0 {
		return fmt.Errorf("empty %d-skyband", k)
	}
	focals := make([]int, queries)
	for i := range focals {
		focals[i] = band[i*len(band)/queries]
	}

	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	sum := benchSummary{
		Name:      name,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.GOMAXPROCS(0),
		Dist:      dist, N: n, D: d, K: k,
		Queries:    queries,
		Seed:       seed,
		Algorithms: map[string]int64{},
	}
	algos := []struct {
		label string
		algo  kspr.Algorithm
	}{
		{"CTA", kspr.CTA},
		{"P-CTA", kspr.PCTA},
		{"LP-CTA", kspr.LPCTA},
		{"k-skyband", kspr.KSkybandCTA},
	}
	// sweep times each focal individually so the serial pass can report
	// tail latency, not just the mean.
	sweep := func(label string, algo kspr.Algorithm, parallelism int) (int64, []int64, error) {
		lats := make([]int64, 0, len(focals))
		var total int64
		for _, f := range focals {
			start := time.Now()
			_, err := db.KSPR(f, k, kspr.WithAlgorithm(algo), kspr.WithoutGeometry(),
				kspr.WithParallelism(parallelism))
			if err != nil {
				return 0, nil, fmt.Errorf("%s focal %d: %w", label, f, err)
			}
			ns := time.Since(start).Nanoseconds()
			lats = append(lats, ns)
			total += ns
		}
		return total / int64(len(focals)), lats, nil
	}
	// Tails are only recorded with enough samples to mean something: the
	// nearest-rank p95/p99 of a tiny sweep collapse to the max, and a
	// committed baseline full of max-values makes the tail gate pure noise.
	recordTails := queries >= minTailQueries
	if recordTails {
		sum.AlgorithmsP95 = map[string]int64{}
		sum.AlgorithmsP99 = map[string]int64{}
	} else {
		fmt.Printf("tails: skipped (need -queries >= %d for meaningful p95/p99, have %d)\n",
			minTailQueries, queries)
	}
	for _, a := range algos {
		ns, lats, err := sweep(a.label, a.algo, 1)
		if err != nil {
			return err
		}
		sum.Algorithms[a.label] = ns
		if recordTails {
			slices.Sort(lats)
			sum.AlgorithmsP95[a.label] = lats[obs.NearestRank(len(lats), 0.95)-1]
			sum.AlgorithmsP99[a.label] = lats[obs.NearestRank(len(lats), 0.99)-1]
			fmt.Printf("%-10s %12d ns/op (p95 %d, p99 %d)\n",
				a.label, ns, sum.AlgorithmsP95[a.label], sum.AlgorithmsP99[a.label])
		} else {
			fmt.Printf("%-10s %12d ns/op\n", a.label, ns)
		}
	}
	if par > 1 {
		sum.Parallelism = par
		sum.AlgorithmsParallel = map[string]int64{}
		sum.Speedup = map[string]float64{}
		for _, a := range algos {
			ns, _, err := sweep(a.label, a.algo, par)
			if err != nil {
				return err
			}
			sum.AlgorithmsParallel[a.label] = ns
			if ns > 0 {
				sum.Speedup[a.label] = float64(sum.Algorithms[a.label]) / float64(ns)
			}
			fmt.Printf("%-10s %12d ns/op (parallelism=%d, %.2fx)\n",
				a.label, ns, par, sum.Speedup[a.label])
		}
	}
	if nb > 1 {
		// Batch sweep: nb focals drawn from the skyband, answered as nb
		// independent serial runs and as one batch.
		bf := make([]int, nb)
		bq := make([]kspr.BatchQuery, nb)
		for i := range bf {
			bf[i] = band[i*len(band)/nb]
			bq[i] = kspr.BatchQuery{FocalID: bf[i]}
		}
		bpar := par
		sum.BatchFocals = nb
		sum.BatchParallelism = bpar
		sum.AlgorithmsBatchBase = map[string]int64{}
		sum.AlgorithmsBatch = map[string]int64{}
		sum.BatchSpeedup = map[string]float64{}
		for _, a := range algos {
			start := time.Now()
			for _, f := range bf {
				if _, err := db.KSPR(f, k, kspr.WithAlgorithm(a.algo), kspr.WithoutGeometry(),
					kspr.WithParallelism(1)); err != nil {
					return fmt.Errorf("%s batch-serial focal %d: %w", a.label, f, err)
				}
			}
			serialNs := time.Since(start).Nanoseconds() / int64(nb)

			start = time.Now()
			outs, err := db.KSPRBatch(bq, k, kspr.WithBatchOptions(
				kspr.WithAlgorithm(a.algo), kspr.WithoutGeometry(), kspr.WithParallelism(bpar)))
			if err != nil {
				return fmt.Errorf("%s batch: %w", a.label, err)
			}
			batchNs := time.Since(start).Nanoseconds() / int64(nb)
			for i, o := range outs {
				if o.Err != nil {
					return fmt.Errorf("%s batch focal %d: %w", a.label, bf[i], o.Err)
				}
			}
			sum.AlgorithmsBatchBase[a.label] = serialNs
			sum.AlgorithmsBatch[a.label] = batchNs
			if batchNs > 0 {
				sum.BatchSpeedup[a.label] = float64(serialNs) / float64(batchNs)
			}
			fmt.Printf("%-10s %12d ns/op (batch of %d, %.2fx vs serial)\n",
				a.label, batchNs, nb, sum.BatchSpeedup[a.label])
		}
	}

	if nm > 0 {
		if err := runMutationSweep(&sum, ds, dist, d, k, seed, nm); err != nil {
			return err
		}
	}

	if nw > 1 {
		if err := runWhatIfSweep(&sum, db, band, k, seed, nw); err != nil {
			return err
		}
	}

	if topN > 0 {
		if err := runLargeNSweep(&sum, dist, seed, topN); err != nil {
			return err
		}
	}

	out := fmt.Sprintf("BENCH_%s.json", name)
	return writeBenchFile(out, &sum, dist, n, d, k, queries)
}

// minTailQueries is the smallest -queries at which p95/p99 are recorded:
// the nearest-rank p95 needs at least 20 samples before it stops being
// the sample max.
const minTailQueries = 20

// writeBenchFile renders the summary to BENCH_<name>.json.
func writeBenchFile(out string, sum *benchSummary, dist string, n, d, k, queries int) error {
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%s n=%d d=%d k=%d, %d queries)\n", out, dist, n, d, k, queries)
	return nil
}

// largeND / largeNK fix the large-N sweep's workload shape: 3 attributes
// and a shortlist of 5 keep even the 1e6-record kSPR point inside a CI
// budget while the linear-in-n kernels (packing, STR sort, skyband scan,
// rank scan) dominate — which is what the sweep is meant to watch.
const (
	largeND = 3
	largeNK = 5
)

// bestOf runs f iters times and returns the fastest wall-clock time in
// nanoseconds.
func bestOf(iters int, f func()) int64 {
	best := int64(math.MaxInt64)
	for i := 0; i < iters; i++ {
		start := time.Now()
		f()
		if ns := time.Since(start).Nanoseconds(); ns < best {
			best = ns
		}
	}
	return best
}

// runLargeNSweep times the columnar kernels across dataset cardinalities
// 1e3, 1e4, ... up to topN (topN itself is always the last point).
func runLargeNSweep(sum *benchSummary, dist string, seed int64, topN int) error {
	var points []int
	for n := 1000; n < topN; n *= 10 {
		points = append(points, n)
	}
	points = append(points, topN)

	sum.LargeNTop, sum.LargeND, sum.LargeNK = topN, largeND, largeNK
	for _, n := range points {
		ds, err := dataset.Generate(dataset.Distribution(dist), n, largeND, seed)
		if err != nil {
			return fmt.Errorf("large-n %d: %w", n, err)
		}
		recs := ds.Float64s()

		// Every kernel is timed over repeated runs and recorded as the
		// minimum — single-shot timings at this scale jitter past any
		// sane gate tolerance, and the minimum is the noise-robust
		// estimator for a deterministic kernel. Build gets two runs (it
		// is seconds of work); the sub-second kernels get three.
		var db *kspr.DB
		var openErr error
		p := largeNPoint{N: n}
		p.BuildNs = bestOf(2, func() {
			d, err := kspr.Open(recs)
			if err != nil {
				openErr = err
				return
			}
			db = d
		})
		if openErr != nil {
			return fmt.Errorf("large-n %d: %w", n, openErr)
		}

		var band []int
		p.SkybandNs = bestOf(3, func() { band = db.KSkyband(largeNK) })
		if len(band) == 0 {
			return fmt.Errorf("large-n %d: empty %d-skyband", n, largeNK)
		}

		w := make([]float64, largeND)
		for j := range w {
			w[j] = 1.0 / float64(largeND)
		}
		p.TopKNs = bestOf(3, func() { db.TopK(w, largeNK) })

		focal := band[len(band)/2]
		p.RankNs = bestOf(3, func() { db.Rank(focal, w) })

		var ksprErr error
		p.KSPRNs = bestOf(3, func() {
			if _, err := db.KSPR(focal, largeNK, kspr.WithAlgorithm(kspr.LPCTA),
				kspr.WithoutGeometry(), kspr.WithParallelism(1)); err != nil {
				ksprErr = err
			}
		})
		if ksprErr != nil {
			return fmt.Errorf("large-n %d: kSPR: %w", n, ksprErr)
		}

		// The wide workload's writer: an insert drawn from [0, 0.5]^d
		// plus the delete of the previous batch's insert. It patches the
		// index, so a regression to a full rebuild shows here as a
		// build-sized time.
		rng := rand.New(rand.NewSource(seed))
		insert := func() kspr.Mutation {
			v := make([]float64, largeND)
			for j := range v {
				v[j] = 0.5 * rng.Float64()
			}
			return kspr.Insert(v...)
		}
		res, applyErr := db.Apply(insert())
		p.ApplyNs = bestOf(3, func() {
			if applyErr == nil {
				res, applyErr = db.Apply(insert(), kspr.Delete(res.IDs[0]))
			}
		})
		if applyErr != nil {
			return fmt.Errorf("large-n %d: apply: %w", n, applyErr)
		}

		sum.LargeNSweep = append(sum.LargeNSweep, p)
		fmt.Printf("%-10s n=%-8d build %12d skyband %12d topk %10d rank %10d kspr %12d apply %10d ns\n",
			"large-n", n, p.BuildNs, p.SkybandNs, p.TopKNs, p.RankNs, p.KSPRNs, p.ApplyNs)
		if n == 1_000_000 {
			sum.LargeN1e6 = map[string]int64{
				"build":   p.BuildNs,
				"skyband": p.SkybandNs,
				"topk":    p.TopKNs,
				"rank":    p.RankNs,
				"kspr":    p.KSPRNs,
				"apply":   p.ApplyNs,
			}
		}
	}
	return nil
}

// runWhatIfSweep measures the what-if layer: one nw-point impact-price
// frontier plus one full repricing bisection, both probing the repriced
// focal against an index of its competitors. The focal is a DOMINATED
// record (outside the k-skyband) — the realistic seller asking what
// reprice would make the option competitive — so the grid's low end is
// provably empty and answered from the engine's dominator count before
// any cell-tree work: the recorded keep rate reflects that exit actually
// firing, and the bench gate fails if it ever drops to zero.
func runWhatIfSweep(sum *benchSummary, db *kspr.DB, band []int, k int, seed int64, nw int) error {
	inBand := make(map[int]bool, len(band))
	for _, id := range band {
		inBand[id] = true
	}
	focal := -1
	for id := 0; id < db.Len(); id++ {
		if !inBand[id] {
			focal = id
			break
		}
	}
	if focal < 0 {
		focal = band[len(band)/2] // every record is in the skyband: degenerate but valid
	}
	// The frontier is timed best of 3, like the large-N kernels: one
	// frontier's probe time varied by half between runs on an idle
	// 2-CPU host, past the bench gate's tolerance.
	var curve *kspr.FrontierCurve
	var frontierErr error
	sum.WhatIfProbeNs = math.MaxInt64
	for range 3 {
		if curve, frontierErr = db.Frontier(focal, k, kspr.FrontierSpec{
			Attr: 0, Min: 0.02, Max: 1.3, Steps: nw, Samples: 5000, Seed: seed,
		}, kspr.WithoutGeometry()); frontierErr != nil {
			return fmt.Errorf("what-if frontier: %w", frontierErr)
		}
		sum.WhatIfProbeNs = min(sum.WhatIfProbeNs, curve.Stats.ProbeNs)
	}
	sum.WhatIfPoints = nw
	sum.WhatIfKeepRate = curve.Stats.KeepRate
	sum.WhatIfKept = curve.Stats.Kept
	fmt.Printf("%-10s %12d ns/probe (frontier of %d, best of 3, keep rate %.0f%%)\n",
		"whatif", sum.WhatIfProbeNs, nw, 100*curve.Stats.KeepRate)

	start := time.Now()
	rp, err := db.PriceToTarget(focal, k, kspr.RepriceSpec{
		Attr: 0, Target: 0.3, Eps: 1e-3, Samples: 5000, Seed: seed,
	}, kspr.WithoutGeometry())
	if err != nil {
		return fmt.Errorf("what-if reprice: %w", err)
	}
	sum.WhatIfPriceNs = time.Since(start).Nanoseconds()
	fmt.Printf("%-10s %12d ns/search (%d probes, %d kept, delta %+.4f -> impact %.4f)\n",
		"reprice", sum.WhatIfPriceNs, rp.Stats.Probes, rp.Stats.Kept, rp.Delta, rp.Impact)
	return nil
}

// runMutationSweep measures the live-dataset subsystem: the WAL-backed
// store's apply throughput, and the cost of keeping one focal's kSPR
// result current across nm mutations — incrementally (classify, keep or
// recompute) versus a cold recompute per generation. Both maintenance
// runs see the identical mutation stream (two live DBs evolved in
// lockstep), so the ratio isolates the maintenance strategy.
func runMutationSweep(sum *benchSummary, ds *dataset.Dataset, dist string, d, k int, seed int64, nm int) error {
	// (a) Store apply throughput: bootstrap once, then nm single-mutation
	// batches (no fsync; the default ksprd configuration).
	dir, err := os.MkdirTemp("", "ksprbench-store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sdb, err := kspr.OpenStore(dir)
	if err != nil {
		return err
	}
	boot := make([]kspr.Mutation, ds.Len())
	for i, rec := range ds.Float64s() {
		boot[i] = kspr.Insert(rec...)
	}
	if _, err := sdb.Apply(boot...); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed + 99))
	randVec := func(lo, hi float64) []float64 {
		v := make([]float64, d)
		for j := range v {
			v[j] = lo + (hi-lo)*rng.Float64()
		}
		return v
	}
	start := time.Now()
	for i := 0; i < nm; i++ {
		var err error
		switch i % 3 {
		case 0:
			_, err = sdb.Apply(kspr.Insert(randVec(0, 1)...))
		case 1:
			id, _ := sdb.StableID(rng.Intn(sdb.Len()))
			_, err = sdb.Apply(kspr.Update(id, randVec(0, 1)...))
		default:
			id, _ := sdb.StableID(rng.Intn(sdb.Len()))
			_, err = sdb.Apply(kspr.Delete(id))
		}
		if err != nil {
			return fmt.Errorf("store sweep mutation %d: %w", i, err)
		}
	}
	elapsed := time.Since(start)
	sum.Mutations = nm
	sum.MutationOpsPerSec = float64(nm) / elapsed.Seconds()
	if err := sdb.Close(); err != nil {
		return err
	}
	fmt.Printf("%-10s %12.0f mutations/sec (WAL store, %s d=%d)\n", "store", sum.MutationOpsPerSec, dist, d)

	// (b) Incremental vs cold maintenance over an identical stream.
	mkdb := func() (*kspr.DB, error) { return kspr.Open(ds.Float64s()) }
	inc, err := mkdb()
	if err != nil {
		return err
	}
	cold, err := mkdb()
	if err != nil {
		return err
	}
	band := inc.KSkyband(k)
	focal := band[len(band)/2]
	focalStable, _ := inc.StableID(focal)
	var incNs int64
	start = time.Now()
	lq, err := inc.MaintainKSPR(focal, k, kspr.WithoutGeometry())
	if err != nil {
		return err
	}
	defer lq.Close()
	incNs += time.Since(start).Nanoseconds() // the initial cold run counts for both sides
	var coldNs int64
	start = time.Now()
	if _, err := cold.KSPR(focal, k, kspr.WithoutGeometry()); err != nil {
		return err
	}
	coldNs += time.Since(start).Nanoseconds()

	rng = rand.New(rand.NewSource(seed + 7))
	for i := 0; i < nm; i++ {
		var muts []kspr.Mutation
		switch i % 4 {
		case 0, 1: // irrelevant churn deep in the dominated interior
			muts = []kspr.Mutation{kspr.Insert(randVec(0.01, 0.2)...)}
		case 2: // relevant: skyline-ish insert
			muts = []kspr.Mutation{kspr.Insert(randVec(0.85, 1)...)}
		default: // delete a random non-focal option (re-draw until distinct)
			id := focalStable
			for id == focalStable {
				id, _ = inc.StableID(rng.Intn(inc.Len()))
			}
			muts = []kspr.Mutation{kspr.Delete(id)}
		}
		start = time.Now()
		if _, err := inc.Apply(muts...); err != nil { // maintenance runs inside Apply
			return fmt.Errorf("incremental sweep %d: %w", i, err)
		}
		if _, _, err := lq.Result(); err != nil {
			return fmt.Errorf("incremental sweep %d: %w", i, err)
		}
		incNs += time.Since(start).Nanoseconds()

		start = time.Now()
		if _, err := cold.Apply(muts...); err != nil {
			return fmt.Errorf("cold sweep %d: %w", i, err)
		}
		dense, ok := cold.DenseIndex(focalStable)
		if !ok {
			return fmt.Errorf("cold sweep %d: focal vanished", i)
		}
		if _, err := cold.KSPR(dense, k, kspr.WithoutGeometry()); err != nil {
			return fmt.Errorf("cold sweep %d: %w", i, err)
		}
		coldNs += time.Since(start).Nanoseconds()
	}
	st := lq.Stats()
	sum.NsPerGenIncremental = incNs / int64(nm)
	sum.NsPerGenCold = coldNs / int64(nm)
	sum.IncrementalKept, sum.IncrementalRecomputed = st.Kept, st.Recomputed
	if sum.NsPerGenIncremental > 0 {
		sum.IncrementalSpeedup = float64(sum.NsPerGenCold) / float64(sum.NsPerGenIncremental)
	}
	fmt.Printf("%-10s %12d ns/gen incremental vs %d ns/gen cold (%.2fx, %d kept / %d recomputed)\n",
		"maintain", sum.NsPerGenIncremental, sum.NsPerGenCold,
		sum.IncrementalSpeedup, st.Kept, st.Recomputed)
	return nil
}
