// Command benchcmp is the bench regression gate's comparator: it reads two
// BENCH_<name>.json files (see cmd/ksprbench -json), checks that they
// measured the same workload, and fails when any algorithm's fresh ns/op
// exceeds the baseline by more than -max-regress, or when the fresh run
// did not measure an algorithm the baseline has.
//
//	go run ./scripts/benchcmp -baseline BENCH_core.json -fresh BENCH_ci.json
//
// With -load-baseline/-load-fresh it instead gates the load-harness
// summaries (cmd/ksprload -> BENCH_load.json): per-class p99 latency
// against -load-max-regress, the error rate against the baseline plus
// -load-max-error-delta, and the fresh run's invariant-violation count
// against zero. Classes without enough samples for a meaningful p99 on
// both sides are skipped, mirroring the core gate's tail rule.
//
// -inject multiplies the fresh numbers before comparing; the CI bench and
// load-smoke jobs use it to prove the gates actually fail on a slowdown
// (-inject 2 must exit non-zero against a healthy baseline).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// minTailSamples is the smallest sample count at which a nearest-rank
// p95/p99 stops collapsing to the max; tails measured below it are
// skipped rather than gated (matching cmd/ksprbench's minTailQueries).
const minTailSamples = 20

// benchFile is the subset of the BENCH_<name>.json schema the gate reads.
type benchFile struct {
	Name       string           `json:"name"`
	Dist       string           `json:"dist"`
	N          int              `json:"n"`
	D          int              `json:"d"`
	K          int              `json:"k"`
	Queries    int              `json:"queries"`
	Seed       int64            `json:"seed"`
	CPUs       int              `json:"cpus"`
	Algorithms map[string]int64 `json:"ns_per_op"`
	// Tail latency per algorithm (nearest-rank over the serial sweep's
	// per-query times); gated like the means so a fat tail cannot hide
	// behind a healthy average.
	AlgorithmsP95 map[string]int64 `json:"p95_ns"`
	AlgorithmsP99 map[string]int64 `json:"p99_ns"`
	// What-if keys: probe latency is gated like an algorithm's ns/op, and
	// the keep rate must stay positive (0 means the incremental fast path
	// stopped firing — a correctness-of-architecture regression, not noise).
	WhatIfProbeNs  int64   `json:"whatif_probe_ns"`
	WhatIfKeepRate float64 `json:"whatif_keep_rate"`
	// Large-N keys (cmd/ksprbench -n): the gated 1e6-record kernel
	// timings plus the sweep's workload shape.
	LargeNTop int              `json:"largen_top"`
	LargeND   int              `json:"largen_d"`
	LargeNK   int              `json:"largen_k"`
	LargeN1e6 map[string]int64 `json:"ns_per_op_n1e6"`
}

func load(path string) (benchFile, error) {
	var b benchFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Algorithms) == 0 {
		return b, fmt.Errorf("%s: no ns_per_op entries", path)
	}
	return b, nil
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_core.json", "committed baseline summary")
		freshPath    = flag.String("fresh", "BENCH_ci.json", "freshly measured summary")
		maxRegress   = flag.Float64("max-regress", 0.30, "tolerated fractional slowdown per algorithm")
		inject       = flag.Float64("inject", 1.0, "multiply fresh ns/op by this factor (gate self-test)")

		loadBaseline = flag.String("load-baseline", "", "committed cmd/ksprload summary; switches to the load gate")
		loadFresh    = flag.String("load-fresh", "", "freshly measured cmd/ksprload summary (load gate)")
		loadRegress  = flag.Float64("load-max-regress", 1.0, "tolerated fractional p99 slowdown per request class (load latencies are far noisier than ns/op)")
		loadErrDelta = flag.Float64("load-max-error-delta", 0.01, "tolerated absolute error-rate increase over the baseline")

		largen        = flag.Bool("largen", false, "gate only the large-N keys (ns_per_op_n1e6); the fresh file may carry any base workload")
		largenRegress = flag.Float64("largen-max-regress", 0.50, "tolerated fractional slowdown per large-N kernel (single-shot 1e6 timings are noisier than the averaged ns/op)")
	)
	flag.Parse()

	if *loadBaseline != "" || *loadFresh != "" {
		if *loadBaseline == "" || *loadFresh == "" {
			fatal(fmt.Errorf("the load gate needs both -load-baseline and -load-fresh"))
		}
		loadGate(*loadBaseline, *loadFresh, *loadRegress, *loadErrDelta, *inject)
		return
	}

	baseline, err := load(*baselinePath)
	if err != nil {
		fatal(err)
	}
	fresh, err := load(*freshPath)
	if err != nil {
		fatal(err)
	}

	if *largen {
		largeNGate(baseline, fresh, *largenRegress, *inject)
		return
	}
	failed, err := coreGate(os.Stdout, baseline, fresh, *maxRegress, *inject)
	if err != nil {
		fatal(err)
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "benchcmp: %d metric(s) regressed beyond +%.0f%% or went unmeasured: %v\n",
			len(failed), *maxRegress*100, failed)
		fmt.Fprintln(os.Stderr, "benchcmp: if this slowdown is intended, refresh the baseline (make bench) or apply the skip-bench-gate label")
		os.Exit(1)
	}
	fmt.Println("bench gate: pass")
}

// coreGate compares a fresh core summary against the baseline, printing
// one verdict line per metric to w, and returns the metrics that failed:
// every baseline ns_per_op algorithm the fresh run did not measure, and
// every mean, tail or what-if figure beyond maxRegress after multiplying
// the fresh side by inject. An error means the summaries measured
// different workloads.
func coreGate(w io.Writer, baseline, fresh benchFile, maxRegress, inject float64) ([]string, error) {
	if baseline.Dist != fresh.Dist || baseline.N != fresh.N ||
		baseline.D != fresh.D || baseline.K != fresh.K || baseline.Seed != fresh.Seed {
		return nil, fmt.Errorf("workload mismatch: baseline %s n=%d d=%d k=%d seed=%d, fresh %s n=%d d=%d k=%d seed=%d",
			baseline.Dist, baseline.N, baseline.D, baseline.K, baseline.Seed,
			fresh.Dist, fresh.N, fresh.D, fresh.K, fresh.Seed)
	}

	fmt.Fprintf(w, "bench gate: baseline %q (%d cpus) vs fresh %q (%d cpus), tolerance +%.0f%%\n",
		baseline.Name, baseline.CPUs, fresh.Name, fresh.CPUs, maxRegress*100)
	names := make([]string, 0, len(baseline.Algorithms))
	for name := range baseline.Algorithms {
		names = append(names, name)
	}
	sort.Strings(names)
	var regressed []string
	for _, name := range names {
		base := baseline.Algorithms[name]
		measured, ok := fresh.Algorithms[name]
		if !ok {
			// An algorithm the fresh run dropped fails by name: passing
			// it would let an engine stop being measured without notice.
			fmt.Fprintf(w, "  %-10s %12d -> %12s ns/op  MISSING\n", name, base, "-")
			regressed = append(regressed, name+"/missing")
			continue
		}
		now := int64(float64(measured) * inject)
		ratio := float64(now) / float64(base)
		verdict := "ok"
		if ratio > 1+maxRegress {
			verdict = "REGRESSED"
			regressed = append(regressed, name)
		}
		fmt.Fprintf(w, "  %-10s %12d -> %12d ns/op  (%.2fx)  %s\n", name, base, now, ratio, verdict)
	}
	// Tail-latency gate: same tolerance, applied to p95/p99 per algorithm.
	// Both files must carry the maps (baselines predating them skip
	// cleanly, like the what-if keys below), and both must have measured
	// enough queries for a nearest-rank tail to mean anything — at tiny
	// sample counts p95 == p99 == max and the gate compares noise.
	tooFewSamples := baseline.Queries > 0 && baseline.Queries < minTailSamples ||
		fresh.Queries > 0 && fresh.Queries < minTailSamples
	if tooFewSamples {
		fmt.Fprintf(w, "  tails: skipped (baseline %d / fresh %d queries, need >= %d for meaningful p95/p99)\n",
			baseline.Queries, fresh.Queries, minTailSamples)
	}
	for _, tail := range []struct {
		label    string
		baseline map[string]int64
		fresh    map[string]int64
	}{
		{"p95", baseline.AlgorithmsP95, fresh.AlgorithmsP95},
		{"p99", baseline.AlgorithmsP99, fresh.AlgorithmsP99},
	} {
		if tooFewSamples || len(tail.baseline) == 0 || len(tail.fresh) == 0 {
			continue
		}
		for _, name := range names {
			base, okB := tail.baseline[name]
			now, okF := tail.fresh[name]
			if !okB || !okF || base <= 0 {
				continue
			}
			now = int64(float64(now) * inject)
			ratio := float64(now) / float64(base)
			verdict := "ok"
			if ratio > 1+maxRegress {
				verdict = "REGRESSED"
				regressed = append(regressed, name+"/"+tail.label)
			}
			fmt.Fprintf(w, "  %-10s %12d -> %12d ns/%s (%.2fx)  %s\n", name, base, now, tail.label, ratio, verdict)
		}
	}
	// What-if gate: only when both files carry the sweep (the fresh CI run
	// includes it; older baselines without the keys are skipped cleanly).
	if baseline.WhatIfProbeNs > 0 && fresh.WhatIfProbeNs > 0 {
		now := int64(float64(fresh.WhatIfProbeNs) * inject)
		ratio := float64(now) / float64(baseline.WhatIfProbeNs)
		verdict := "ok"
		if ratio > 1+maxRegress {
			verdict = "REGRESSED"
			regressed = append(regressed, "whatif_probe_ns")
		}
		fmt.Fprintf(w, "  %-10s %12d -> %12d ns/probe (%.2fx)  %s\n",
			"whatif", baseline.WhatIfProbeNs, now, ratio, verdict)
		if fresh.WhatIfKeepRate <= 0 {
			fmt.Fprintf(w, "  %-10s keep rate %.2f -> %.2f  DEAD (incremental path no longer fires)\n",
				"whatif", baseline.WhatIfKeepRate, fresh.WhatIfKeepRate)
			regressed = append(regressed, "whatif_keep_rate")
		}
	}
	return regressed, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcmp:", err)
	os.Exit(1)
}

// largeNGate compares only the large-N kernel timings (ns_per_op_n1e6).
// Unlike the main gate it deliberately skips the base-workload match: the
// CI large-n lane pairs a minimal base workload with the expensive
// 1e6-record sweep, so only the sweep's shape (largen_d / largen_k and a
// top of at least 1e6) has to agree. A missing map on either side is a
// hard failure — the lane exists to keep these keys measured.
func largeNGate(baseline, fresh benchFile, maxRegress, inject float64) {
	if len(baseline.LargeN1e6) == 0 {
		fatal(fmt.Errorf("baseline %q has no ns_per_op_n1e6 (rerun make bench with the large-N sweep)", baseline.Name))
	}
	if len(fresh.LargeN1e6) == 0 {
		fatal(fmt.Errorf("fresh %q has no ns_per_op_n1e6 (was ksprbench run with -n 1000000?)", fresh.Name))
	}
	if baseline.LargeND != fresh.LargeND || baseline.LargeNK != fresh.LargeNK {
		fatal(fmt.Errorf("large-N workload mismatch: baseline d=%d k=%d, fresh d=%d k=%d",
			baseline.LargeND, baseline.LargeNK, fresh.LargeND, fresh.LargeNK))
	}
	names := make([]string, 0, len(baseline.LargeN1e6))
	for name := range baseline.LargeN1e6 {
		if _, ok := fresh.LargeN1e6[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fatal(fmt.Errorf("no large-N kernels in common"))
	}
	fmt.Printf("large-n gate: baseline %q (%d cpus) vs fresh %q (%d cpus) at n=1e6 d=%d k=%d, tolerance +%.0f%%\n",
		baseline.Name, baseline.CPUs, fresh.Name, fresh.CPUs,
		baseline.LargeND, baseline.LargeNK, maxRegress*100)
	var regressed []string
	for _, name := range names {
		base := baseline.LargeN1e6[name]
		if base <= 0 {
			continue
		}
		now := int64(float64(fresh.LargeN1e6[name]) * inject)
		ratio := float64(now) / float64(base)
		verdict := "ok"
		if ratio > 1+maxRegress {
			verdict = "REGRESSED"
			regressed = append(regressed, name)
		}
		fmt.Printf("  %-10s %12d -> %12d ns  (%.2fx)  %s\n", name, base, now, ratio, verdict)
	}
	if len(regressed) > 0 {
		fmt.Fprintf(os.Stderr, "benchcmp: %d large-N kernel(s) regressed beyond +%.0f%%: %v\n",
			len(regressed), maxRegress*100, regressed)
		fmt.Fprintln(os.Stderr, "benchcmp: if this slowdown is intended, refresh the baseline (make bench) or apply the skip-bench-gate label")
		os.Exit(1)
	}
	fmt.Println("large-n gate: pass")
}

// ---- load gate -----------------------------------------------------------

// loadFile is the subset of cmd/ksprload's BENCH_<name>.json the load
// gate reads.
type loadFile struct {
	Name        string  `json:"name"`
	Datasets    int     `json:"datasets"`
	N           int     `json:"n"`
	D           int     `json:"d"`
	K           int     `json:"k"`
	Seed        int64   `json:"seed"`
	CPUs        int     `json:"cpus"`
	Concurrency int     `json:"concurrency"`
	Requests    uint64  `json:"requests_total"`
	Throughput  float64 `json:"throughput_rps"`
	ErrorRate   float64 `json:"error_rate"`

	Mix map[string]int `json:"mix"`

	Latency map[string]struct {
		Count uint64 `json:"count"`
		P99Ns int64  `json:"p99_ns"`
	} `json:"latency_ns"`

	Verify struct {
		Violations uint64   `json:"violations"`
		Examples   []string `json:"violation_examples"`
	} `json:"verify"`

	HistoryTicks uint64 `json:"history_ticks"`
}

func loadLoadFile(path string) (loadFile, error) {
	var f loadFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Requests == 0 || len(f.Latency) == 0 {
		return f, fmt.Errorf("%s: no measured requests", path)
	}
	return f, nil
}

// loadGate compares two load summaries: per-class p99 latency within
// maxRegress, error rate within errDelta of the baseline, and zero
// invariant violations in the fresh run. Exits the process with the
// verdict.
func loadGate(baselinePath, freshPath string, maxRegress, errDelta, inject float64) {
	baseline, err := loadLoadFile(baselinePath)
	if err != nil {
		fatal(err)
	}
	fresh, err := loadLoadFile(freshPath)
	if err != nil {
		fatal(err)
	}
	if baseline.Datasets != fresh.Datasets || baseline.N != fresh.N ||
		baseline.D != fresh.D || baseline.K != fresh.K {
		fatal(fmt.Errorf("workload mismatch: baseline datasets=%d n=%d d=%d k=%d, fresh datasets=%d n=%d d=%d k=%d",
			baseline.Datasets, baseline.N, baseline.D, baseline.K,
			fresh.Datasets, fresh.N, fresh.D, fresh.K))
	}

	fmt.Printf("load gate: baseline %q (%d cpus, conc %d) vs fresh %q (%d cpus, conc %d), p99 tolerance +%.0f%%\n",
		baseline.Name, baseline.CPUs, baseline.Concurrency,
		fresh.Name, fresh.CPUs, fresh.Concurrency, maxRegress*100)

	var failures []string

	// Per-class p99, skipping classes without enough samples on both
	// sides for a nearest-rank tail to mean anything.
	classes := make([]string, 0, len(baseline.Latency))
	for class := range baseline.Latency {
		if _, ok := fresh.Latency[class]; ok {
			classes = append(classes, class)
		}
	}
	sort.Strings(classes)
	for _, class := range classes {
		base, now := baseline.Latency[class], fresh.Latency[class]
		if base.Count < minTailSamples || now.Count < minTailSamples || base.P99Ns <= 0 {
			fmt.Printf("  %-8s skipped (baseline %d / fresh %d samples, need >= %d)\n",
				class, base.Count, now.Count, minTailSamples)
			continue
		}
		p99 := int64(float64(now.P99Ns) * inject)
		ratio := float64(p99) / float64(base.P99Ns)
		verdict := "ok"
		if ratio > 1+maxRegress {
			verdict = "REGRESSED"
			failures = append(failures, class+"/p99")
		}
		fmt.Printf("  %-8s %12d -> %12d p99 ns  (%.2fx)  %s\n", class, base.P99Ns, p99, ratio, verdict)
	}

	// Error rate: absolute delta over the baseline (a rate, not a ratio —
	// a 0.0001 -> 0.0002 doubling is noise; 0.001 -> 0.02 is an outage).
	errRate := fresh.ErrorRate * inject
	verdict := "ok"
	if errRate > baseline.ErrorRate+errDelta {
		verdict = "REGRESSED"
		failures = append(failures, "error_rate")
	}
	fmt.Printf("  %-8s %12.4f -> %12.4f  %s\n", "errors", baseline.ErrorRate, errRate, verdict)

	// Telemetry-sampler liveness: once a baseline records history ticks,
	// every fresh run must too — a zero here means the sampler goroutine
	// died or history got silently disabled, not a slow machine.
	if baseline.HistoryTicks > 0 {
		if fresh.HistoryTicks == 0 {
			failures = append(failures, "history_ticks")
			fmt.Printf("  history  baseline %d ticks -> fresh 0: telemetry sampler is dead\n", baseline.HistoryTicks)
		} else {
			fmt.Printf("  history  %d -> %d sampler ticks  ok\n", baseline.HistoryTicks, fresh.HistoryTicks)
		}
	}

	// The verifier's verdict is not a tolerance: any invariant violation
	// in the fresh run fails the gate outright.
	if fresh.Verify.Violations > 0 {
		failures = append(failures, "invariant_violations")
		fmt.Printf("  verify   %d invariant violation(s): %v\n", fresh.Verify.Violations, fresh.Verify.Examples)
	} else {
		fmt.Printf("  verify   0 invariant violations\n")
	}

	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "benchcmp: load gate failed: %v\n", failures)
		fmt.Fprintln(os.Stderr, "benchcmp: if this slowdown is intended, refresh the baseline (make load) or apply the skip-bench-gate label")
		os.Exit(1)
	}
	fmt.Println("load gate: pass")
}
