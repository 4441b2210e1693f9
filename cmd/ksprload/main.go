// Command ksprload is the million-user traffic harness: a closed/open-
// hybrid load generator that replays realistic traffic mixes against a
// real ksprd serving stack and doubles as a correctness verifier.
//
// Traffic is a configurable mix of the four production request classes —
// single kSPR queries, NDJSON kSPR batches, atomic dataset
// mutation batches, and what-if competitor attribution — with
// Zipf-distributed focal records and datasets, so the sharded LRU result
// cache and the mutation-driven cache-migration paths are exercised the
// way skewed real traffic exercises them. By default the run is a closed
// loop of -conc workers; -rate adds an open-loop arrival schedule on top
// (workers pull paced tokens, so the offered load is rate-shaped but
// still bounded by the worker count — the hybrid that avoids unbounded
// queueing while still measuring queueing delay).
//
// Every response feeds the invariant verifier (see verify.go): monotone
// generation tokens per dataset (read-your-generation), exactly one
// NDJSON line per batch item, cache-served results byte-identical to a
// sampled cold recompute, and 429s only under genuine CPU-budget
// exhaustion. Violations fail the run — load testing is a correctness
// test here, not just a perf test.
//
// The run's throughput, per-class p50/p95/p99 latency, error and 429
// rates, and the verifier's tally land in BENCH_<name>.json
// (BENCH_load.json by default), which scripts/benchcmp gates exactly like
// the core ns/op file. With -addr empty the harness self-hosts the full
// ksprd serving stack (internal/server) on a loopback TCP listener;
// point -addr at a running daemon to load-test a remote instance.
//
//	ksprload -duration 10s -conc 8                      # self-hosted
//	ksprload -addr http://127.0.0.1:8080 -duration 30s  # external ksprd
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "", "base URL of a running ksprd (empty = self-host the serving stack on loopback)")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "measurement duration")
	flag.IntVar(&cfg.conc, "conc", 8, "closed-loop worker count")
	flag.Float64Var(&cfg.rate, "rate", 0, "open-loop arrival rate in req/s across all workers (0 = pure closed loop)")
	flag.StringVar(&cfg.mixSpec, "mix", "kspr=60,batch=15,mutate=15,whatif=10", "traffic mix as class=weight pairs (classes: kspr, batch, mutate, whatif)")
	flag.IntVar(&cfg.datasets, "datasets", 3, "number of synthetic datasets to load and spread traffic across")
	flag.IntVar(&cfg.n, "n", 400, "records per dataset")
	flag.IntVar(&cfg.d, "d", 3, "attributes per record")
	flag.IntVar(&cfg.k, "k", 5, "kSPR shortlist size")
	flag.Float64Var(&cfg.zipfS, "zipf-s", 1.2, "Zipf skew for focal and dataset selection (> 1)")
	flag.Int64Var(&cfg.seed, "seed", 1, "random seed (dataset generation and traffic)")
	flag.Float64Var(&cfg.verifySample, "verify-sample", 0.05, "probability a cache-served result is checked against a cold recompute")
	flag.Float64Var(&cfg.parProb, "par-prob", 0.3, "probability a batch asks for engine parallelism 2 (exercises the 429 path)")
	flag.IntVar(&cfg.batchMin, "batch-min", 3, "minimum queries per batch request")
	flag.IntVar(&cfg.batchMax, "batch-max", 8, "maximum queries per batch request")
	flag.StringVar(&cfg.name, "name", "load", "summary name: results land in BENCH_<name>.json")
	flag.Float64Var(&cfg.maxErrorRate, "max-error-rate", 0, "fail the run when the non-429 error rate exceeds this fraction")
	flag.IntVar(&cfg.serverWorkers, "server-workers", 4, "self-host: worker-pool size")
	flag.IntVar(&cfg.serverQueue, "server-queue", 64, "self-host: worker-pool queue length")
	flag.IntVar(&cfg.serverSlots, "server-slots", 1, "self-host: extra CPU slots in the parallelism budget (-1 = zero budget)")
	flag.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile of the run (self-host: includes the serving stack)")
	flag.StringVar(&cfg.mutexProfile, "mutexprofile", "", "write a mutex-contention profile of the run")
	flag.IntVar(&cfg.injectErrors, "inject-errors", 0, "after the timed phase, send this many known-bad requests tracked by X-Request-Id")
	flag.BoolVar(&cfg.checkFlight, "check-flight", false, "assert the flight recorder captured every injected error and >= 1 sampled normal")
	flag.BoolVar(&cfg.checkHealth, "check-health", false, "assert the health verdict: healthy after a clean run, breaching (with a journaled slo_burn) after a driven error storm")
	flag.Parse()

	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "ksprload:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(&cfg); err != nil {
		fmt.Fprintln(os.Stderr, "ksprload:", err)
		os.Exit(1)
	}
}

// config is the parsed harness configuration.
type config struct {
	addr         string
	duration     time.Duration
	conc         int
	rate         float64
	mixSpec      string
	mix          map[string]int
	datasets     int
	n, d, k      int
	zipfS        float64
	seed         int64
	verifySample float64
	parProb      float64
	batchMin     int
	batchMax     int
	name         string
	maxErrorRate float64

	serverWorkers int
	serverQueue   int
	serverSlots   int

	cpuProfile   string
	mutexProfile string

	injectErrors int
	checkFlight  bool
	checkHealth  bool
}

func (c *config) validate() error {
	var err error
	if c.mix, err = parseMix(c.mixSpec); err != nil {
		return err
	}
	switch {
	case c.duration <= 0:
		return fmt.Errorf("-duration must be positive")
	case c.conc < 1:
		return fmt.Errorf("-conc must be >= 1")
	case c.rate < 0:
		return fmt.Errorf("-rate must be >= 0")
	case c.datasets < 1:
		return fmt.Errorf("-datasets must be >= 1")
	case c.n < 10 || c.d < 2 || c.k < 1:
		return fmt.Errorf("workload needs -n >= 10, -d >= 2, -k >= 1")
	case c.zipfS <= 1:
		return fmt.Errorf("-zipf-s must be > 1 (Zipf skew)")
	case c.verifySample < 0 || c.verifySample > 1:
		return fmt.Errorf("-verify-sample must be in [0, 1]")
	case c.parProb < 0 || c.parProb > 1:
		return fmt.Errorf("-par-prob must be in [0, 1]")
	case c.batchMin < 1 || c.batchMax < c.batchMin:
		return fmt.Errorf("need 1 <= -batch-min <= -batch-max")
	case c.maxErrorRate < 0 || c.maxErrorRate > 1:
		return fmt.Errorf("-max-error-rate must be in [0, 1]")
	case c.injectErrors < 0:
		return fmt.Errorf("-inject-errors must be >= 0")
	case c.checkFlight && c.injectErrors < 1:
		return fmt.Errorf("-check-flight needs -inject-errors >= 1")
	}
	return nil
}

// parseMix parses "kspr=60,batch=15,mutate=15,whatif=10" into weights.
func parseMix(s string) (map[string]int, error) {
	mix := map[string]int{}
	total := 0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, raw, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("mix entry %q: want class=weight", part)
		}
		switch name {
		case classKSPR, classBatch, classMutate, classWhatIf:
		default:
			return nil, fmt.Errorf("mix entry %q: unknown class (want kspr, batch, mutate, whatif)", part)
		}
		w, err := strconv.Atoi(raw)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("mix entry %q: weight must be a non-negative integer", part)
		}
		mix[name] = w
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("mix %q has no positive weights", s)
	}
	return mix, nil
}

// run executes the whole harness: target setup, dataset load, the timed
// worker phase, and the summary + verdict.
func run(cfg *config) error {
	base := cfg.addr
	var shutdown func()
	if base == "" {
		var err error
		base, shutdown, err = selfHost(cfg)
		if err != nil {
			return err
		}
		defer shutdown()
	}
	base = strings.TrimRight(base, "/")

	r, err := newRunner(cfg, base)
	if err != nil {
		return err
	}
	if err := r.loadDatasets(); err != nil {
		return err
	}
	stopProfiles, err := startProfiles(cfg)
	if err != nil {
		return err
	}
	defer stopProfiles()
	fmt.Printf("ksprload: %d datasets (n=%d d=%d) at %s, mix %v, conc %d, %v\n",
		cfg.datasets, cfg.n, cfg.d, base, cfg.mixSpec, cfg.conc, cfg.duration)

	elapsed := r.drive()
	sum := r.summarize(elapsed)
	if h, err := r.fetchHealth(); err == nil {
		sum.HistoryTicks = h.History.Ticks
	}
	out := fmt.Sprintf("BENCH_%s.json", cfg.name)
	if err := writeSummary(out, sum); err != nil {
		return err
	}
	printSummary(sum, out)

	var verdict error
	switch {
	case sum.Verify.Violations > 0:
		verdict = fmt.Errorf("%d invariant violation(s): %s",
			sum.Verify.Violations, strings.Join(sum.Verify.Examples, "; "))
	case sum.ErrorRate > cfg.maxErrorRate:
		verdict = fmt.Errorf("error rate %.4f exceeds the %.4f limit: %s",
			sum.ErrorRate, cfg.maxErrorRate, strings.Join(r.stats.errExamples(), "; "))
	}
	if verdict != nil {
		// Pull the offending wide events from the stack under test and embed
		// them in the failure report, so the evidence ships with the verdict.
		if raw := r.flightEvidence(); raw != nil {
			sum.FlightEvidence = raw
			if err := writeSummary(out, sum); err != nil {
				return err
			}
			fmt.Printf("ksprload: embedded flight-recorder evidence (%d bytes) in %s\n", len(raw), out)
		}
		return verdict
	}
	if cfg.injectErrors > 0 {
		// Deliberately after the verdict: injection would pollute the
		// evidence a failed run embeds, and runs after the timed phase so
		// the BENCH numbers never see it.
		if err := r.flightPhase(); err != nil {
			return err
		}
	}
	if cfg.checkHealth {
		// Last of all: the health phase ends with the verdict deliberately
		// breaching, which would invalidate any check that ran after it.
		if err := r.healthPhase(); err != nil {
			return err
		}
	}
	return nil
}

// selfHost starts the full ksprd serving stack (the same internal/server
// wiring cmd/ksprd uses) on a loopback TCP listener and returns its base
// URL plus a shutdown func. MaxParallelism is pinned above 1 so parallel
// batch asks reach the CPU budget even on single-core machines — the 429
// backpressure path must be reachable under load.
func selfHost(cfg *config) (string, func(), error) {
	srv := server.NewServer(server.Config{
		Workers:        cfg.serverWorkers,
		Queue:          cfg.serverQueue,
		CPUSlots:       cfg.serverSlots,
		MaxParallelism: 4,
		// A fast sampler tick so -check-health flips within seconds and
		// BENCH summaries always carry a non-zero history tick count.
		HistoryInterval: time.Second,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
		srv.Close()
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// startProfiles arms the requested pprof profiles for the measurement
// phase. In self-host mode both profiles cover the serving stack too —
// that is how the harness finds server-side contention hot spots.
func startProfiles(cfg *config) (func(), error) {
	var stops []func()
	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if cfg.mutexProfile != "" {
		runtime.SetMutexProfileFraction(5)
		path := cfg.mutexProfile
		stops = append(stops, func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ksprload: mutex profile:", err)
				return
			}
			defer f.Close()
			_ = pprof.Lookup("mutex").WriteTo(f, 0)
			runtime.SetMutexProfileFraction(0)
		})
	}
	return func() {
		for _, stop := range stops {
			stop()
		}
	}, nil
}

// ---- summary -------------------------------------------------------------

// latencySummary is one request class's latency digest in nanoseconds.
// Percentiles use the nearest-rank estimator (rank ceil(p*n)), matching
// cmd/ksprbench and the serving histograms.
type latencySummary struct {
	Count  uint64 `json:"count"`
	MeanNs int64  `json:"mean_ns"`
	P50Ns  int64  `json:"p50_ns"`
	P95Ns  int64  `json:"p95_ns"`
	P99Ns  int64  `json:"p99_ns"`
}

// verifySummary is the invariant verifier's tally; Violations must be 0
// for the run (and the CI load gate) to pass.
type verifySummary struct {
	GenerationChecks uint64   `json:"generation_checks"`
	BatchLineChecks  uint64   `json:"batch_line_checks"`
	RecomputeChecks  uint64   `json:"recompute_checks"`
	RecomputeSkipped uint64   `json:"recompute_skipped"`
	Checks429        uint64   `json:"checks_429"`
	Violations       uint64   `json:"violations"`
	Examples         []string `json:"violation_examples,omitempty"`
}

// loadSummary is the schema of BENCH_<name>.json — the load-side sibling
// of cmd/ksprbench's core summary, gated by scripts/benchcmp.
type loadSummary struct {
	Name        string  `json:"name"`
	Timestamp   string  `json:"timestamp"`
	GoVersion   string  `json:"go_version"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	CPUs        int     `json:"cpus"`
	Datasets    int     `json:"datasets"`
	N           int     `json:"n"`
	D           int     `json:"d"`
	K           int     `json:"k"`
	Seed        int64   `json:"seed"`
	ZipfS       float64 `json:"zipf_s"`
	DurationSec float64 `json:"duration_sec"`
	Concurrency int     `json:"concurrency"`
	RateTarget  float64 `json:"rate_target_rps,omitempty"`

	Mix map[string]int `json:"mix"`

	Requests   uint64  `json:"requests_total"`
	Throughput float64 `json:"throughput_rps"`
	Errors     uint64  `json:"errors_total"`
	ErrorRate  float64 `json:"error_rate"`
	Resp429    uint64  `json:"responses_429_total"`
	Rate429    float64 `json:"rate_429"`
	CacheHits  uint64  `json:"cache_hit_responses"`

	// Latency digests per request class, plus "all" across classes.
	Latency map[string]latencySummary `json:"latency_ns"`

	Verify verifySummary `json:"verify"`

	// HistoryTicks is the server's telemetry-history tick count at the end
	// of the run — the load gate's liveness guard for the sampler (absent
	// when the target runs with history disabled).
	HistoryTicks uint64 `json:"history_ticks,omitempty"`

	// FlightEvidence is the raw /v1/debug:flight response (errors plus the
	// slow tail) embedded when the run fails its verdict; absent otherwise.
	FlightEvidence json.RawMessage `json:"flight_evidence,omitempty"`
}

// tailNs is the nearest-rank p-quantile over latency samples.
func tailNs(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func digest(lats []int64) latencySummary {
	if len(lats) == 0 {
		return latencySummary{}
	}
	sorted := append([]int64(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total int64
	for _, v := range sorted {
		total += v
	}
	return latencySummary{
		Count:  uint64(len(sorted)),
		MeanNs: total / int64(len(sorted)),
		P50Ns:  tailNs(sorted, 0.50),
		P95Ns:  tailNs(sorted, 0.95),
		P99Ns:  tailNs(sorted, 0.99),
	}
}

func writeSummary(path string, sum *loadSummary) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printSummary(sum *loadSummary, out string) {
	fmt.Printf("ksprload: %d requests in %.1fs (%.1f req/s), errors %.4f, 429s %.4f, cache hits %d\n",
		sum.Requests, sum.DurationSec, sum.Throughput, sum.ErrorRate, sum.Rate429, sum.CacheHits)
	classes := make([]string, 0, len(sum.Latency))
	for c := range sum.Latency {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		l := sum.Latency[c]
		if l.Count == 0 {
			continue
		}
		fmt.Printf("  %-8s %6d reqs  p50 %8.2fms  p95 %8.2fms  p99 %8.2fms\n",
			c, l.Count, ms(l.P50Ns), ms(l.P95Ns), ms(l.P99Ns))
	}
	v := sum.Verify
	fmt.Printf("  verify   %d generation, %d batch-line, %d recompute (%d skipped), %d x429 checks -> %d violations\n",
		v.GenerationChecks, v.BatchLineChecks, v.RecomputeChecks, v.RecomputeSkipped, v.Checks429, v.Violations)
	fmt.Printf("wrote %s\n", out)
}

func ms(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }

// version fields for the summary header.
func fillHost(sum *loadSummary) {
	sum.Timestamp = time.Now().UTC().Format(time.RFC3339)
	sum.GoVersion = runtime.Version()
	sum.GOOS = runtime.GOOS
	sum.GOARCH = runtime.GOARCH
	sum.CPUs = runtime.GOMAXPROCS(0)
}
