// Command perfbench is the repository benchmark. It drives one workload
// for a fixed time, checks every operation's output, and prints one JSON
// result line whose metric names match BENCHMARK.json exactly.
//
//	perfbench --workload deep --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured untraced;
// with --trace 1 a separate traced run reports the per-layer metrics. See
// README.md for the workloads and the metric glossary.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config) (*runOut, error){
	"deep":  runDeep,
	"wide":  runWide,
	"serve": runServe,
}

// runOut is what one workload run measured.
type runOut struct {
	metrics map[string]float64
	// attempted counts timed operations; ok the ones that succeeded; failed
	// the failed operations plus the failed checks.
	attempted int
	ok        int
	failed    int
	// checks counts each correctness check executed, by kind; checkFailed
	// the ones that failed (they count in failed too).
	checks      map[string]int
	checkFailed int
	errors      []string
	// notes carries run facts that are not metrics (tail percentile,
	// sample counts, the focal set) into the run record.
	notes map[string]any
}

func newRunOut() *runOut {
	return &runOut{metrics: map[string]float64{}, checks: map[string]int{}, notes: map[string]any{}}
}

// fail records one failed operation or check with an example message.
func (o *runOut) fail(format string, args ...any) {
	o.failed++
	if len(o.errors) < 8 {
		o.errors = append(o.errors, fmt.Sprintf(format, args...))
	}
}

// merge adds the counts of another runOut (one client connection's) to o.
func (o *runOut) merge(p *runOut) {
	o.attempted += p.attempted
	o.ok += p.ok
	o.failed += p.failed
	o.checkFailed += p.checkFailed
	for k, n := range p.checks {
		o.checks[k] += n
	}
	for _, e := range p.errors {
		if len(o.errors) < 8 {
			o.errors = append(o.errors, e)
		}
	}
}

// check records one executed correctness check.
func (o *runOut) check(kind string, ok bool, format string, args ...any) {
	o.checks[kind]++
	if !ok {
		o.checkFailed++
		o.fail(format, args...)
	}
}

// metricSpec is one metric as BENCHMARK.json lists it.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: deep, wide or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: focal order, Zipf streams and write stream derive from it")
	flag.IntVar(&seconds, "seconds", 15, "how long the timed phase measures")
	flag.IntVar(&trace, "trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if err := run(cfg, seconds, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config, seconds, trace int) error {
	runWorkload, ok := workloads[cfg.workload]
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q (want deep, wide or serve)", cfg.workload)
	case seconds < 1:
		return fmt.Errorf("--seconds must be >= 1")
	case trace != 0 && trace != 1:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	specs, err := loadSpecs("BENCHMARK.json", cfg)
	if err != nil {
		return err
	}
	host := newHostRecord()
	out, err := runWorkload(cfg)
	if err != nil {
		return fmt.Errorf("workload %s: %w", cfg.workload, err)
	}
	host.finish()
	res, err := assemble(out, specs)
	if err != nil {
		return err
	}
	errorRate := 0.0
	if out.attempted > 0 {
		errorRate = float64(out.failed) / float64(out.attempted)
	}
	record := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": seconds, "trace": trace,
		"host": host, "checks": out.checks, "check_failures": out.checkFailed,
		"error_rate": errorRate, "errors": out.errors, "notes": out.notes,
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(record); err != nil {
		return err
	}
	return enc.Encode(res)
}

// loadSpecs reads the metric list the invocation must report from the
// benchmark file: end_to_end untraced, per_layer traced.
func loadSpecs(path string, cfg config) ([]metricSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading %s (run from the repository root): %w", path, err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	listed := false
	for _, w := range bf.Workloads {
		listed = listed || w.Name == cfg.workload
	}
	if !listed {
		return nil, fmt.Errorf("workload %q is not listed in %s", cfg.workload, path)
	}
	if cfg.trace {
		return bf.PerLayer, nil
	}
	return bf.EndToEnd, nil
}

// assemble checks that the workload measured exactly the listed metrics —
// none missing, no extras, units as listed — and builds the result line.
func assemble(out *runOut, specs []metricSpec) (*result, error) {
	res := &result{
		Correct:   out.checkFailed == 0 && len(out.checks) > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	var missing, extra []string
	for _, s := range specs {
		v, ok := out.metrics[s.Name]
		if !ok {
			missing = append(missing, s.Name)
			continue
		}
		if want := units[s.Name]; want != s.Unit {
			return nil, fmt.Errorf("metric %s: BENCHMARK.json says unit %q, the benchmark measures %q", s.Name, s.Unit, want)
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	for name := range out.metrics {
		if _, ok := res.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(missing) > 0 || len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("metric names disagree with BENCHMARK.json: missing [%s], extra [%s]",
			strings.Join(missing, " "), strings.Join(extra, " "))
	}
	if out.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}
