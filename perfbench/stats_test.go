package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty input: got %v, want 0", got)
	}
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if got := quantile([]float64{7}, p); got != 7 {
			t.Errorf("one sample, p=%v: got %v, want 7", p, got)
		}
	}
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{0, 1},     // rank clamps up to 1
		{0.05, 1},  // ceil(0.5) = 1
		{0.5, 5},   // ceil(5) = 5
		{0.51, 6},  // ceil(5.1) = 6
		{0.9, 9},   // ceil(9) = 9
		{0.95, 10}, // ceil(9.5) = 10
		{1, 10},
		{1.5, 10}, // rank clamps down to n
	} {
		if got := quantile(ten, c.p); got != c.want {
			t.Errorf("n=10, p=%v: got %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 4, 5}); got != 3 {
		t.Errorf("median of 5: got %v, want 3", got)
	}
}

func TestTailRankLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{0, 1, 5, 10} {
		rank, p, ok := tailRank(n)
		if ok {
			t.Errorf("n=%d: no rank can leave %d samples beyond, yet ok", n, tailBeyond)
		}
		if n > 0 && (rank != n || p != 1) {
			t.Errorf("n=%d: got rank %d p %v, want the maximum (rank %d, p 1)", n, rank, p, n)
		}
	}
	for n := tailBeyond + 1; n <= 5000; n++ {
		rank, p, ok := tailRank(n)
		if !ok || n-rank != tailBeyond {
			t.Fatalf("n=%d: rank %d leaves %d beyond, want exactly %d", n, rank, n-rank, tailBeyond)
		}
		// The reported percentile must select the same sample under the
		// shared nearest-rank rule, and the next rank up must not qualify.
		sorted := make([]float64, n)
		for i := range sorted {
			sorted[i] = float64(i + 1)
		}
		if got := quantile(sorted, p); got != float64(rank) {
			t.Fatalf("n=%d: quantile(p=%v) selects rank %v, tail picked rank %d", n, p, got, rank)
		}
		if next := rank + 1; n-next >= tailBeyond {
			t.Fatalf("n=%d: rank %d also leaves %d beyond; the tail is not the highest", n, next, tailBeyond)
		}
	}
}

func TestTailOf(t *testing.T) {
	if got := tailOf(nil); got != (tail{}) {
		t.Errorf("empty input: got %+v", got)
	}
	one := tailOf([]float64{3})
	if one.Value != 3 || one.Percentile != 1 || one.Beyond != 0 || one.Samples != 1 {
		t.Errorf("one sample: got %+v", one)
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	got := tailOf(sorted)
	if got.Value != 90 || got.Percentile != 0.9 || got.Beyond != 10 || got.Samples != 100 {
		t.Errorf("100 samples: got %+v, want p90 = 90 with 10 beyond", got)
	}
}

// TestMetricNamesMatchBenchmarkFile pins the benchmark's metric table to
// BENCHMARK.json: every listed metric is measured with the listed unit and
// every measured metric is listed.
func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), bf.EndToEnd...), bf.PerLayer...) {
		if units[s.Name] != s.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, benchmark unit %q", s.Name, s.Unit, units[s.Name])
		}
		listed[s.Name] = true
	}
	for name := range units {
		if !listed[name] {
			t.Errorf("%s is measured but not listed in BENCHMARK.json", name)
		}
	}
	for _, s := range bf.EndToEnd {
		if strings.Contains(s.Name, ".") {
			t.Errorf("end-to-end metric %s has a layer prefix", s.Name)
		}
	}
	for _, s := range bf.PerLayer {
		if !strings.Contains(s.Name, ".") {
			t.Errorf("per-layer metric %s has no layer prefix", s.Name)
		}
	}
}

func TestAssembleRejectsMissingAndExtraNames(t *testing.T) {
	specs := []metricSpec{{"p50_ms", "ms"}, {"setup_s", "s"}}
	out := newRunOut()
	out.attempted, out.ok = 3, 3
	out.checks["x"] = 1
	out.metrics["p50_ms"] = 1.5
	if _, err := assemble(out, specs); err == nil || !strings.Contains(err.Error(), "missing [setup_s]") {
		t.Errorf("missing metric: got %v", err)
	}
	out.metrics["setup_s"] = 0.2
	out.metrics["bogus"] = 1
	if _, err := assemble(out, specs); err == nil || !strings.Contains(err.Error(), "extra [bogus]") {
		t.Errorf("extra metric: got %v", err)
	}
	delete(out.metrics, "bogus")
	res, err := assemble(out, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 3 || res.Metrics["setup_s"] != (metricValue{0.2, "s"}) {
		t.Errorf("got %+v", res)
	}
	out.check("x", false, "broken")
	if res, _ := assemble(out, specs); res.Correct || res.Failed != 1 {
		t.Errorf("a failed check must make the run incorrect and count as failed: %+v", res)
	}
}
