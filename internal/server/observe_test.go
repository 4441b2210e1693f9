package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm is a minimal Prometheus text-format parser: it validates the
// line grammar the exposition must follow (HELP/TYPE comments, then
// `name{labels} value` samples) and returns the samples.
func parseProm(t *testing.T, body string) []promSample {
	t.Helper()
	var out []promSample
	sc := bufio.NewScanner(strings.NewReader(body))
	types := map[string]string{}
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Fatalf("malformed comment line %q", line)
			}
			if parts[1] == "TYPE" {
				switch parts[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					t.Fatalf("invalid metric type in %q", line)
				}
				types[parts[2]] = parts[3]
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment form %q", line)
		}
		sample := promSample{labels: map[string]string{}}
		rest := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				t.Fatalf("unbalanced braces in %q", line)
			}
			sample.name = line[:i]
			for _, pair := range strings.Split(line[i+1:j], ",") {
				kv := strings.SplitN(pair, "=", 2)
				if len(kv) != 2 || !strings.HasPrefix(kv[1], `"`) || !strings.HasSuffix(kv[1], `"`) {
					t.Fatalf("malformed label %q in %q", pair, line)
				}
				sample.labels[kv[0]] = strings.Trim(kv[1], `"`)
			}
			rest = line[j+1:]
		} else {
			sp := strings.IndexByte(line, ' ')
			if sp < 0 {
				t.Fatalf("no value on line %q", line)
			}
			sample.name = line[:sp]
			rest = line[sp:]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("bad value on line %q: %v", line, err)
		}
		sample.value = v
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(sample.name, "_bucket"), "_sum"), "_count")
		if _, ok := types[base]; !ok && types[sample.name] == "" {
			t.Fatalf("sample %q has no preceding # TYPE", sample.name)
		}
		out = append(out, sample)
	}
	return out
}

// TestMetricsPromExposition exercises /metrics.prom end to end: drive some
// traffic, then check the body parses as valid exposition text, carries
// the full metric catalogue, and keeps the histogram invariants
// (cumulative buckets, +Inf bucket == _count).
func TestMetricsPromExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "ind", 200, 3, 5)
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/kspr", queryRequest{Dataset: "ind", Focal: i, K: 4})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, resp.StatusCode, body)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Fatalf("content type %q is not Prometheus text exposition", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	samples := parseProm(t, buf.String())

	byName := map[string][]promSample{}
	for _, s := range samples {
		byName[s.name] = append(byName[s.name], s)
	}
	for _, want := range []string{
		"kspr_uptime_seconds", "kspr_requests_total", "kspr_errors_total", "kspr_qps_1m",
		"kspr_endpoint_requests_total", "kspr_endpoint_errors_total",
		"kspr_request_duration_seconds_bucket", "kspr_request_duration_seconds_sum", "kspr_request_duration_seconds_count",
		"kspr_cache_hits_total", "kspr_cache_misses_total", "kspr_cache_entries",
		"kspr_cache_results_migrated_total", "kspr_cache_results_dropped_total",
		"kspr_pool_workers", "kspr_pool_depth",
		"kspr_cpu_extra_slots", "kspr_cpu_slots_in_use",
		"kspr_mutation_batches_total", "kspr_mutations_total", "kspr_wal_recoveries_total",
		"kspr_whatif_probes_total", "kspr_whatif_kept_total", "kspr_whatif_keep_rate",
		"kspr_datasets",
	} {
		if len(byName[want]) == 0 {
			t.Errorf("exposition is missing %s", want)
		}
	}

	// Histogram invariants for the kspr endpoint: cumulative buckets end at
	// +Inf, and the +Inf bucket equals _count.
	var cum []float64
	var infV, count float64
	for _, s := range byName["kspr_request_duration_seconds_bucket"] {
		if s.labels["endpoint"] != "kspr" {
			continue
		}
		cum = append(cum, s.value)
		if s.labels["le"] == "+Inf" {
			infV = s.value
		}
	}
	for _, s := range byName["kspr_request_duration_seconds_count"] {
		if s.labels["endpoint"] == "kspr" {
			count = s.value
		}
	}
	if len(cum) == 0 {
		t.Fatal("no buckets for endpoint=kspr")
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("bucket counts not cumulative: %v", cum)
		}
	}
	if infV != count || count != 3 {
		t.Fatalf("+Inf bucket %v / _count %v, want both 3", infV, count)
	}
}

// TestEndpointPercentilesAgree pins that the per-endpoint histogram
// percentiles in JSON /metrics agree with the global percentiles, and
// that both agree with the exact nearest-rank sample within one bucket
// width (a histogram percentile reports its bucket's upper bound).
func TestEndpointPercentilesAgree(t *testing.T) {
	m := NewMetrics()
	durs := []time.Duration{
		800 * time.Microsecond, 1200 * time.Microsecond, 3 * time.Millisecond,
		7 * time.Millisecond, 12 * time.Millisecond, 40 * time.Millisecond,
	}
	for _, d := range durs {
		m.Observe("kspr", d, 200)
	}
	var ms MetricsSample
	m.SampleInto(&ms)
	snap := ms.snapshot()
	ep, ok := snap.LatencyByEndpoint["kspr"]
	if !ok {
		t.Fatal("endpoint row missing")
	}
	if ep.Requests != uint64(len(durs)) || ep.Errors != 0 {
		t.Fatalf("endpoint counters %+v", ep)
	}
	// Each histogram percentile must agree with the global and the exact
	// estimate within one bucket ladder step (the 1-2.5-5 ladder spaces
	// consecutive upper bounds at most 2.5x apart), and never fall below
	// the exact sample, since a bucket reports its upper bound.
	exact := func(p float64) float64 {
		return float64(durs[obs.NearestRank(len(durs), p)-1]) / float64(time.Millisecond)
	}
	checks := []struct {
		name  string
		exact float64
		hist  float64
	}{
		{"p50", snap.Latency.P50Ms, ep.P50Ms},
		{"p95", snap.Latency.P95Ms, ep.P95Ms},
		{"p99", snap.Latency.P99Ms, ep.P99Ms},
		{"p50 exact", exact(0.50), ep.P50Ms},
		{"p95 exact", exact(0.95), ep.P95Ms},
		{"p99 exact", exact(0.99), ep.P99Ms},
	}
	for _, c := range checks {
		if c.hist < c.exact/2.5-1e-9 || c.hist > c.exact*2.5+1e-9 {
			t.Errorf("%s: histogram %v ms not within one bucket of %v ms", c.name, c.hist, c.exact)
		}
		if c.hist < c.exact-1e-9 {
			t.Errorf("%s: histogram %v ms below %v ms", c.name, c.hist, c.exact)
		}
	}
}

// TestMetricsRaceStress hammers Observe while sampler ticks, JSON renders
// and Prometheus renders run concurrently; run under -race this pins that
// the one read path is data-race free.
func TestMetricsRaceStress(t *testing.T) {
	srv := NewServer(slowTickConfig())
	defer srv.Close()
	m := srv.metrics
	var wg sync.WaitGroup
	endpoints := []string{"kspr", "kspr.batch", "healthz", "whatif.price"}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				status := 200
				if i%7 == 0 {
					status = 500
				}
				m.Observe(endpoints[(g+i)%len(endpoints)], time.Duration(i)*time.Microsecond, status)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				snap := srv.metricsView()
				if _, err := json.Marshal(snap); err != nil {
					t.Errorf("json: %v", err)
					return
				}
				var buf bytes.Buffer
				if err := snap.WriteProm(&buf); err != nil {
					t.Errorf("WriteProm: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		now := time.Now()
		for i := 1; i <= 50; i++ {
			srv.sampler.tick(now.Add(time.Duration(i) * time.Second))
		}
	}()
	wg.Wait()
	snap := srv.metricsView()
	if snap.Requests != 8*500 {
		t.Fatalf("requests %d, want %d", snap.Requests, 8*500)
	}
	var sum uint64
	for _, n := range snap.ByEndpoint {
		sum += n
	}
	if sum != snap.Requests {
		t.Fatalf("per-endpoint sum %d != total %d", sum, snap.Requests)
	}
}

// explainQuery runs one GET /v1/kspr?debug=trace query and returns the
// decoded response.
func explainQuery(t *testing.T, ts *httptest.Server, algo string) queryResponse {
	t.Helper()
	url := fmt.Sprintf("%s/v1/kspr?dataset=ind&focal=2&k=5&algorithm=%s&debug=trace", ts.URL, algo)
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatalf("%s: decode: %v", algo, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", algo, resp.StatusCode)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatalf("%s: no X-Request-Id header", algo)
	}
	return qr
}

// TestExplainModeAllAlgorithms is the EXPLAIN acceptance check: for every
// algorithm, ?debug=trace returns a phase breakdown whose per-phase sum
// matches the reported total within 10%, alongside the usual engine stats,
// and the traced response is never served from (or stored in) the cache.
func TestExplainModeAllAlgorithms(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "ind", 250, 3, 11)

	for _, algo := range []string{"cta", "p-cta", "lp-cta", "k-skyband"} {
		qr := explainQuery(t, ts, algo)
		if qr.Trace == nil || len(qr.Trace.Phases) == 0 {
			t.Fatalf("%s: no trace in response", algo)
		}
		if qr.Cached {
			t.Fatalf("%s: traced response claims to be cached", algo)
		}
		if qr.Stats.ElapsedMs <= 0 || qr.Stats.Regions != len(qr.Regions) {
			t.Fatalf("%s: stats not attached: %+v", algo, qr.Stats)
		}
		var sum float64
		for _, p := range qr.Trace.Phases {
			if p.Count <= 0 || p.Ms < 0 {
				t.Fatalf("%s: malformed phase %+v", algo, p)
			}
			sum += p.Ms
		}
		if qr.Trace.TotalMs > 0 && math.Abs(sum-qr.Trace.TotalMs) > 0.10*qr.Trace.TotalMs {
			t.Fatalf("%s: phase sum %v ms vs total %v ms (>10%% apart)", algo, sum, qr.Trace.TotalMs)
		}
		// The engine phases are non-overlapping, so their sum can never
		// exceed the engine elapsed time (small scheduling slack allowed).
		if qr.Trace.TotalMs > qr.Stats.ElapsedMs*1.10+0.5 {
			t.Fatalf("%s: trace total %v ms exceeds engine elapsed %v ms", algo, qr.Trace.TotalMs, qr.Stats.ElapsedMs)
		}
		// A repeat EXPLAIN still runs fresh (debug bypasses the cache).
		if again := explainQuery(t, ts, algo); again.Cached || again.Trace == nil {
			t.Fatalf("%s: repeat EXPLAIN was cached or lost its trace", algo)
		}
	}

	// The traced runs must not have poisoned the cache: a plain query after
	// an EXPLAIN of the same shape is a miss first, a (trace-free) hit next.
	first, _ := http.Get(ts.URL + "/v1/kspr?dataset=ind&focal=2&k=5&algorithm=lp-cta")
	var plain queryResponse
	json.NewDecoder(first.Body).Decode(&plain)
	first.Body.Close()
	if plain.Cached || plain.Trace != nil {
		t.Fatalf("plain query after EXPLAIN: cached=%v trace=%v", plain.Cached, plain.Trace)
	}
	second, _ := http.Get(ts.URL + "/v1/kspr?dataset=ind&focal=2&k=5&algorithm=lp-cta")
	var hit queryResponse
	json.NewDecoder(second.Body).Decode(&hit)
	second.Body.Close()
	if !hit.Cached || hit.Trace != nil {
		t.Fatalf("repeat plain query: cached=%v trace=%v, want a trace-free hit", hit.Cached, hit.Trace)
	}
}

// TestExplainBatchTrailer pins the batch EXPLAIN contract: one trailer
// line with index -1 carrying the batch-wide phase breakdown.
func TestExplainBatchTrailer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "ind", 150, 3, 3)

	body := `{"dataset":"ind","k":4,"queries":[{"focal":1},{"focal":2},{"focal":3}]}`
	resp, err := http.Post(ts.URL+"/v1/kspr:batch?debug=trace", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var lines []batchLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line batchLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 3 items + 1 trailer", len(lines))
	}
	trailer := lines[len(lines)-1]
	if trailer.Index != -1 || trailer.Trace == nil || len(trailer.Trace.Phases) == 0 {
		t.Fatalf("last line is not a trace trailer: %+v", trailer)
	}
	for _, line := range lines[:3] {
		if line.Error != "" || line.Result == nil {
			t.Fatalf("item line failed: %+v", line)
		}
	}
}

// TestExplainWhatIf pins EXPLAIN mode on a what-if endpoint.
func TestExplainWhatIf(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "ind", 120, 3, 9)

	url := ts.URL + "/v1/impact:competitors?dataset=ind&focal=2&k=4&samples=400&debug=trace"
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr competitorsResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if cr.Trace == nil || len(cr.Trace.Phases) == 0 {
		t.Fatal("what-if EXPLAIN carried no trace")
	}
}

// TestRequestIDPropagation pins the correlation-id contract: a caller-sent
// X-Request-Id is echoed back verbatim; absent one, the server mints one.
func TestRequestIDPropagation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "caller-supplied-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "caller-supplied-42" {
		t.Fatalf("echoed id %q, want caller's", got)
	}

	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); len(got) != 16 {
		t.Fatalf("minted id %q, want 16 hex chars", got)
	}
}

// TestSlowQueryLog pins the slow-query log: with a tiny threshold every
// query logs a Warn line carrying the request id and the phase breakdown.
func TestSlowQueryLog(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn}))
	_, ts := newTestServer(t, Config{Logger: logger, SlowQuery: time.Nanosecond})
	loadGenerated(t, ts, "ind", 150, 3, 13)

	resp, body := postJSON(t, ts.URL+"/v1/kspr", queryRequest{Dataset: "ind", Focal: 4, K: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-Request-Id")

	logged := buf.String()
	var slow map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logged), "\n") {
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if entry["msg"] == "slow query" && entry["endpoint"] == "kspr" {
			slow = entry
		}
	}
	if slow == nil {
		t.Fatalf("no slow-query line for kspr in log: %s", logged)
	}
	if slow["request_id"] != id {
		t.Fatalf("slow-query request_id %v, want %v", slow["request_id"], id)
	}
	phases, ok := slow["phases"].(map[string]any)
	if !ok || len(phases) == 0 {
		t.Fatalf("slow-query line carries no phase breakdown: %v", slow)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer (slog handlers may be hit
// from multiple request goroutines).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestReadyzLifecycle pins the liveness/readiness split: a store-backed
// server is alive but not ready until WAL recovery finishes, and the 503
// names the datasets still pending.
func TestReadyzLifecycle(t *testing.T) {
	dir := t.TempDir()

	// Seed the store with one durable dataset, then shut that server down.
	_, ts1 := newTestServer(t, Config{StoreDir: dir})
	loadGenerated(t, ts1, "walset", 80, 3, 21)
	ts1.Close()

	// A fresh server over the same store: live immediately, ready only
	// after recovery.
	srv := NewServer(Config{StoreDir: dir})
	ts2 := httptest.NewServer(srv.Handler())
	defer func() {
		ts2.Close()
		srv.Close()
	}()

	if resp, _ := http.Get(ts2.URL + "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("liveness should be green pre-recovery, got %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	resp, err := http.Get(ts2.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var notReady struct {
		Status     string   `json:"status"`
		Recovering []string `json:"recovering"`
	}
	json.NewDecoder(resp.Body).Decode(&notReady)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || notReady.Status != "recovering" {
		t.Fatalf("pre-recovery readyz: status %d body %+v", resp.StatusCode, notReady)
	}
	if len(notReady.Recovering) != 1 || notReady.Recovering[0] != "walset" {
		t.Fatalf("recovering list %v, want [walset]", notReady.Recovering)
	}

	if _, err := srv.RecoverDatasets(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	resp2, err := http.Get(ts2.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready struct {
		Status   string `json:"status"`
		Datasets int    `json:"datasets"`
	}
	json.NewDecoder(resp2.Body).Decode(&ready)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || ready.Status != "ready" || ready.Datasets != 1 {
		t.Fatalf("post-recovery readyz: status %d body %+v", resp2.StatusCode, ready)
	}

	// A store-less server is ready from the start.
	_, ts3 := newTestServer(t, Config{})
	resp3, _ := http.Get(ts3.URL + "/readyz")
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("store-less readyz: %d", resp3.StatusCode)
	}
}

// TestKSPRGetValidation pins the query-string parser's error handling.
func TestKSPRGetValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "ind", 60, 3, 2)

	for _, bad := range []string{
		"/v1/kspr?dataset=ind&focal=abc&k=5",
		"/v1/kspr?dataset=ind&focal=1&k=oops",
		"/v1/kspr?dataset=ind&focal=1&k=5&volumes=maybe",
		"/v1/kspr?dataset=ind&focal=1&k=5&epsilon=wide",
		"/v1/kspr?dataset=ind&focal=1&k=5&seed=1e9",
		"/v1/kspr?dataset=ind&focal=2&k=5&algorithm=approx",
		"/v1/kspr?dataset=ind&focal=1&k=5&volume=true",
		"/v1/kspr?dataset=ind&focal=1&k=5&algoritm=cta",
	} {
		resp, err := http.Get(ts.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}

	// And the happy path agrees with the POST form.
	resp, err := http.Get(ts.URL + "/v1/kspr?dataset=ind&focal=1&k=5&algorithm=cta")
	if err != nil {
		t.Fatal(err)
	}
	var viaGet queryResponse
	json.NewDecoder(resp.Body).Decode(&viaGet)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET query failed: %d", resp.StatusCode)
	}
	_, body := postJSON(t, ts.URL+"/v1/kspr", queryRequest{Dataset: "ind", Focal: 1, K: 5, Algorithm: "cta", NoCache: true})
	var viaPost queryResponse
	json.Unmarshal(body, &viaPost)
	if len(viaGet.Regions) != len(viaPost.Regions) || viaGet.Algorithm != viaPost.Algorithm {
		t.Fatalf("GET and POST disagree: %d/%s vs %d/%s",
			len(viaGet.Regions), viaGet.Algorithm, len(viaPost.Regions), viaPost.Algorithm)
	}

	// debug, read by the request middleware, is the one name outside the
	// query surface.
	resp, err = http.Get(ts.URL + "/v1/kspr?dataset=ind&focal=1&k=5&debug=trace")
	if err != nil {
		t.Fatal(err)
	}
	var traced queryResponse
	json.NewDecoder(resp.Body).Decode(&traced)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || traced.Trace == nil {
		t.Fatalf("debug=trace GET: status %d, trace %v", resp.StatusCode, traced.Trace)
	}
}
