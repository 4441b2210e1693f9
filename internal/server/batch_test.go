package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// postNDJSON sends an application/x-ndjson batch body.
func postNDJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readBatchLines drains an NDJSON batch stream into index-keyed lines.
func readBatchLines(t *testing.T, resp *http.Response) map[int]batchLine {
	t.Helper()
	defer resp.Body.Close()
	lines := map[int]batchLine{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var line batchLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad ndjson line %q: %v", sc.Text(), err)
		}
		if _, dup := lines[line.Index]; dup {
			t.Fatalf("index %d reported twice", line.Index)
		}
		lines[line.Index] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestBatchNDJSONInput: the streaming wire form — a header line and one
// item per line — answers every item, honours the envelope's default k,
// and supports focal vectors.
func TestBatchNDJSONInput(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "ind", 250, 3, 5)

	body := `{"dataset":"ind","k":5,"algorithm":"p-cta"}
{"focal":7}
{"focal":21,"k":3}
{"focal_vector":[0.95,0.95,0.95],"k":2}
`
	resp := postNDJSON(t, ts.URL+"/v1/kspr:batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	lines := readBatchLines(t, resp)
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	for i := 0; i < 3; i++ {
		if lines[i].Error != "" {
			t.Fatalf("item %d failed: %s", i, lines[i].Error)
		}
	}
	if lines[0].Result.K != 5 || lines[1].Result.K != 3 || lines[2].Result.K != 2 {
		t.Fatalf("k defaults wrong: %d %d %d",
			lines[0].Result.K, lines[1].Result.K, lines[2].Result.K)
	}
	if lines[2].Result.Focal != -1 {
		t.Fatalf("vector item focal = %d, want -1", lines[2].Result.Focal)
	}
	if lines[0].Result.Algorithm != "P-CTA" {
		t.Fatalf("algorithm %q", lines[0].Result.Algorithm)
	}
	// A vector dominating the whole dataset is top-1 everywhere.
	if len(lines[2].Result.Regions) == 0 {
		t.Fatal("dominating focal vector must have regions")
	}
}

// TestBatchMalformedNDJSONItem: a broken item line yields a per-item 400
// line at its index; the surrounding items still run.
func TestBatchMalformedNDJSONItem(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "ind", 120, 3, 9)

	body := `{"dataset":"ind","k":4}
{"focal":3}
{"focal":: not json
{"focal":5,"k":0,"bogus_field":1}
{"focal":9,"k":-2}
{"focal":11}
`
	resp := postNDJSON(t, ts.URL+"/v1/kspr:batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (per-item failures must not fail the envelope)", resp.StatusCode)
	}
	lines := readBatchLines(t, resp)
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5", len(lines))
	}
	if lines[0].Error != "" || lines[4].Error != "" {
		t.Fatalf("healthy items failed: %q / %q", lines[0].Error, lines[4].Error)
	}
	for _, i := range []int{1, 2, 3} {
		if lines[i].Error == "" || lines[i].Status != http.StatusBadRequest {
			t.Fatalf("item %d: want a 400 error line, got %+v", i, lines[i])
		}
	}
}

// TestBatchCancellationMidStream: when the batch deadline expires while
// results are streaming, every remaining item settles with an error line
// (no hang, no dropped index) and the healthy prefix is preserved.
func TestBatchCancellationMidStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Anticorrelated data makes CTA slow; item 0 is trivial (dominated
	// focal), later items are expensive.
	body := `{"name":"anti","generate":{"dist":"ANTI","n":3000,"d":4,"seed":2}}`
	resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var b strings.Builder
	b.WriteString(`{"dataset":"anti","k":10,"algorithm":"cta","timeout_ms":300}` + "\n")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&b, `{"focal":%d}`+"\n", i*11)
	}
	start := time.Now()
	r2 := postNDJSON(t, ts.URL+"/v1/kspr:batch", b.String())
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r2.StatusCode)
	}
	lines := readBatchLines(t, r2)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("batch did not respect its deadline: took %v", elapsed)
	}
	if len(lines) != 8 {
		t.Fatalf("got %d lines, want 8 (every item must settle)", len(lines))
	}
	timedOut := 0
	for i := 0; i < 8; i++ {
		if lines[i].Error != "" {
			if lines[i].Status != http.StatusGatewayTimeout && lines[i].Status != http.StatusServiceUnavailable {
				t.Fatalf("item %d: unexpected status %d (%s)", i, lines[i].Status, lines[i].Error)
			}
			timedOut++
		}
	}
	if timedOut == 0 {
		t.Fatal("expected at least one item to hit the 300ms batch deadline")
	}
}

// TestBatchCPUBudgetExhausted429: a parallel batch against a fully-claimed
// CPU budget is shed with 429 + Retry-After instead of queueing or
// silently degrading to one core.
func TestBatchCPUBudgetExhausted429(t *testing.T) {
	srv, ts := newTestServer(t, Config{CPUSlots: 2, MaxParallelism: 8})
	loadGenerated(t, ts, "ind", 100, 3, 3)

	// Claim the whole budget, as a long-running parallel query would.
	if got := srv.cpu.Acquire(2); got != 2 {
		t.Fatalf("claimed %d slots, want 2", got)
	}
	defer srv.cpu.Release(2)

	body := `{"dataset":"ind","k":4,"parallelism":4}
{"focal":1}
{"focal":2}
`
	resp := postNDJSON(t, ts.URL+"/v1/kspr:batch", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}

	// A serial batch (no parallelism ask) is unaffected by the exhausted
	// budget.
	serial := postNDJSON(t, ts.URL+"/v1/kspr:batch", `{"dataset":"ind","k":4}`+"\n"+`{"focal":1}`+"\n")
	if serial.StatusCode != http.StatusOK {
		t.Fatalf("serial batch status %d, want 200", serial.StatusCode)
	}
	lines := readBatchLines(t, serial)
	if lines[0].Error != "" {
		t.Fatalf("serial batch failed: %s", lines[0].Error)
	}

	// Once the budget frees up, the same parallel batch goes through.
	srv.cpu.Release(2)
	defer srv.cpu.Acquire(2) // restore for the deferred Release above
	retry := postNDJSON(t, ts.URL+"/v1/kspr:batch", body)
	if retry.StatusCode != http.StatusOK {
		t.Fatalf("retry status %d, want 200", retry.StatusCode)
	}
	readBatchLines(t, retry)
}

// TestBatchSharesCacheWithSingleQueries: a batch item and the equivalent
// single query hit the same cache entry, in both directions.
func TestBatchSharesCacheWithSingleQueries(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "ind", 150, 3, 7)

	// Prime via single query.
	resp, body := postJSON(t, ts.URL+"/v1/kspr", queryRequest{Dataset: "ind", Focal: 4, K: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prime status %d: %s", resp.StatusCode, body)
	}

	lines := readBatchLines(t, postNDJSON(t, ts.URL+"/v1/kspr:batch",
		`{"dataset":"ind","k":5}`+"\n"+`{"focal":4}`+"\n"+`{"focal":8}`+"\n"))
	if lines[0].Error != "" || lines[1].Error != "" {
		t.Fatalf("batch failed: %+v", lines)
	}
	if !lines[0].Result.Cached {
		t.Fatal("batch item primed by a single query must be served from cache")
	}
	if lines[1].Result.Cached {
		t.Fatal("unprimed batch item must not claim to be cached")
	}

	// And the batch-computed item primes the single-query path.
	resp, body = postJSON(t, ts.URL+"/v1/kspr", queryRequest{Dataset: "ind", Focal: 8, K: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Cached {
		t.Fatal("single query primed by a batch item must be served from cache")
	}
}

// TestOneCacheEntryPerQuery: every request form of one query resolves to
// one result-cache entry, whichever form primes it: GET and POST, a focal
// vector as a single query and as a batch item, a batch item with its own
// k, a volumes query with a seed, and an algorithm that ignores the bound
// mode asked with two different ones.
func TestOneCacheEntryPerQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "ind", 150, 3, 7)

	// send issues one form: "GET <query string>", "POST <body>", or
	// "BATCH <header line>\n<item line>".
	send := func(form string) queryResponse {
		t.Helper()
		method, arg, _ := strings.Cut(form, " ")
		var resp *http.Response
		var err error
		switch method {
		case "GET":
			resp, err = http.Get(ts.URL + "/v1/kspr?" + arg)
		case "POST":
			resp, err = http.Post(ts.URL+"/v1/kspr", "application/json", strings.NewReader(arg))
		default:
			line := readBatchLines(t, postNDJSON(t, ts.URL+"/v1/kspr:batch", arg+"\n"))[0]
			if line.Result == nil {
				t.Fatalf("%s: %+v", form, line)
			}
			return *line.Result
		}
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var qr queryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", form, resp.StatusCode, err)
		}
		return qr
	}
	for _, c := range []struct{ first, second string }{
		{"GET dataset=ind&focal=4&k=5", `POST {"dataset":"ind","focal":4,"k":5}`},
		{`POST {"dataset":"ind","focal":6,"k":5,"algorithm":"p-cta"}`, "GET dataset=ind&focal=6&k=5&algorithm=pcta"},
		{`POST {"dataset":"ind","focal_vector":[0.5,0.6,0.7],"k":3}`,
			"BATCH " + `{"dataset":"ind","k":3}` + "\n" + `{"focal_vector":[0.5,0.6,0.7]}`},
		{"BATCH " + `{"dataset":"ind","k":5}` + "\n" + `{"focal":8,"k":2}`, `POST {"dataset":"ind","focal":8,"k":2}`},
		{"BATCH " + `{"dataset":"ind","k":4,"volumes":true,"volume_samples":500,"seed":3}` + "\n" + `{"focal":9}`,
			"GET dataset=ind&focal=9&k=4&volumes=true&volume_samples=500&seed=3"},
		{`POST {"dataset":"ind","focal":10,"k":5,"algorithm":"p-cta","bounds":"group"}`,
			"GET dataset=ind&focal=10&k=5&algorithm=p-cta&bounds=record"},
	} {
		if send(c.first).Cached {
			t.Fatalf("%s: the priming request claims cached", c.first)
		}
		if !send(c.second).Cached {
			t.Fatalf("%s missed the entry made by %s", c.second, c.first)
		}
	}
}

// TestBatchMatchesSingleEndpoint: batch lines carry the same regions as
// the equivalent /v1/kspr calls.
func TestBatchMatchesSingleEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "ind", 200, 3, 11)

	lines := readBatchLines(t, postNDJSON(t, ts.URL+"/v1/kspr:batch",
		`{"dataset":"ind","k":6,"no_cache":true}`+"\n"+`{"focal":0}`+"\n"+`{"focal":13}`+"\n"))
	for i := 0; i < 2; i++ {
		if lines[i].Error != "" {
			t.Fatalf("item %d: %s", i, lines[i].Error)
		}
	}
	for i, focal := range []int{0, 13} {
		resp, body := postJSON(t, ts.URL+"/v1/kspr",
			queryRequest{Dataset: "ind", Focal: focal, K: 6, NoCache: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("single status %d", resp.StatusCode)
		}
		var qr queryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if len(qr.Regions) != len(lines[i].Result.Regions) {
			t.Fatalf("focal %d: batch %d regions, single %d",
				focal, len(lines[i].Result.Regions), len(qr.Regions))
		}
		for j := range qr.Regions {
			if qr.Regions[j].Rank != lines[i].Result.Regions[j].Rank {
				t.Fatalf("focal %d region %d rank differs", focal, j)
			}
		}
	}
}

// TestBatchEnvelopeErrors covers whole-request rejections of the NDJSON
// form.
func TestBatchEnvelopeErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 4})
	loadGenerated(t, ts, "ind", 50, 3, 1)

	cases := []struct {
		name, body string
		status     int
	}{
		{"bad header", "not json\n{\"focal\":1}\n", http.StatusBadRequest},
		{"inline queries in ndjson header",
			`{"dataset":"ind","queries":[{"focal":1,"k":2}]}` + "\n", http.StatusBadRequest},
		{"empty body", "", http.StatusBadRequest},
		{"no items", `{"dataset":"ind","k":3}` + "\n", http.StatusBadRequest},
		{"unknown dataset", `{"dataset":"nope","k":3}` + "\n" + `{"focal":1}` + "\n", http.StatusNotFound},
		{"bad algorithm", `{"dataset":"ind","k":3,"algorithm":"zap"}` + "\n" + `{"focal":1}` + "\n", http.StatusBadRequest},
		{"oversize", `{"dataset":"ind","k":2}` + "\n" +
			strings.Repeat(`{"focal":1}`+"\n", 5), http.StatusBadRequest},
	}
	for _, c := range cases {
		resp := postNDJSON(t, ts.URL+"/v1/kspr:batch", c.body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
		}
	}
}

// TestBatchApprox: a batch envelope that asks for approx, or sets its
// epsilon, is rejected whole, in both wire forms.
func TestBatchApprox(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "ind", 150, 3, 7)

	for _, header := range []string{
		`{"dataset":"ind","k":4,"algorithm":"approx"}`,
		`{"dataset":"ind","k":4,"epsilon":0.05}`,
	} {
		resp := postNDJSON(t, ts.URL+"/v1/kspr:batch", header+"\n"+`{"focal":1}`+"\n")
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("ndjson %s: status %d, want 400", header, resp.StatusCode)
		}
		inline := strings.TrimSuffix(header, "}") + `,"queries":[{"focal":1}]}`
		resp, err := http.Post(ts.URL+"/v1/kspr:batch", "application/json", strings.NewReader(inline))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("json %s: status %d, want 400", inline, resp.StatusCode)
		}
	}
}

// TestBatchItemTimeout: item_timeout_ms bounds each item individually —
// a batch of expensive items over a tiny per-item budget settles every
// line with 504 while the envelope (with a generous batch deadline)
// stays 200.
func TestBatchItemTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"name":"anti2","generate":{"dist":"ANTI","n":3000,"d":4,"seed":4}}`
	resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var b bytes.Buffer
	b.WriteString(`{"dataset":"anti2","k":10,"algorithm":"cta","timeout_ms":30000,"item_timeout_ms":50,"no_cache":true}` + "\n")
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&b, `{"focal":%d}`+"\n", 500+i)
	}
	r2 := postNDJSON(t, ts.URL+"/v1/kspr:batch", b.String())
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r2.StatusCode)
	}
	lines := readBatchLines(t, r2)
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	for i := 0; i < 3; i++ {
		// Dominated focals finish instantly (fine); expensive ones must
		// 504 from their per-item budget rather than running unbounded.
		if lines[i].Error != "" && lines[i].Status != http.StatusGatewayTimeout {
			t.Fatalf("item %d: status %d (%s), want 504", i, lines[i].Status, lines[i].Error)
		}
	}
}
