package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	kspr "repro"
	"repro/internal/dataset"
)

// newTestServer spins up the service over httptest with fast timeouts.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// loadGenerated installs a synthetic dataset through the HTTP API.
func loadGenerated(t *testing.T, ts *httptest.Server, name string, n, d int, seed int64) DatasetInfo {
	t.Helper()
	body := fmt.Sprintf(`{"name":%q,"generate":{"dist":"IND","n":%d,"d":%d,"seed":%d}}`, name, n, d, seed)
	resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("load dataset: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load dataset: status %d", resp.StatusCode)
	}
	var info DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode dataset info: %v", err)
	}
	return info
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("post %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestQueryMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "ind", 300, 3, 7)

	resp, body := postJSON(t, ts.URL+"/v1/kspr", queryRequest{Dataset: "ind", Focal: 11, K: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("decode: %v", err)
	}

	// The service must agree with a direct library run on the same data.
	ds, err := dataset.Generate(dataset.Independent, 300, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	db, err := kspr.Open(ds.Float64s())
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.KSPR(11, 5, kspr.WithAlgorithm(kspr.LPCTA))
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Regions) != len(want.Regions) {
		t.Fatalf("server returned %d regions, library %d", len(qr.Regions), len(want.Regions))
	}
	if qr.Cached {
		t.Fatal("first query must not be served from cache")
	}
	if qr.Algorithm != "LP-CTA" || qr.Dataset != "ind" || qr.K != 5 {
		t.Fatalf("unexpected response header fields: %+v", qr)
	}
}

func TestQueryValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "ind", 50, 3, 1)

	cases := []struct {
		req    queryRequest
		status int
	}{
		{queryRequest{Dataset: "missing", Focal: 1, K: 5}, http.StatusNotFound},
		{queryRequest{Dataset: "ind", Focal: 1, K: 0}, http.StatusBadRequest},
		{queryRequest{Dataset: "ind", Focal: -3, K: 5}, http.StatusBadRequest},
		{queryRequest{Dataset: "ind", Focal: 5000, K: 5}, http.StatusBadRequest},
		{queryRequest{Dataset: "ind", Focal: 1, K: 5, Algorithm: "nope"}, http.StatusBadRequest},
	}
	for i, c := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/kspr", c.req)
		if resp.StatusCode != c.status {
			t.Errorf("case %d: status %d, want %d (%s)", i, resp.StatusCode, c.status, body)
		}
	}
}

func TestCacheHitMiss(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "ind", 200, 3, 3)

	req := queryRequest{Dataset: "ind", Focal: 4, K: 5}
	_, body1 := postJSON(t, ts.URL+"/v1/kspr", req)
	var first queryResponse
	if err := json.Unmarshal(body1, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first response claims cached")
	}
	_, body2 := postJSON(t, ts.URL+"/v1/kspr", req)
	var second queryResponse
	if err := json.Unmarshal(body2, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second identical query must be a cache hit")
	}
	if len(second.Regions) != len(first.Regions) {
		t.Fatalf("cached response has %d regions, fresh had %d", len(second.Regions), len(first.Regions))
	}

	st := srv.cache.Stats()
	if st.Hits < 1 || st.Misses < 1 {
		t.Fatalf("cache stats did not move: %+v", st)
	}

	// Spelling variants of the same algorithm share a canonical cache key.
	_, bodyAlt := postJSON(t, ts.URL+"/v1/kspr", queryRequest{Dataset: "ind", Focal: 4, K: 5, Algorithm: "lpcta"})
	var alt queryResponse
	if err := json.Unmarshal(bodyAlt, &alt); err != nil {
		t.Fatal(err)
	}
	if !alt.Cached {
		t.Fatal(`algorithm "lpcta" must hit the cache entry made by the default spelling`)
	}

	// Parameters an exact answer never reads share the entry too:
	// epsilon (approx only) and, without volumes, the seed (Monte-Carlo
	// volumes only).
	cachedAs := func(req queryRequest) bool {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/kspr", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: status %d: %s", req, resp.StatusCode, body)
		}
		var qr queryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		return qr.Cached
	}
	if !cachedAs(queryRequest{Dataset: "ind", Focal: 4, K: 5, Epsilon: 0.5}) {
		t.Fatal("an exact query with epsilon set must hit the entry made without it")
	}
	if !cachedAs(queryRequest{Dataset: "ind", Focal: 4, K: 5, Seed: 7}) {
		t.Fatal("an exact query with a seed but no volumes must hit the entry made without it")
	}
	// Where they are read, they stay in the key.
	vol := queryRequest{Dataset: "ind", Focal: 4, K: 5, Volumes: true, VolumeSamples: 500, Seed: 1}
	if cachedAs(vol) || !cachedAs(vol) {
		t.Fatal("a volume query must miss once, then hit")
	}
	vol.Seed = 2
	if cachedAs(vol) {
		t.Fatal("a volume query with another seed must miss")
	}
	approx := queryRequest{Dataset: "ind", Focal: 4, K: 5, Algorithm: "approx", Epsilon: 0.5}
	if cachedAs(approx) || !cachedAs(approx) {
		t.Fatal("an approx query must miss once, then hit")
	}
	approx.Epsilon = 0.4
	if cachedAs(approx) {
		t.Fatal("an approx query with another epsilon must miss")
	}

	// A different k must miss.
	_, body3 := postJSON(t, ts.URL+"/v1/kspr", queryRequest{Dataset: "ind", Focal: 4, K: 6})
	var third queryResponse
	if err := json.Unmarshal(body3, &third); err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("different k must not hit the cache")
	}

	// The hit rate must be visible through /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Cache.Hits < 1 {
		t.Fatalf("metrics cache hits = %d, want >= 1", snap.Cache.Hits)
	}
	if snap.Cache.HitRate <= 0 {
		t.Fatalf("metrics hit rate = %v, want > 0", snap.Cache.HitRate)
	}
	if snap.Requests == 0 {
		t.Fatal("metrics request counter did not move")
	}
}

func TestBatchStreamsAllQueries(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "ind", 250, 3, 5)

	queries := make([]batchQuery, 12)
	for i := range queries {
		queries[i] = batchQuery{Focal: i * 7, K: 3 + i%4}
	}
	raw, _ := json.Marshal(batchRequest{Dataset: "ind", Queries: queries})
	resp, err := http.Post(ts.URL+"/v1/kspr:batch", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	seen := map[int]bool{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var line batchLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad ndjson line %q: %v", sc.Text(), err)
		}
		if line.Error != "" {
			t.Fatalf("query %d failed: %s", line.Index, line.Error)
		}
		if line.Result == nil || len(line.Result.Regions) == 0 && line.Result.Stats.BaseRank < 0 {
			t.Fatalf("query %d: empty result", line.Index)
		}
		if seen[line.Index] {
			t.Fatalf("query %d reported twice", line.Index)
		}
		seen[line.Index] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(queries) {
		t.Fatalf("got %d results, want %d", len(seen), len(queries))
	}
}

func TestBatchRejectsOversize(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 4})
	loadGenerated(t, ts, "ind", 50, 3, 1)
	queries := make([]batchQuery, 5)
	for i := range queries {
		queries[i] = batchQuery{Focal: i, K: 2}
	}
	resp, _ := postJSON(t, ts.URL+"/v1/kspr:batch", batchRequest{Dataset: "ind", Queries: queries})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestTimeoutReturns504(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Large anticorrelated workload: CTA on it takes far longer than 1ms.
	body := `{"name":"anti","generate":{"dist":"ANTI","n":4000,"d":4,"seed":2}}`
	resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// A skyline record has base rank 0, so the query cannot short-circuit
	// to an empty result; CTA must chew through thousands of hyperplanes.
	sresp, err := http.Get(ts.URL + "/v1/skyline?dataset=anti")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var sk skylineResponse
	if err := json.NewDecoder(sresp.Body).Decode(&sk); err != nil {
		t.Fatal(err)
	}
	if len(sk.IDs) == 0 {
		t.Fatal("empty skyline")
	}

	r2, rbody := postJSON(t, ts.URL+"/v1/kspr", queryRequest{
		Dataset: "anti", Focal: sk.IDs[0], K: 30, Algorithm: "cta", TimeoutMs: 1, NoCache: true,
	})
	if r2.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", r2.StatusCode, rbody)
	}
}

func TestApproxQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "ind", 200, 3, 9)
	resp, body := postJSON(t, ts.URL+"/v1/kspr", queryRequest{
		Dataset: "ind", Focal: 3, K: 5, Algorithm: "approx", Epsilon: 0.05,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Algorithm != "approx" || qr.Converged == nil {
		t.Fatalf("approx response missing fields: %+v", qr)
	}
}

func TestTopKSkylineImpact(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "ind", 300, 3, 4)

	resp, body := postJSON(t, ts.URL+"/v1/topk", topkRequest{
		Dataset: "ind", Weights: []float64{0.5, 0.3, 0.2}, K: 10,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topk status %d: %s", resp.StatusCode, body)
	}
	var tk topkResponse
	if err := json.Unmarshal(body, &tk); err != nil {
		t.Fatal(err)
	}
	if len(tk.Results) != 10 {
		t.Fatalf("topk returned %d results", len(tk.Results))
	}
	for i := 1; i < len(tk.Results); i++ {
		if tk.Results[i].Score > tk.Results[i-1].Score+1e-12 {
			t.Fatalf("topk scores not descending at %d", i)
		}
	}

	sresp, err := http.Get(ts.URL + "/v1/skyline?dataset=ind")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var sk skylineResponse
	if err := json.NewDecoder(sresp.Body).Decode(&sk); err != nil {
		t.Fatal(err)
	}
	if sk.Count == 0 || sk.Count != len(sk.IDs) {
		t.Fatalf("bad skyline response: %+v", sk)
	}

	// k-skyband is a superset of the skyline.
	bresp, err := http.Get(ts.URL + "/v1/skyline?dataset=ind&k=3")
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	var band skylineResponse
	if err := json.NewDecoder(bresp.Body).Decode(&band); err != nil {
		t.Fatal(err)
	}
	if band.Count < sk.Count {
		t.Fatalf("3-skyband (%d) smaller than skyline (%d)", band.Count, sk.Count)
	}

	// Impact for a skyline record under uniform and focused densities.
	focal := sk.IDs[0]
	iresp, ibody := postJSON(t, ts.URL+"/v1/impact", impactRequest{
		Dataset: "ind", Focal: focal, K: 10, Samples: 4000,
	})
	if iresp.StatusCode != http.StatusOK {
		t.Fatalf("impact status %d: %s", iresp.StatusCode, ibody)
	}
	var imp impactResponse
	if err := json.Unmarshal(ibody, &imp); err != nil {
		t.Fatal(err)
	}
	if imp.Probability <= 0 || imp.Probability > 1 {
		t.Fatalf("impact probability %v out of (0, 1]", imp.Probability)
	}
	if imp.Density != "uniform" {
		t.Fatalf("density %q", imp.Density)
	}

	iresp2, ibody2 := postJSON(t, ts.URL+"/v1/impact", impactRequest{
		Dataset: "ind", Focal: focal, K: 10, Samples: 4000,
		Density: &densityReq{Name: "dirichlet", Alpha: []float64{2, 2, 2}},
	})
	if iresp2.StatusCode != http.StatusOK {
		t.Fatalf("dirichlet impact status %d: %s", iresp2.StatusCode, ibody2)
	}
	var imp2 impactResponse
	if err := json.Unmarshal(ibody2, &imp2); err != nil {
		t.Fatal(err)
	}
	if !imp2.Cached {
		t.Fatal("second impact call must reuse the cached kSPR result")
	}
}

func TestDatasetAdmin(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info := loadGenerated(t, ts, "a", 60, 3, 1)
	if info.Records != 60 || info.Dims != 3 || info.Generation == 0 {
		t.Fatalf("bad load info: %+v", info)
	}

	// Reload bumps the generation.
	info2 := loadGenerated(t, ts, "a", 80, 3, 2)
	if info2.Generation <= info.Generation {
		t.Fatalf("generation did not advance: %d -> %d", info.Generation, info2.Generation)
	}
	if info2.Records != 80 {
		t.Fatalf("reload kept old data: %+v", info2)
	}

	// Inline CSV load.
	csv := "a1,a2\n0.1,0.9\n0.8,0.2\n0.5,0.5\n"
	resp, body := postJSON(t, ts.URL+"/v1/datasets", loadRequest{Name: "inline", CSV: csv})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline load status %d: %s", resp.StatusCode, body)
	}

	// Listing shows both, sorted.
	lresp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list []DatasetInfo
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Name != "a" || list[1].Name != "inline" {
		t.Fatalf("bad listing: %+v", list)
	}

	// Unload.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/inline", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("unload status %d", dresp.StatusCode)
	}
	if _, qbody := postJSON(t, ts.URL+"/v1/kspr", queryRequest{Dataset: "inline", Focal: 0, K: 1}); !bytes.Contains(qbody, []byte("not found")) {
		t.Fatalf("query after unload: %s", qbody)
	}

	// Bad loads.
	for _, bad := range []string{
		`{"name":"x"}`,
		`{"name":"x","path":"p","csv":"c"}`,
		`{"name":"","csv":"a\n1\n"}`,
		`{"name":"x","generate":{"dist":"NOPE","n":10,"d":3}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("load %s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// TestReloadUnderLoad hammers the query path from 32 goroutines while the
// dataset is reloaded underneath them; every query must finish cleanly on
// whichever snapshot it resolved (no panics, no 5xx), and the generation
// must advance. Run with -race this also verifies the registry/cache/pool
// synchronization.
func TestReloadUnderLoad(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 8, Queue: 256})
	loadGenerated(t, ts, "hot", 200, 3, 1)

	const (
		goroutines = 32
		perG       = 6
	)
	stop := make(chan struct{})
	var reloads sync.WaitGroup
	reloads.Add(1)
	go func() {
		defer reloads.Done()
		seed := int64(2)
		for {
			select {
			case <-stop:
				return
			default:
			}
			ds, err := dataset.Generate(dataset.Independent, 150+int(seed)%100, 3, seed)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := srv.Registry().Load("hot", ds, "reload"); err != nil {
				t.Error(err)
				return
			}
			seed++
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan string, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				switch (g + i) % 3 {
				case 0:
					resp, body := postJSON(t, ts.URL+"/v1/kspr", queryRequest{
						Dataset: "hot", Focal: (g*perG + i) % 150, K: 3, NoCache: i%2 == 0,
					})
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Sprintf("kspr g%d i%d: %d %s", g, i, resp.StatusCode, body)
					}
				case 1:
					resp, body := postJSON(t, ts.URL+"/v1/topk", topkRequest{
						Dataset: "hot", Weights: []float64{0.4, 0.4, 0.2}, K: 5,
					})
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Sprintf("topk g%d i%d: %d %s", g, i, resp.StatusCode, body)
					}
				default:
					resp, err := http.Get(ts.URL + "/v1/skyline?dataset=hot")
					if err != nil {
						errs <- err.Error()
						continue
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Sprintf("skyline g%d i%d: %d", g, i, resp.StatusCode)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	reloads.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	snap, ok := srv.Registry().Get("hot")
	if !ok {
		t.Fatal("dataset vanished")
	}
	if snap.Generation < 2 {
		t.Fatalf("generation never advanced: %d", snap.Generation)
	}
}

// TestGracefulShutdown verifies Close waits for queued work and that
// submissions after Close fail cleanly.
func TestGracefulShutdown(t *testing.T) {
	srv := NewServer(Config{Workers: 2})
	loadDirect(t, srv, "d", 100, 3, 1)

	snap, _ := srv.Registry().Get("d")
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			_, _, err := srv.runKSPR(t.Context(), snap, queryRequest{Dataset: "d", Focal: i, K: 3, NoCache: true})
			done <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	srv.Close()
	_, _, err := srv.runKSPR(t.Context(), snap, queryRequest{Dataset: "d", Focal: 0, K: 3, NoCache: true})
	if err != ErrPoolClosed {
		t.Fatalf("after Close: err = %v, want ErrPoolClosed", err)
	}
}

func loadDirect(t *testing.T, srv *Server, name string, n, d int, seed int64) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Independent, n, d, seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Registry().Load(name, ds, "test"); err != nil {
		t.Fatal(err)
	}
}
