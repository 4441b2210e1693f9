package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// focalWithRegions picks a k-skyband record that actually has top-k
// regions (skyband membership alone does not guarantee any).
func focalWithRegions(t *testing.T, snap *Snapshot, k int) int {
	t.Helper()
	for _, id := range snap.DB.KSkyband(k) {
		res, err := snap.DB.KSPR(id, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Regions) > 0 {
			return id
		}
	}
	t.Fatal("no focal with regions found")
	return -1
}

func getJSON(t *testing.T, url string, out any) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("get %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf []byte
	buf = make([]byte, 0, 1024)
	tmp := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(tmp)
		buf = append(buf, tmp[:n]...)
		if err != nil {
			break
		}
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf, out); err != nil {
			t.Fatalf("decode %s: %v (%s)", url, err, buf)
		}
	}
	return resp, buf
}

// TestCompetitorsEndpoint exercises GET /v1/impact:competitors: shape,
// accounting, generation-keyed caching, invalidation by mutation, and the
// query-string rules.
func TestCompetitorsEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "comp", 120, 3, 3)
	snap, _ := srv.Registry().Get("comp")
	focal := snap.DB.KSkyband(3)[1]

	url := fmt.Sprintf("%s/v1/impact:competitors?dataset=comp&focal=%d&k=3&samples=2000&seed=5", ts.URL, focal)
	var first competitorsResponse
	resp, body := getJSON(t, url, &first)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if first.Cached || first.Focal != focal || first.K != 3 || first.Samples != 2000 {
		t.Fatalf("bad response: %+v", first)
	}
	if first.Impact+first.Miss != 1 {
		t.Fatalf("impact %v + miss %v != 1", first.Impact, first.Miss)
	}
	for _, c := range first.Competitors {
		if c.ID == focal {
			t.Fatal("focal attributed to itself")
		}
		if c.MissShare < 0 || c.MissShare > first.Miss || c.PressureShare < 0 || c.PressureShare > first.Impact {
			t.Fatalf("share out of range: %+v", c)
		}
	}

	var second competitorsResponse
	if _, _ = getJSON(t, url, &second); !second.Cached {
		t.Fatal("repeat attribution not served from cache")
	}

	if code, _ := postMutate(t, ts, "comp", `{"op":"insert","values":[0.01,0.01,0.02]}`); code != http.StatusOK {
		t.Fatalf("mutate status %d", code)
	}
	var after competitorsResponse
	if _, _ = getJSON(t, url, &after); after.Cached {
		t.Fatal("attribution served from a stale generation's cache after mutation")
	}
	if after.Generation == first.Generation {
		t.Fatal("generation did not advance")
	}

	// Error surface: unknown dataset, bad params, approx algorithm.
	if resp, _ := getJSON(t, ts.URL+"/v1/impact:competitors?dataset=nope&focal=0&k=1", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown dataset: status %d", resp.StatusCode)
	}
	if resp, _ := getJSON(t, ts.URL+"/v1/impact:competitors?dataset=comp&focal=x&k=1", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad focal: status %d", resp.StatusCode)
	}
	if resp, _ := getJSON(t, ts.URL+"/v1/impact:competitors?dataset=comp&focal=0&k=0", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad k: status %d", resp.StatusCode)
	}
	if resp, _ := getJSON(t, fmt.Sprintf("%s/v1/impact:competitors?dataset=comp&focal=%d&k=3&algorithm=approx", ts.URL, focal), nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("approx algorithm: status %d", resp.StatusCode)
	}

	// Like GET /v1/kspr, the query string admits only the names it knows
	// (debug is the one extra) and parses no_cache as a boolean: a typo
	// must not silently run the default or be served from the cache.
	for _, tc := range []struct{ query, want string }{
		{"&sample=500", `unknown query parameter \"sample\"`},
		{"&algoritm=cta", `unknown query parameter \"algoritm\"`},
		{"&no_cache=yes", `invalid no_cache=\"yes\"`},
	} {
		resp, body := getJSON(t, url+tc.query, nil)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
			t.Fatalf("%s: status %d, body %s; want 400 with %s", tc.query, resp.StatusCode, body, tc.want)
		}
	}
	var traced competitorsResponse
	if resp, body := getJSON(t, url+"&debug=trace", &traced); resp.StatusCode != http.StatusOK || traced.Trace == nil {
		t.Fatalf("debug=trace: status %d, body %s; want 200 with a trace", resp.StatusCode, body)
	}
}

// TestCompetitorsProbeStats checks that an attribution counts its one
// impact probe the way the price and frontier endpoints count theirs: kept
// when k others dominate the focal out of every top-k, recomputed
// otherwise, in the response's stats and in /metrics' what-if counters.
func TestCompetitorsProbeStats(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "probe", 120, 3, 3)
	snap, _ := srv.Registry().Get("probe")
	const k = 3
	skyband := snap.DB.KSkyband(k)[0]
	dominated := -1
	for id := 0; id < snap.DB.Len() && dominated < 0; id++ {
		res, err := snap.DB.KSPR(id, k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.BaseRank >= k {
			dominated = id
		}
	}
	if dominated < 0 {
		t.Fatal("no focal dominated by k others")
	}
	for _, c := range []struct {
		focal            int
		kept, recomputed int
		keepRate         float64
	}{
		{dominated, 1, 0, 1},
		{skyband, 0, 1, 0},
	} {
		var got competitorsResponse
		url := fmt.Sprintf("%s/v1/impact:competitors?dataset=probe&focal=%d&k=%d&samples=500", ts.URL, c.focal, k)
		if resp, body := getJSON(t, url, &got); resp.StatusCode != http.StatusOK {
			t.Fatalf("focal %d: status %d: %s", c.focal, resp.StatusCode, body)
		}
		st := got.Stats
		if st.Probes != 1 || st.Kept != c.kept || st.Recomputed != c.recomputed || st.KeepRate != c.keepRate {
			t.Fatalf("focal %d: stats %+v, want 1 probe, %d kept, %d recomputed", c.focal, st, c.kept, c.recomputed)
		}
	}
	var m MetricsSnapshot
	fetchJSON(t, ts.URL+"/metrics", http.StatusOK, &m)
	if m.WhatIf.Probes != 2 || m.WhatIf.Kept != 1 {
		t.Fatalf("/metrics whatif %+v, want 2 probes, 1 kept", m.WhatIf)
	}
}

// TestWhatIfPriceEndpoint exercises POST /v1/whatif:price end-to-end:
// a successful search, the cache round-trip, and the 422 unreachable case.
func TestWhatIfPriceEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "price", 100, 3, 11)
	snap, _ := srv.Registry().Get("price")
	focal := snap.DB.KSkyband(3)[0]

	req := priceRequest{whatifRequest: whatifRequest{Dataset: "price", Focal: focal, K: 3, Samples: 2000, Seed: 5},
		Attr: 0, Target: 0.6, Eps: 1e-3}
	resp, body := postJSON(t, ts.URL+"/v1/whatif:price", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr priceResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.AlreadyMet && pr.Impact < req.Target {
		t.Fatalf("returned impact %v below target %v", pr.Impact, req.Target)
	}
	if pr.Stats.Probes == 0 {
		t.Fatalf("no probes recorded: %+v", pr.Stats)
	}

	resp, body = postJSON(t, ts.URL+"/v1/whatif:price", req)
	var cached priceResponse
	json.Unmarshal(body, &cached)
	if !cached.Cached {
		t.Fatal("repeat search not served from cache")
	}
	if cached.Delta != pr.Delta || cached.Generation != pr.Generation {
		t.Fatalf("cached answer diverged: %+v vs %+v", cached, pr)
	}

	// A target the capped bracket cannot reach is 422 — and the answer is
	// deterministic, so the repeat must be 422 straight from the cache
	// (no second multi-probe search; the counter below pins that).
	bad := req
	bad.Target = 0.99
	bad.MaxDelta = 1e-9
	resp, body = postJSON(t, ts.URL+"/v1/whatif:price", bad)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unreachable target: status %d: %s", resp.StatusCode, body)
	}
	probesAfterFirst := srv.metricsView().WhatIf.Probes
	resp, body = postJSON(t, ts.URL+"/v1/whatif:price", bad)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("repeat unreachable target: status %d: %s", resp.StatusCode, body)
	}
	if got := srv.metricsView().WhatIf.Probes; got != probesAfterFirst {
		t.Fatalf("repeat unreachable target re-ran the search: %d -> %d probes", probesAfterFirst, got)
	}

	if resp, _ := postJSON(t, ts.URL+"/v1/whatif:price", priceRequest{whatifRequest: whatifRequest{Dataset: "price", Focal: focal, K: 0}, Target: 0.5}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad k: status %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/whatif:price", priceRequest{whatifRequest: whatifRequest{Dataset: "nope", Focal: 0, K: 1}, Target: 0.5}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown dataset: status %d", resp.StatusCode)
	}
}

// TestWhatIfFrontierEndpoint exercises POST /v1/whatif:frontier: grid
// shape, monotone impact, stats, caching, and the step cap.
func TestWhatIfFrontierEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxBatch: 32})
	loadGenerated(t, ts, "front", 100, 3, 13)
	snap, _ := srv.Registry().Get("front")
	focal := snap.DB.KSkyband(3)[2]

	req := frontierRequest{whatifRequest: whatifRequest{Dataset: "front", Focal: focal, K: 3, Samples: 1500, Seed: 3},
		Attr: 0, Min: 0.01, Max: 1.2, Steps: 6}
	resp, body := postJSON(t, ts.URL+"/v1/whatif:frontier", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var fr frontierResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Points) != req.Steps {
		t.Fatalf("got %d points, want %d", len(fr.Points), req.Steps)
	}
	for i := 1; i < len(fr.Points); i++ {
		if fr.Points[i].Impact < fr.Points[i-1].Impact {
			t.Fatalf("frontier not monotone at %d", i)
		}
	}
	if fr.Stats.Probes != req.Steps {
		t.Fatalf("stats probes %d != steps %d", fr.Stats.Probes, req.Steps)
	}

	resp, body = postJSON(t, ts.URL+"/v1/whatif:frontier", req)
	var cached frontierResponse
	json.Unmarshal(body, &cached)
	if !cached.Cached {
		t.Fatal("repeat frontier not served from cache")
	}

	big := req
	big.Steps = 1000
	if resp, _ := postJSON(t, ts.URL+"/v1/whatif:frontier", big); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized frontier: status %d", resp.StatusCode)
	}
}

// TestKSPRVolumesParams covers the volumes= / volume_samples= query
// surface: volumes arrive on the wire, and the sample count is part of the
// cache key (different sample counts are distinct entries).
func TestKSPRVolumesParams(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "vol", 120, 3, 9)
	snap, _ := srv.Registry().Get("vol")
	focal := focalWithRegions(t, snap, 3)

	q := queryRequest{Dataset: "vol", Focal: focal, K: 3, Volumes: true, VolumeSamples: 5000}
	resp, body := postJSON(t, ts.URL+"/v1/kspr", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	json.Unmarshal(body, &qr)
	if len(qr.Regions) == 0 {
		t.Fatal("skyband focal has no regions")
	}
	var total float64
	for _, reg := range qr.Regions {
		if reg.Volume < 0 {
			t.Fatalf("negative region volume: %+v", reg)
		}
		total += reg.Volume
		if reg.RankExact && len(reg.Outscorers) != reg.Rank-1 {
			t.Fatalf("region outscorers %d != rank-1 %d", len(reg.Outscorers), reg.Rank-1)
		}
	}
	if total <= 0 {
		t.Fatal("volumes requested but all zero")
	}

	// Same query, different sample count: must MISS the cache (distinct
	// key), while the identical repeat hits it.
	q2 := q
	q2.VolumeSamples = 7000
	resp, body = postJSON(t, ts.URL+"/v1/kspr", q2)
	var qr2 queryResponse
	json.Unmarshal(body, &qr2)
	if qr2.Cached {
		t.Fatal("different volume_samples shared a cache entry")
	}
	resp, body = postJSON(t, ts.URL+"/v1/kspr", q)
	var qr3 queryResponse
	json.Unmarshal(body, &qr3)
	if !qr3.Cached {
		t.Fatal("identical volumes query not served from cache")
	}

	// Key normalization: an explicit default sample count and an omitted
	// one are the same computation and must share one entry.
	qDefault := q
	qDefault.VolumeSamples = 10000
	postJSON(t, ts.URL+"/v1/kspr", qDefault)
	qOmitted := q
	qOmitted.VolumeSamples = 0
	_, body = postJSON(t, ts.URL+"/v1/kspr", qOmitted)
	var qr4 queryResponse
	json.Unmarshal(body, &qr4)
	if !qr4.Cached {
		t.Fatal("volume_samples 0 and the explicit default fragmented the cache")
	}
}

// TestImpactDensitiesAndBounds covers the sampling/parse branches the
// what-if layer shares with /v1/impact: named densities, their validation
// errors, the sample cap, and the bound/space spellings on /v1/kspr.
func TestImpactDensitiesAndBounds(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "imp", 100, 3, 7)
	snap, _ := srv.Registry().Get("imp")
	focal := focalWithRegions(t, snap, 3)

	densities := []*densityReq{
		nil,
		{Name: "dirichlet", Alpha: []float64{2, 2, 2}},
		{Name: "gaussian", Center: []float64{0.4, 0.3, 0.3}, Sigma: 0.2},
	}
	for _, d := range densities {
		resp, body := postJSON(t, ts.URL+"/v1/impact", impactRequest{
			Dataset: "imp", Focal: focal, K: 3, Samples: 2000, Density: d})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("density %+v: status %d: %s", d, resp.StatusCode, body)
		}
		var ir impactResponse
		json.Unmarshal(body, &ir)
		if ir.Probability < 0 || ir.Probability > 1 {
			t.Fatalf("density %+v: probability %v out of range", d, ir.Probability)
		}
	}
	// The per-request sample cap clamps instead of erroring.
	resp, body := postJSON(t, ts.URL+"/v1/impact", impactRequest{
		Dataset: "imp", Focal: focal, K: 3, Samples: maxImpactSamples + 1, NoCache: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("oversample: status %d: %s", resp.StatusCode, body)
	}
	var ir impactResponse
	json.Unmarshal(body, &ir)
	if ir.Samples != maxImpactSamples {
		t.Fatalf("samples not clamped: %d", ir.Samples)
	}
	for _, bad := range []*densityReq{
		{Name: "nope"},
		{Name: "dirichlet", Alpha: []float64{2, 2}},
		{Name: "dirichlet", Alpha: []float64{2, -1, 2}},
		{Name: "gaussian", Center: []float64{0.5}},
	} {
		if resp, _ := postJSON(t, ts.URL+"/v1/impact", impactRequest{
			Dataset: "imp", Focal: focal, K: 3, Density: bad}); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("density %+v accepted", bad)
		}
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/impact", impactRequest{
		Dataset: "imp", Focal: focal, K: 3, Algorithm: "approx"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("approx impact accepted")
	}

	// Bound/space spellings on /v1/kspr.
	for _, b := range []string{"group", "record", "fast_bounds"} {
		if resp, body := postJSON(t, ts.URL+"/v1/kspr", queryRequest{
			Dataset: "imp", Focal: focal, K: 3, Bounds: b}); resp.StatusCode != http.StatusOK {
			t.Fatalf("bounds %q: status %d: %s", b, resp.StatusCode, body)
		}
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/kspr", queryRequest{
		Dataset: "imp", Focal: focal, K: 3, Bounds: "diagonal"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("unknown bounds accepted")
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/kspr", queryRequest{
		Dataset: "imp", Focal: focal, K: 3, Space: "sideways"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("unknown space accepted")
	}
}

// TestMutationDropsRepricedFocalCache is the stale-what-if guard: when a
// reprice makes the cached focal newly dominated, the old cached result
// must NOT migrate to the new generation — the follow-up query recomputes
// and returns the (now empty) truth.
func TestMutationDropsRepricedFocalCache(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "reprice", 150, 3, 5)
	snap, _ := srv.Registry().Get("reprice")
	focal := focalWithRegions(t, snap, 3)
	stable, _ := snap.DB.StableID(focal)

	q := queryRequest{Dataset: "reprice", Focal: focal, K: 3}
	resp, body := postJSON(t, ts.URL+"/v1/kspr", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	var before queryResponse
	json.Unmarshal(body, &before)
	if len(before.Regions) == 0 {
		t.Fatal("skyband focal should have regions before the reprice")
	}

	// Reprice the focal itself into the dominated interior: its own cached
	// result is value-affected and must be dropped, not migrated.
	code, mr := postMutate(t, ts, "reprice",
		fmt.Sprintf(`{"op":"update","id":%d,"values":[0.01,0.01,0.01]}`, stable))
	if code != http.StatusOK {
		t.Fatalf("mutate status %d", code)
	}
	if mr.CacheDropped == 0 {
		t.Fatalf("repriced focal's cache entry not dropped: %+v", mr)
	}

	resp, body = postJSON(t, ts.URL+"/v1/kspr", q)
	var after queryResponse
	json.Unmarshal(body, &after)
	if after.Cached {
		t.Fatal("repriced focal served a stale migrated result")
	}
	if len(after.Regions) != 0 {
		t.Fatalf("dominated reprice still shows %d regions", len(after.Regions))
	}

	// Cross-check against a cold library run on the live dataset.
	live, _ := srv.Registry().Live("reprice")
	dense, ok := live.DenseIndex(stable)
	if !ok {
		t.Fatal("focal vanished")
	}
	cold, err := live.KSPR(dense, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Regions) != 0 {
		t.Fatalf("cold run disagrees: %d regions", len(cold.Regions))
	}
}
