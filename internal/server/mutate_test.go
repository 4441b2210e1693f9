package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	kspr "repro"
)

func postMutate(t *testing.T, ts *httptest.Server, name, body string) (int, mutateResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/datasets/"+name+":mutate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("mutate: %v", err)
	}
	defer resp.Body.Close()
	var mr mutateResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			t.Fatalf("decode mutate response: %v", err)
		}
	}
	return resp.StatusCode, mr
}

func TestMutateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info := loadGenerated(t, ts, "live", 200, 3, 5)

	// Single bare mutation.
	code, mr := postMutate(t, ts, "live", `{"op":"insert","values":[0.9,0.8,0.95],"label":"newbie"}`)
	if code != http.StatusOK {
		t.Fatalf("single mutate status %d", code)
	}
	if mr.Records != 201 || mr.Applied != 1 || mr.StoreGeneration != 2 {
		t.Fatalf("mutate response %+v", mr)
	}
	if mr.Generation <= info.Generation {
		t.Fatalf("generation did not advance: %d -> %d", info.Generation, mr.Generation)
	}
	newID := mr.IDs[0]

	// Envelope batch: update + delete, atomic.
	code, mr = postMutate(t, ts, "live",
		fmt.Sprintf(`{"mutations":[{"op":"update","id":%d,"values":[0.5,0.5,0.5]},{"op":"delete","id":3}]}`, newID))
	if code != http.StatusOK {
		t.Fatalf("batch mutate status %d", code)
	}
	if mr.Records != 200 || mr.Applied != 2 {
		t.Fatalf("batch response %+v", mr)
	}

	// Atomicity: a half-bad batch changes nothing.
	before := mr.StoreGeneration
	code, _ = postMutate(t, ts, "live",
		`{"mutations":[{"op":"insert","values":[0.1,0.1,0.1]},{"op":"delete","id":999999}]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("half-bad batch status %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var infos []DatasetInfo
	json.NewDecoder(resp.Body).Decode(&infos)
	resp.Body.Close()
	if infos[0].StoreGeneration != before || infos[0].Records != 200 {
		t.Fatalf("failed batch mutated dataset: %+v", infos[0])
	}

	// Validation errors.
	for _, bad := range []string{
		`{"op":"insert","id":7,"values":[0.1,0.2,0.3]}`,
		`{"op":"update","values":[0.1,0.2,0.3]}`,
		`{"op":"delete"}`,
		`{"op":"upsert","values":[0.1,0.2,0.3]}`,
		`{"op":"insert","values":[0.1]}`,
		`{"mutations":[]}`,
		`{"nonsense":1}`,
	} {
		if code, _ := postMutate(t, ts, "live", bad); code != http.StatusBadRequest {
			t.Fatalf("bad body %s: status %d", bad, code)
		}
	}

	// Unknown dataset and malformed action.
	if code, _ := postMutate(t, ts, "ghost", `{"op":"delete","id":1}`); code != http.StatusNotFound {
		t.Fatalf("ghost dataset status %d", code)
	}
	resp, err = http.Post(ts.URL+"/v1/datasets/live:obliterate", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown action status %d", resp.StatusCode)
	}
}

func TestMutateNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "live", 100, 3, 5)
	body := `{"op":"insert","values":[0.9,0.9,0.9]}
{"op":"insert","values":[0.8,0.8,0.8],"label":"b"}
{"op":"delete","id":0}
`
	resp, err := http.Post(ts.URL+"/v1/datasets/live:mutate", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ndjson mutate status %d", resp.StatusCode)
	}
	var mr mutateResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if mr.Applied != 3 || mr.Records != 101 || mr.StoreGeneration != 2 {
		t.Fatalf("ndjson response %+v", mr)
	}
}

// TestMutationInvalidatesQueries is the cache-generation regression test:
// a cached kSPR answer must never survive a mutation that changes it. The
// focal gets a new dominator inserted (changing its result), so the
// post-mutation query must differ — if the result cache served the old
// generation's entry, it would not.
func TestMutationInvalidatesQueries(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "live", 150, 3, 5)

	snap, _ := srv.Registry().Get("live")
	band := snap.DB.KSkyband(3)
	focal := band[0]

	q := queryRequest{Dataset: "live", Focal: focal, K: 3}
	resp, body := postJSON(t, ts.URL+"/v1/kspr", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	var before queryResponse
	json.Unmarshal(body, &before)
	// Second identical query: served from cache.
	resp, body = postJSON(t, ts.URL+"/v1/kspr", q)
	var cachedResp queryResponse
	json.Unmarshal(body, &cachedResp)
	if !cachedResp.Cached {
		t.Fatal("second query not cached")
	}

	// Insert K records dominating the focal: it is beaten everywhere, so
	// every result region dies.
	fv := snap.DB.Record(focal)
	dom := fmt.Sprintf(`{"mutations":[{"op":"insert","values":[%g,%g,%g]},{"op":"insert","values":[%g,%g,%g]},{"op":"insert","values":[%g,%g,%g]}]}`,
		fv[0]+0.01, fv[1]+0.01, fv[2]+0.01,
		fv[0]+0.02, fv[1]+0.01, fv[2]+0.01,
		fv[0]+0.01, fv[1]+0.02, fv[2]+0.01)
	if code, _ := postMutate(t, ts, "live", dom); code != http.StatusOK {
		t.Fatalf("mutate status %d", code)
	}

	resp, body = postJSON(t, ts.URL+"/v1/kspr", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-mutation query status %d: %s", resp.StatusCode, body)
	}
	var after queryResponse
	json.Unmarshal(body, &after)
	if after.Cached {
		t.Fatal("post-mutation query served from the stale cache")
	}
	if after.Generation == before.Generation {
		t.Fatal("generation did not change in the response")
	}
	if len(after.Regions) != 0 {
		t.Fatalf("dominated focal still has %d regions; stale result", len(after.Regions))
	}
}

// TestMutationMigratesUnaffectedCache proves the incremental serving win:
// a mutation classified irrelevant for a cached focal carries the cached
// entry to the new generation — the follow-up query is a cache hit, not a
// recompute — while stale old-generation keys never resurface.
func TestMutationMigratesUnaffectedCache(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "live", 150, 3, 5)

	snap, _ := srv.Registry().Get("live")
	band := snap.DB.KSkyband(3)
	focal := band[len(band)/2]

	q := queryRequest{Dataset: "live", Focal: focal, K: 3}
	resp, body := postJSON(t, ts.URL+"/v1/kspr", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	var before queryResponse
	json.Unmarshal(body, &before)

	// A deep-interior insert cannot affect any focal's regions.
	code, mr := postMutate(t, ts, "live", `{"op":"insert","values":[0.01,0.01,0.02]}`)
	if code != http.StatusOK {
		t.Fatalf("mutate status %d", code)
	}
	if mr.CacheMigrated == 0 {
		t.Fatalf("no cache entries migrated: %+v", mr)
	}

	resp, body = postJSON(t, ts.URL+"/v1/kspr", q)
	var after queryResponse
	json.Unmarshal(body, &after)
	if !after.Cached {
		t.Fatal("migrated entry not served as a cache hit")
	}
	if after.Generation != mr.Generation {
		t.Fatalf("migrated entry generation %d, want %d", after.Generation, mr.Generation)
	}
	if len(after.Regions) != len(before.Regions) {
		t.Fatalf("migrated regions %d != original %d", len(after.Regions), len(before.Regions))
	}

	// Cross-check against a cold run on the mutated dataset.
	live, _ := srv.Registry().Live("live")
	cold, err := live.KSPR(after.Focal, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Regions) != len(after.Regions) {
		t.Fatalf("migrated cache lies: %d regions cached, %d cold", len(after.Regions), len(cold.Regions))
	}
}

// TestMutationMigrationShiftsDenseID: a delete below the focal shifts its
// dense id down by one. The migrated entry must answer under the new id,
// by POST and by GET, and the old id, now another record, must miss.
func TestMutationMigrationShiftsDenseID(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "live", 150, 3, 5)

	snap, _ := srv.Registry().Get("live")
	band := snap.DB.KSkyband(3)
	focal := band[len(band)-1]
	if focal <= 4 {
		t.Fatalf("focal %d does not sit above the deleted record", focal)
	}
	resp, body := postJSON(t, ts.URL+"/v1/kspr", queryRequest{Dataset: "live", Focal: focal, K: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	var before queryResponse
	json.Unmarshal(body, &before)

	// Record 4 is dominated by dozens of records, so no 3-skyband focal
	// can see it; deleting it shifts every later dense id down by one.
	code, mr := postMutate(t, ts, "live", `{"op":"delete","id":4}`)
	if code != http.StatusOK {
		t.Fatalf("mutate status %d", code)
	}
	if mr.CacheMigrated != 1 {
		t.Fatalf("cache_migrated = %d, want 1: %+v", mr.CacheMigrated, mr)
	}

	moved := focal - 1
	_, body = postJSON(t, ts.URL+"/v1/kspr", queryRequest{Dataset: "live", Focal: moved, K: 3})
	var viaPost queryResponse
	json.Unmarshal(body, &viaPost)
	resp, err := http.Get(fmt.Sprintf("%s/v1/kspr?dataset=live&focal=%d&k=3", ts.URL, moved))
	if err != nil {
		t.Fatal(err)
	}
	var viaGet queryResponse
	json.NewDecoder(resp.Body).Decode(&viaGet)
	resp.Body.Close()
	for form, got := range map[string]queryResponse{"POST": viaPost, "GET": viaGet} {
		if !got.Cached || got.Focal != moved || got.Generation != mr.Generation {
			t.Fatalf("%s at the new dense id %d: cached %v, focal %d, generation %d (want true, %d, %d)",
				form, moved, got.Cached, got.Focal, got.Generation, moved, mr.Generation)
		}
		if len(got.Regions) != len(before.Regions) {
			t.Fatalf("%s: migrated regions %d != original %d", form, len(got.Regions), len(before.Regions))
		}
	}

	_, body = postJSON(t, ts.URL+"/v1/kspr", queryRequest{Dataset: "live", Focal: focal, K: 3})
	var stale queryResponse
	json.Unmarshal(body, &stale)
	if stale.Cached {
		t.Fatalf("old dense id %d, now another record, was served the migrated entry", focal)
	}
}

// TestMutateDurableStore exercises the full durable path: a store-backed
// server, mutations, then a fresh server over the same directory
// recovering the exact pre-crash generation.
func TestMutateDurableStore(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{StoreDir: dir})
	loadGenerated(t, ts, "live", 80, 3, 5)

	for i := 0; i < 5; i++ {
		if code, _ := postMutate(t, ts, "live", `{"op":"insert","values":[0.3,0.4,0.5]}`); code != http.StatusOK {
			t.Fatalf("mutate %d failed", i)
		}
	}
	code, mr := postMutate(t, ts, "live", `{"op":"delete","id":0}`)
	if code != http.StatusOK {
		t.Fatal("delete failed")
	}
	wantGen, wantRecords := mr.StoreGeneration, mr.Records

	// "Crash": a new server over the same store dir.
	srv2 := NewServer(Config{StoreDir: dir})
	defer srv2.Close()
	snaps, err := srv2.Registry().Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(snaps) != 1 || snaps[0].Name != "live" {
		t.Fatalf("recovered %v", snaps)
	}
	if snaps[0].StoreGeneration != wantGen {
		t.Fatalf("recovered store generation %d, want %d", snaps[0].StoreGeneration, wantGen)
	}
	if snaps[0].DB.Len() != wantRecords {
		t.Fatalf("recovered %d records, want %d", snaps[0].DB.Len(), wantRecords)
	}
	if len(snaps[0].Dataset.Attributes) != 3 {
		t.Fatalf("recovered attributes %v", snaps[0].Dataset.Attributes)
	}
}

// TestRegistryHotReloadRace hammers Load and Mutate while queries run,
// asserting generation monotonicity and that every resolved snapshot is
// internally consistent (never torn). Run under -race in CI.
func TestRegistryHotReloadRace(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	loadGenerated(t, ts, "hot", 120, 3, 1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)

	// Writer 1: hot reloads with alternating seeds and sizes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			body := fmt.Sprintf(`{"name":"hot","generate":{"dist":"IND","n":%d,"d":3,"seed":%d}}`, 100+i%40, i)
			resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
		}
	}()
	// Writer 2: mutation stream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			live, ok := srv.Registry().Live("hot")
			if !ok {
				continue
			}
			// Races with reloads are expected (ids vanish); only the
			// server must stay consistent, not every mutation succeed.
			_, _ = live.Apply(kspr.Insert(0.5, 0.5, 0.5))
			_ = i
		}
	}()
	// Readers: resolve snapshots, check monotone generations and
	// untorn state. Monotonicity is per reader — what the registry
	// promises. A shared high-water mark would race: a reader holding an
	// older snapshot can reach the compare after another reader has
	// recorded a newer one.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastGen uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, ok := srv.Registry().Get("hot")
				if !ok {
					continue
				}
				if snap.Generation < lastGen {
					errs <- fmt.Errorf("generation went backwards: %d after %d", snap.Generation, lastGen)
				} else {
					lastGen = snap.Generation
				}
				// Torn-snapshot check: the frozen DB must agree with
				// itself — Len matches the index, and a query on it works
				// against the exact pinned records.
				n := snap.DB.Len()
				if n == 0 {
					errs <- fmt.Errorf("empty snapshot installed")
					continue
				}
				if _, err := snap.DB.KSPR(n/2, 2); err != nil {
					errs <- fmt.Errorf("query on snapshot: %v", err)
				}
				if snap.DB.Len() != n {
					errs <- fmt.Errorf("snapshot length changed underneath: %d -> %d", n, snap.DB.Len())
				}
			}
		}()
	}

	for i := 0; i < 40; i++ {
		snap, ok := srv.Registry().Get("hot")
		if !ok {
			continue
		}
		_, _ = snap.DB.KSPR(i%snap.DB.Len(), 2)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLabelsFollowStableIDs loads a labeled dataset, mutates it, and
// checks labels stay attached to their options (not their shifting dense
// indexes), including on durable recovery.
func TestLabelsFollowStableIDs(t *testing.T) {
	dir := t.TempDir()
	csv := "label,value,service,ambiance\nentrecote,0.3,0.8,0.8\nbeirut,0.9,0.4,0.4\ncoyote,0.8,0.3,0.4\nbraceria,0.4,0.3,0.6\nkyma,0.5,0.5,0.7\n"
	csvPath := filepath.Join(dir, "r.csv")
	if err := os.WriteFile(csvPath, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	storeDir := filepath.Join(dir, "stores")
	srv, ts := newTestServer(t, Config{StoreDir: storeDir})
	if !srv.Registry().Durable() {
		t.Fatal("store-backed registry not durable")
	}
	if _, err := srv.Registry().LoadCSV("rest", csvPath); err != nil {
		t.Fatalf("LoadCSV: %v", err)
	}

	// Delete the first record and insert a labeled one.
	code, _ := postMutate(t, ts, "rest",
		`{"mutations":[{"op":"delete","id":0},{"op":"insert","values":[0.6,0.6,0.6],"label":"newcomer"}]}`)
	if code != http.StatusOK {
		t.Fatalf("mutate status %d", code)
	}
	snap, _ := srv.Registry().Get("rest")
	labels := snap.Dataset.Labels
	if len(labels) != 5 {
		t.Fatalf("labels %v", labels)
	}
	if labels[0] != "beirut" || labels[len(labels)-1] != "newcomer" {
		t.Fatalf("labels misaligned after delete+insert: %v", labels)
	}

	// Recovery keeps attributes and labels via the meta sidecar.
	srv2 := NewServer(Config{StoreDir: storeDir})
	defer srv2.Close()
	snaps, err := srv2.Registry().Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("recovered %d datasets", len(snaps))
	}
	if got := snaps[0].Dataset.Attributes; len(got) != 3 || got[0] != "value" {
		t.Fatalf("recovered attributes %v", got)
	}
	if got := snaps[0].Dataset.Labels; len(got) != 5 || got[0] != "beirut" || got[4] != "newcomer" {
		t.Fatalf("recovered labels %v", got)
	}
}
