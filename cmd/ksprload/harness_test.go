package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestParseMix(t *testing.T) {
	mix, err := parseMix("kspr=60,batch=15,mutate=15,whatif=10")
	if err != nil {
		t.Fatal(err)
	}
	if mix[classKSPR] != 60 || mix[classBatch] != 15 || mix[classMutate] != 15 || mix[classWhatIf] != 10 {
		t.Fatalf("weights wrong: %v", mix)
	}
	if mix, err := parseMix(" kspr=1 , batch=0 "); err != nil || mix[classKSPR] != 1 {
		t.Fatalf("whitespace/zero-weight form rejected: %v %v", mix, err)
	}
	for _, bad := range []string{"", "kspr", "kspr=x", "kspr=-1", "topk=5", "kspr=0,batch=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Fatalf("parseMix(%q) accepted", bad)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig("validate")
	if err := good.validate(); err != nil {
		t.Fatalf("baseline config rejected: %v", err)
	}
	breakers := []struct {
		name    string
		breakIt func(*config)
	}{
		{"duration", func(c *config) { c.duration = 0 }},
		{"conc", func(c *config) { c.conc = 0 }},
		{"rate", func(c *config) { c.rate = -1 }},
		{"datasets", func(c *config) { c.datasets = 0 }},
		{"n", func(c *config) { c.n = 5 }},
		{"zipf", func(c *config) { c.zipfS = 1.0 }},
		{"verify-sample", func(c *config) { c.verifySample = 1.5 }},
		{"par-prob", func(c *config) { c.parProb = -0.1 }},
		{"batch-range", func(c *config) { c.batchMin = 5; c.batchMax = 2 }},
		{"max-error-rate", func(c *config) { c.maxErrorRate = 2 }},
		{"mix", func(c *config) { c.mixSpec = "nope" }},
	}
	for _, b := range breakers {
		c := testConfig("validate")
		b.breakIt(c)
		if err := c.validate(); err == nil {
			t.Fatalf("%s: invalid config accepted", b.name)
		}
	}
}

func TestDigest(t *testing.T) {
	if d := digest(nil); d.Count != 0 || d.P99Ns != 0 {
		t.Fatalf("empty digest non-zero: %+v", d)
	}
	// Unsorted on purpose: digest must sort a copy.
	in := []int64{30, 10, 20}
	d := digest(in)
	if d.Count != 3 || d.MeanNs != 20 || d.P50Ns != 20 || d.P99Ns != 30 {
		t.Fatalf("digest wrong: %+v", d)
	}
	if in[0] != 30 {
		t.Fatal("digest mutated its input")
	}
}

func TestVerifierGenerationFloor(t *testing.T) {
	v := newVerifier()
	d := &dsState{name: "ds"}
	d.gen.Store(3)

	v.checkGeneration(d, 3, 5, classKSPR) // advance: fine, raises floor
	v.checkGeneration(d, 5, 5, classKSPR) // equal: fine
	if got := v.summary(); got.Violations != 0 || got.GenerationChecks != 2 {
		t.Fatalf("clean sequence flagged: %+v", got)
	}
	v.checkGeneration(d, 5, 4, classBatch) // regression: violation
	got := v.summary()
	if got.Violations != 1 || len(got.Examples) != 1 {
		t.Fatalf("stale generation not flagged: %+v", got)
	}
	if d.gen.Load() != 5 {
		t.Fatalf("violating response raised the floor to %d", d.gen.Load())
	}
}

func TestVerifierCheck429(t *testing.T) {
	okBody := []byte(`{"error":"server: cpu budget exhausted, retry later"}`)
	cases := []struct {
		name       string
		slots      int
		par        int
		retryAfter string
		body       []byte
		violations uint64
	}{
		{"honest", 1, 2, "1", okBody, 0},
		{"zero-budget", 0, 2, "1", okBody, 1},
		{"serial-ask", 1, 1, "1", okBody, 1},
		{"retry-after-garbage", 1, 2, "soon", okBody, 1},
		{"retry-after-huge", 1, 2, "3600", okBody, 1},
		{"partial-stream", 1, 2, "1", []byte(`{"index":0,"result":{}}` + "\n" + `{"error":"x"}`), 1},
		{"empty-body", 1, 2, "1", nil, 1},
	}
	for _, c := range cases {
		v := newVerifier()
		v.budgetSlots = c.slots
		v.check429(classBatch, c.par, c.retryAfter, c.body)
		if got := v.summary(); got.Violations != c.violations {
			t.Fatalf("%s: %d violations, want %d (%v)", c.name, got.Violations, c.violations, got.Examples)
		}
	}
}

func TestVerifierExampleCap(t *testing.T) {
	v := newVerifier()
	for i := 0; i < 20; i++ {
		v.violate("violation %d", i)
	}
	got := v.summary()
	if got.Violations != 20 {
		t.Fatalf("count capped: %d", got.Violations)
	}
	if len(got.Examples) != 8 {
		t.Fatalf("examples not capped at 8: %d", len(got.Examples))
	}
}

func TestJSONEqual(t *testing.T) {
	a := json.RawMessage(`[{"rank": 3, "volume": 0.5}]`)
	b := json.RawMessage("[ {\"rank\":3,\n\"volume\":0.5} ]")
	if !jsonEqual(a, b) {
		t.Fatal("whitespace-different JSON compared unequal")
	}
	if jsonEqual(a, json.RawMessage(`[{"rank":4,"volume":0.5}]`)) {
		t.Fatal("different JSON compared equal")
	}
	if jsonEqual(json.RawMessage(`{`), json.RawMessage(`{`)) {
		t.Fatal("malformed JSON compared equal")
	}
}

func TestCollectorRecord(t *testing.T) {
	c := newCollector()
	c.record(classKSPR, 10*time.Millisecond, nil)
	c.record(classKSPR, 20*time.Millisecond, errors.New("boom"))
	c.record(classBatch, 5*time.Millisecond, err429)
	if len(c.lat[classKSPR]) != 2 || len(c.lat[classBatch]) != 1 {
		t.Fatalf("latency samples wrong: %v", c.lat)
	}
	if c.errs[classKSPR] != 1 || c.errs[classBatch] != 0 {
		t.Fatalf("errors wrong: %v", c.errs)
	}
	if c.n429[classBatch] != 1 {
		t.Fatalf("429s wrong: %v", c.n429)
	}
	if ex := c.errExamples(); len(ex) != 1 || ex[0] != "boom" {
		t.Fatalf("examples wrong: %v", ex)
	}
}

// testConfig mirrors the flag defaults at a test-friendly scale.
func testConfig(name string) *config {
	return &config{
		duration:      400 * time.Millisecond,
		conc:          4,
		mixSpec:       "kspr=60,batch=15,mutate=15,whatif=10",
		datasets:      2,
		n:             60,
		d:             3,
		k:             4,
		zipfS:         1.2,
		seed:          1,
		verifySample:  0.5,
		parProb:       0.5,
		batchMin:      2,
		batchMax:      4,
		name:          name,
		serverWorkers: 2,
		serverQueue:   64,
		serverSlots:   1,
	}
}

// TestRunEndToEnd drives the entire harness — self-hosted serving stack,
// mixed traffic, the invariant verifier, and the summary file — at a
// sub-second duration. It is the same path `make load` takes, shrunk.
func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up a serving stack and drives timed load")
	}
	t.Chdir(t.TempDir())
	cfg := testConfig("loadtest")
	cfg.injectErrors = 2
	cfg.checkFlight = true
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	if err := run(cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	raw, err := os.ReadFile("BENCH_loadtest.json")
	if err != nil {
		t.Fatalf("summary file: %v", err)
	}
	var sum loadSummary
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatalf("summary does not parse: %v", err)
	}
	if sum.Requests == 0 || sum.Throughput <= 0 {
		t.Fatalf("no traffic recorded: %+v", sum)
	}
	if sum.Verify.Violations != 0 {
		t.Fatalf("verifier flagged violations: %v", sum.Verify.Examples)
	}
	if sum.Verify.GenerationChecks == 0 {
		t.Fatal("no generation checks ran; the verifier was idle")
	}
	if sum.Latency["all"].Count != sum.Requests {
		t.Fatalf("all-class latency count %d != requests %d", sum.Latency["all"].Count, sum.Requests)
	}
	if _, err := os.Stat(filepath.Join(".", "BENCH_loadtest.json")); err != nil {
		t.Fatal(err)
	}
}

// TestRunUnreachableTarget: pointing the harness at a dead address must
// fail fast during dataset load, before any summary is written.
func TestRunUnreachableTarget(t *testing.T) {
	t.Chdir(t.TempDir())
	cfg := testConfig("dead")
	cfg.addr = "http://127.0.0.1:1"
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	if err := run(cfg); err == nil {
		t.Fatal("run against a dead address succeeded")
	}
	if _, err := os.Stat("BENCH_dead.json"); !os.IsNotExist(err) {
		t.Fatalf("summary written for a run that never drove traffic: %v", err)
	}
}
