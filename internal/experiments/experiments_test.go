package experiments

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/lp"
)

// tinyConfig keeps experiment smoke tests fast: minimal cardinalities and a
// single query per point.
func tinyConfig(buf *bytes.Buffer) Config {
	return Config{Scale: 0.01, Queries: 1, Seed: 7, Out: buf}
}

func TestAllRegistered(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Desc == "" || e.Run == nil {
			t.Fatalf("incomplete experiment entry %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"table1", "table2", "fig9", "fig10a", "fig10b", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
		"fig20", "fig22", "fig23", "fig24"} {
		if !ids[want] {
			t.Fatalf("experiment %s missing from registry", want)
		}
	}
	if _, ok := Lookup("fig9"); !ok {
		t.Fatal("Lookup(fig9) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup(nope) succeeded")
	}
}

// Every experiment must run end-to-end at tiny scale and produce output.
// The heavyweight dimensional sweeps are exercised by the selected subset
// below; the rest run in the ksprbench binary.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not short")
	}
	for _, id := range []string{"table1", "table2", "fig9", "fig10a", "fig11",
		"fig14", "fig17", "fig20", "fig23", "fig24"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, ok := Lookup(id)
			if !ok {
				t.Fatalf("experiment %s not registered", id)
			}
			var buf bytes.Buffer
			if err := e.Run(tinyConfig(&buf)); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if !strings.Contains(buf.String(), "===") {
				t.Fatalf("%s produced no banner:\n%s", id, buf.String())
			}
			if len(buf.String()) < 80 {
				t.Fatalf("%s produced suspiciously little output:\n%s", id, buf.String())
			}
		})
	}
}

// TestFocalsHonourSkybandFlag checks the focal draw every experiment
// makes: without SkybandFocals it is the seed's uniform draw, with it
// every focal is a K-skyband member.
func TestFocalsHonourSkybandFlag(t *testing.T) {
	wl, err := buildWorkload(dataset.Independent, 2000, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	const k, seed = 10, 42
	inBand := map[int]bool{}
	for _, id := range wl.tree.KSkyband(k) {
		inBand[id] = true
	}
	cfg := Config{Queries: 50}
	rng := rand.New(rand.NewSource(seed))
	outside := 0
	for i, id := range cfg.focals(wl, k, seed) {
		if want := rng.Intn(wl.ds.Len()); id != want {
			t.Fatalf("uniform focal %d is %d, want %d", i, id, want)
		}
		if !inBand[id] {
			outside++
		}
	}
	if outside == 0 {
		t.Fatal("no uniform focal lies outside the k-skyband; the check below shows nothing")
	}
	cfg.SkybandFocals = true
	focals := cfg.focals(wl, k, seed)
	if len(focals) != cfg.Queries {
		t.Fatalf("%d skyband focals, want %d", len(focals), cfg.Queries)
	}
	for _, id := range focals {
		if !inBand[id] {
			t.Fatalf("skyband focal %d is outside the %d-skyband", id, k)
		}
	}
}

func TestConfigNormalization(t *testing.T) {
	var c Config
	c.normalize()
	if c.Scale != 1 || c.Queries != 3 || c.Out == nil {
		t.Fatalf("normalize gave %+v", c)
	}
	if (Config{Scale: 0.001}).n(1000) < 10 {
		t.Fatal("n() must clamp to a usable floor")
	}
}

func TestKScaling(t *testing.T) {
	var c Config
	c.normalize()
	// Large n: the full sweep survives.
	full := c.ks(30000)
	if len(full) != len(kSweep) {
		t.Fatalf("ks(30000) = %v, want the full sweep", full)
	}
	// Tiny scale: clamped to a small k.
	small := c.ks(200)
	for _, k := range small {
		if k > 10 {
			t.Fatalf("ks(200) includes k=%d", k)
		}
	}
	if len(small) == 0 {
		t.Fatal("ks must never be empty")
	}
	if got := c.kDefault(20000); got != defaultK {
		t.Fatalf("kDefault(20000) = %d, want %d", got, defaultK)
	}
	if got := c.kDefault(200); got > 10 || got < 5 {
		t.Fatalf("kDefault(200) = %d out of clamp range", got)
	}
}

func TestSampleCells(t *testing.T) {
	cells, err := sampleCells(4, 50, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 5 {
		t.Fatalf("got %d cells, want 5", len(cells))
	}
	for i, cell := range cells {
		if len(cell.lemma2) > len(cell.full) {
			t.Fatalf("cell %d: lemma2 set (%d rows) exceeds full set (%d rows)",
				i, len(cell.lemma2), len(cell.full))
		}
		// Both sets must be feasible: they describe the same non-empty cell.
		for name, cons := range map[string][]geom.Constraint{"full": cell.full, "lemma2": cell.lemma2} {
			in, err := lp.FeasibleInterior(cons, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !in.Feasible {
				t.Fatalf("cell %d: %s constraint set infeasible", i, name)
			}
		}
	}
}

// TestRowsPrintTheirK renders fig24 at tiny scale, where kDefault clamps
// the paper's k=30 down to 5, and checks that every row prints the k it
// queried under a "k" column and that no label claims k=30.
func TestRowsPrintTheirK(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	if err := Fig24(cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "k=30") {
		t.Fatalf("fig24 labels rows k=30 at scale %g:\n%s", cfg.Scale, out)
	}
	rows := 0
	var part string
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "(a)"), strings.HasPrefix(line, "(b)"):
			part = line[:3]
			continue
		case part == "" || len(f) < 2:
			continue
		case f[0] == "n" || f[0] == "d":
			if f[1] != "k" {
				t.Fatalf("fig24 %s header has no k column: %q", part, line)
			}
			continue
		}
		x, err1 := strconv.Atoi(f[0])
		k, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil {
			t.Fatalf("fig24 %s row does not start with two integers: %q", part, line)
		}
		n := x // (a) varies n
		if part == "(b)" {
			n = cfg.n(baseN) // (b) varies d at the base cardinality
		}
		if want := cfg.kDefault(n); k != want {
			t.Fatalf("fig24 %s row %q prints k=%d, but n=%d queries k=%d", part, line, k, n, want)
		}
		rows++
	}
	if rows != 6 {
		t.Fatalf("fig24 printed %d rows, want 6:\n%s", rows, out)
	}
}
