// Command kspr answers k-Shortlist Preference Region queries from the
// terminal: load a CSV dataset (see ksprgen), pick a focal record (or a
// panel of them) and k, and print the regions as text or JSON.
//
// Example:
//
//	ksprgen -dist IND -n 5000 -d 3 -o d.csv
//	kspr -data d.csv -focal 17 -k 10 -volumes
//	kspr -data d.csv -focals 17,42,311 -k 10
//
// With -focals the panel runs as one batch (see kspr.DB.KSPRBatch): the
// focal options are scheduled across the parallelism budget and share the
// dataset's k-skyband table and LP solver pool.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	kspr "repro"
	"repro/internal/dataset"
)

func main() {
	var (
		dataPath = flag.String("data", "", "CSV dataset (required; header row, optional leading label column)")
		focal    = flag.Int("focal", 0, "focal record index")
		focals   = flag.String("focals", "", "comma-separated focal record indices: run the panel as one batch")
		k        = flag.Int("k", 10, "shortlist size")
		algo     = flag.String("algo", "lp-cta", "algorithm: cta, p-cta, lp-cta, k-skyband")
		space    = flag.String("space", "transformed", "preference space: transformed, original")
		volumes  = flag.Bool("volumes", false, "measure region volumes")
		asJSON   = flag.Bool("json", false, "emit JSON")
		svgPath  = flag.String("svg", "", "write an SVG plot of the regions (d=3 data only)")
		seed     = flag.Int64("seed", 1, "seed for volume estimation")
		par      = flag.Int("parallelism", 0, "query engine goroutines (0 = all cores, 1 = serial)")
		mutate   = flag.Int("mutate", 0, "live-dataset demo: apply this many random mutations while incrementally maintaining the -focal query")
		focalVec = flag.String("focal-vec", "", "comma-separated attribute vector: query a hypothetical record instead of -focal")
		whatif   = flag.Bool("whatif", false, "competitive what-if panel for -focal: competitor attribution, repricing search, impact-price frontier")
		explain  = flag.Bool("explain", false, "print the engine phase breakdown (wall time per phase) after the query")
		attr     = flag.Int("attr", 0, "attribute index the what-if panel reprices")
		target   = flag.Float64("target", 0.5, "target impact probability for the what-if repricing search")
		steps    = flag.Int("steps", 8, "grid size of the what-if frontier sweep")
		samples  = flag.Int("samples", 20000, "Monte-Carlo samples behind impact estimates")
	)
	flag.Parse()
	usageErr := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "kspr: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	if *dataPath == "" {
		usageErr("-data is required")
	}
	if *par < 0 {
		usageErr("-parallelism must be >= 0 (0 = all cores), got %d", *par)
	}
	if *mutate < 0 {
		usageErr("-mutate must be >= 0, got %d", *mutate)
	}
	if *whatif && *focals != "" {
		usageErr("-whatif analyzes a single -focal; it conflicts with a -focals panel")
	}
	if *explain && *whatif {
		usageErr("-explain traces a single query; it conflicts with the -whatif panel")
	}
	if *explain && *focals != "" {
		usageErr("-explain traces a single query; it conflicts with a -focals panel")
	}
	if *whatif && (*mutate > 0 || *svgPath != "" || *focalVec != "") {
		usageErr("-whatif works with a single -focal and no -mutate/-svg/-focal-vec")
	}
	if *whatif && *asJSON {
		usageErr("-whatif prints a text panel; it does not support -json yet")
	}
	if *focalVec != "" && (*focals != "" || *mutate > 0 || *svgPath != "") {
		usageErr("-focal-vec queries a hypothetical record; it conflicts with -focals/-mutate/-svg")
	}
	if *samples < 1 {
		usageErr("-samples must be >= 1, got %d", *samples)
	}
	if *steps < 2 {
		usageErr("-steps must be >= 2, got %d", *steps)
	}

	f, err := os.Open(*dataPath)
	if err != nil {
		fatal(err)
	}
	ds, err := dataset.ReadCSV(f, *dataPath)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if *k < 1 {
		fmt.Fprintf(os.Stderr, "kspr: -k must be at least 1, got %d\n", *k)
		os.Exit(2)
	}
	panel, err := parseFocals(*focals, *focal, ds.Len())
	if err != nil {
		fmt.Fprintf(os.Stderr, "kspr: %v (%s has records 0..%d)\n", err, *dataPath, ds.Len()-1)
		os.Exit(2)
	}
	db, err := kspr.Open(ds.Float64s())
	if err != nil {
		fatal(err)
	}

	var trace *kspr.Trace
	if *explain {
		trace = kspr.NewTrace()
	}
	opts := []kspr.QueryOption{kspr.WithSeed(*seed), kspr.WithParallelism(*par), kspr.WithTrace(trace)}
	switch strings.ToLower(*algo) {
	case "cta":
		opts = append(opts, kspr.WithAlgorithm(kspr.CTA))
	case "p-cta", "pcta":
		opts = append(opts, kspr.WithAlgorithm(kspr.PCTA))
	case "lp-cta", "lpcta":
		opts = append(opts, kspr.WithAlgorithm(kspr.LPCTA))
	case "k-skyband", "kskyband":
		opts = append(opts, kspr.WithAlgorithm(kspr.KSkybandCTA))
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}
	switch strings.ToLower(*space) {
	case "transformed":
	case "original":
		opts = append(opts, kspr.WithSpace(kspr.Original))
	default:
		fatal(fmt.Errorf("unknown space %q", *space))
	}
	if *volumes {
		opts = append(opts, kspr.WithVolumes(20000))
	}

	if *mutate > 0 {
		if len(panel) > 1 || *svgPath != "" {
			fmt.Fprintln(os.Stderr, "kspr: -mutate works with a single -focal and no -svg")
			os.Exit(2)
		}
		runMutateDemo(db, panel[0], *k, *mutate, *seed, opts)
		printExplain(trace, *asJSON)
		return
	}

	if *focalVec != "" {
		vec, err := parseVector(*focalVec, db.Dim())
		if err != nil {
			usageErr("%v", err)
		}
		res, err := db.KSPRVector(vec, *k, opts...)
		if err != nil {
			fatal(err)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				fatal(err)
			}
			printExplain(trace, true)
			return
		}
		fmt.Printf("kSPR for hypothetical record %.4f, k=%d, %d records, d=%d\n",
			vec, *k, db.Len(), db.Dim())
		printRegions(res, *volumes)
		printExplain(trace, false)
		return
	}

	if *whatif {
		runWhatIf(db, ds, panel[0], *k, *attr, *target, *steps, *samples, *seed, opts)
		return
	}

	if len(panel) > 1 {
		if *svgPath != "" {
			fmt.Fprintln(os.Stderr, "kspr: -svg works with a single -focal, not a -focals panel")
			os.Exit(2)
		}
		runPanel(db, ds, panel, *k, opts, *asJSON, *volumes)
		return
	}

	res, err := db.KSPR(panel[0], *k, opts...)
	if err != nil {
		fatal(err)
	}

	if *svgPath != "" {
		f, err := os.Create(*svgPath)
		if err != nil {
			fatal(err)
		}
		title := fmt.Sprintf("kSPR regions, focal %d, k=%d", *focal, *k)
		xl, yl := "w1", "w2"
		if len(ds.Attributes) >= 2 {
			xl, yl = ds.Attributes[0], ds.Attributes[1]
		}
		err = kspr.WriteSVG(f, res, kspr.SVGOptions{Title: title, XLabel: xl, YLabel: yl})
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "kspr: wrote %s\n", *svgPath)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		printExplain(trace, true)
		return
	}

	name := fmt.Sprintf("record %d", *focal)
	if len(ds.Labels) > *focal {
		name = fmt.Sprintf("%s (record %d)", ds.Labels[*focal], *focal)
	}
	fmt.Printf("kSPR for %s, k=%d, %d records, d=%d\n", name, *k, db.Len(), db.Dim())
	fmt.Printf("focal attributes: %.4f\n", db.Record(*focal))
	printRegions(res, *volumes)
	if *volumes {
		fmt.Printf("impact probability (uniform preferences): %.4f\n", db.ImpactProbability(res, 100000, *seed))
	}
	printExplain(trace, false)
}

// printExplain renders the -explain phase table: wall time, share and hit
// count per engine phase, in execution order. With -json the table goes to
// stderr so it never corrupts the JSON document on stdout.
func printExplain(trace *kspr.Trace, toStderr bool) {
	if trace == nil {
		return
	}
	out := os.Stdout
	if toStderr {
		out = os.Stderr
	}
	phases := trace.Phases()
	total := trace.TotalNs()
	fmt.Fprintf(out, "\nengine phase breakdown:\n")
	fmt.Fprintf(out, "  %-12s %12s %7s %7s\n", "phase", "time", "share", "count")
	for _, p := range phases {
		share := 0.0
		if total > 0 {
			share = 100 * float64(p.Ns) / float64(total)
		}
		fmt.Fprintf(out, "  %-12s %12v %6.1f%% %7d\n", p.Name, p.Duration().Round(time.Microsecond), share, p.Count)
	}
	fmt.Fprintf(out, "  %-12s %12v\n", "total", time.Duration(total).Round(time.Microsecond))
}

// printRegions renders a result's regions as text.
func printRegions(res *kspr.Result, volumes bool) {
	fmt.Printf("%d regions; stats: processed=%d nodes=%d batches=%d baseRank=%d elapsed=%v\n",
		len(res.Regions), res.Stats.ProcessedRecords, res.Stats.CellTreeNodes,
		res.Stats.Batches, res.Stats.BaseRank, res.Stats.Elapsed)
	for i, reg := range res.Regions {
		fmt.Printf("region %d: rank=%d exact=%v witness=%.4f", i, reg.Rank, reg.RankExact, reg.Witness)
		if volumes {
			fmt.Printf(" volume=%.6f", reg.Volume)
		}
		if len(reg.Outscorers) > 0 {
			fmt.Printf(" outscored-by=%v", reg.Outscorers)
		}
		fmt.Println()
		for _, v := range reg.Vertices {
			fmt.Printf("    vertex %.4f\n", v)
		}
	}
}

// parseVector parses a comma-separated attribute vector and validates its
// dimensionality against the dataset.
func parseVector(spec string, dim int) ([]float64, error) {
	parts := strings.Split(spec, ",")
	vec := make([]float64, 0, len(parts))
	for _, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("invalid -focal-vec entry %q", p)
		}
		vec = append(vec, f)
	}
	if len(vec) != dim {
		return nil, fmt.Errorf("-focal-vec has %d attributes, dataset has %d", len(vec), dim)
	}
	return vec, nil
}

// recordName labels a record for panel output.
func recordName(ds *dataset.Dataset, id int) string {
	if id >= 0 && id < len(ds.Labels) && ds.Labels[id] != "" {
		return fmt.Sprintf("%s (record %d)", ds.Labels[id], id)
	}
	return fmt.Sprintf("record %d", id)
}

// runWhatIf prints the competitive what-if panel for one focal option:
// who takes its preference space, the cheapest reprice reaching the
// target impact, and the impact-price frontier over the swept attribute.
func runWhatIf(db *kspr.DB, ds *dataset.Dataset, focal, k, attr int, target float64,
	steps, samples int, seed int64, opts []kspr.QueryOption) {
	fmt.Printf("what-if panel for %s, k=%d, %d records, d=%d\n",
		recordName(ds, focal), k, db.Len(), db.Dim())
	fmt.Printf("focal attributes: %.4f\n\n", db.Record(focal))

	attrib, err := db.Competitors(focal, k, samples, seed, opts...)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("impact probability: %.4f (misses top-%d on %.4f of preference space)\n",
		attrib.Impact, k, attrib.Miss)
	if len(attrib.Competitors) > 0 {
		fmt.Println("top competitors (miss share = space they take, pressure = outranking inside your regions):")
		limit := len(attrib.Competitors)
		if limit > 8 {
			limit = 8
		}
		for _, c := range attrib.Competitors[:limit] {
			fmt.Printf("  %-32s miss=%.4f pressure=%.4f\n", recordName(ds, c.ID), c.MissShare, c.PressureShare)
		}
	}

	fmt.Printf("\nrepricing attribute %d to reach impact %.2f:\n", attr, target)
	rp, err := db.PriceToTarget(focal, k, kspr.RepriceSpec{
		Attr: attr, Target: target, Samples: samples, Seed: seed,
	}, opts...)
	switch {
	case err != nil && errors.Is(err, kspr.ErrTargetUnreachable):
		fmt.Printf("  unreachable: best achieved impact %.4f at delta %g\n", rp.Impact, rp.Delta)
	case err != nil:
		fatal(err)
	case rp.AlreadyMet:
		fmt.Printf("  already met: baseline impact %.4f >= target\n", rp.Baseline)
	default:
		fmt.Printf("  minimal change: %+.4f (value %.4f -> %.4f), impact %.4f -> %.4f\n",
			rp.Delta, rp.Value-rp.Delta, rp.Value, rp.Baseline, rp.Impact)
		fmt.Printf("  probes: %d (%d kept by the dominator count, keep rate %.0f%%)\n",
			rp.Stats.Probes, rp.Stats.Kept, 100*rp.Stats.KeepRate)
	}

	fmt.Printf("\nimpact-price frontier over attribute %d (%d points):\n", attr, steps)
	curve, err := db.Frontier(focal, k, kspr.FrontierSpec{
		Attr: attr, Steps: steps, Samples: samples, Seed: seed,
	}, opts...)
	if err != nil {
		fatal(err)
	}
	for _, p := range curve.Points {
		marker := ""
		if p.Kept {
			marker = "  (dominated out: no cell tree built)"
		}
		fmt.Printf("  value %8.4f  delta %+8.4f  impact %.4f  regions %3d%s\n",
			p.Value, p.Delta, p.Impact, p.Regions, marker)
	}
	fmt.Printf("  probes: %d, kept %d (keep rate %.0f%%), avg %.2fms/probe\n",
		curve.Stats.Probes, curve.Stats.Kept, 100*curve.Stats.KeepRate,
		float64(curve.Stats.ProbeNs)/1e6)
}

// parseFocals resolves the -focal / -focals flags into the panel of focal
// record indices, validating every index against the dataset size.
func parseFocals(spec string, focal, n int) ([]int, error) {
	if spec == "" {
		if focal < 0 || focal >= n {
			return nil, fmt.Errorf("-focal %d is out of range", focal)
		}
		return []int{focal}, nil
	}
	parts := strings.Split(spec, ",")
	panel := make([]int, 0, len(parts))
	for _, p := range parts {
		id, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("invalid -focals entry %q", p)
		}
		if id < 0 || id >= n {
			return nil, fmt.Errorf("-focals entry %d is out of range", id)
		}
		panel = append(panel, id)
	}
	return panel, nil
}

// panelItem is the JSON shape of one -focals batch answer.
type panelItem struct {
	Focal  int          `json:"focal"`
	Error  string       `json:"error,omitempty"`
	Result *kspr.Result `json:"result,omitempty"`
}

// runPanel answers the -focals panel as one KSPRBatch call and prints a
// per-focal summary (or the full JSON results).
func runPanel(db *kspr.DB, ds *dataset.Dataset, panel []int, k int, opts []kspr.QueryOption, asJSON, volumes bool) {
	queries := make([]kspr.BatchQuery, len(panel))
	for i, id := range panel {
		queries[i] = kspr.BatchQuery{FocalID: id}
	}
	outs, err := db.KSPRBatch(queries, k, kspr.WithBatchOptions(opts...))
	if err != nil {
		fatal(err)
	}
	failed := 0
	if asJSON {
		items := make([]panelItem, len(outs))
		for i, o := range outs {
			items[i] = panelItem{Focal: panel[i], Result: o.Result}
			if o.Err != nil {
				items[i].Error = o.Err.Error()
				failed++
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(items); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("kSPR batch over %d focals, k=%d, %d records, d=%d\n",
			len(panel), k, db.Len(), db.Dim())
		for i, o := range outs {
			name := fmt.Sprintf("record %d", panel[i])
			if len(ds.Labels) > panel[i] {
				name = fmt.Sprintf("%s (record %d)", ds.Labels[panel[i]], panel[i])
			}
			if o.Err != nil {
				fmt.Printf("%-32s error: %v\n", name, o.Err)
				failed++
				continue
			}
			line := fmt.Sprintf("%-32s %3d regions  processed=%d elapsed=%v",
				name, len(o.Result.Regions), o.Result.Stats.ProcessedRecords, o.Result.Stats.Elapsed)
			if volumes {
				line += fmt.Sprintf("  impact=%.4f", o.Result.TotalVolume())
			}
			fmt.Println(line)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// runMutateDemo exercises the live-dataset subsystem from the terminal:
// it maintains the focal's kSPR result incrementally while a stream of
// random mutations (dominated-interior inserts, skyline-ish inserts,
// repricings, deletions) churns the dataset, printing per-step decisions
// and verifying the final maintained result against a cold recompute.
func runMutateDemo(db *kspr.DB, focal, k, steps int, seed int64, opts []kspr.QueryOption) {
	lq, err := db.MaintainKSPR(focal, k, opts...)
	if err != nil {
		fatal(err)
	}
	defer lq.Close()
	focalStable, _ := db.StableID(focal)
	res, gen, _ := lq.Result()
	fmt.Printf("maintaining kSPR for record %d (option id %d), k=%d: %d regions at generation %d\n",
		focal, focalStable, k, len(res.Regions), gen)

	rng := rand.New(rand.NewSource(seed))
	d := db.Dim()
	randVec := func(lo, hi float64) []float64 {
		v := make([]float64, d)
		for j := range v {
			v[j] = lo + (hi-lo)*rng.Float64()
		}
		return v
	}
	// pickVictim draws a random option that is not the focal (dense
	// indexes shift across mutations, so resolve by stable id each time).
	pickVictim := func() (int64, bool) {
		if db.Len() < 2 {
			return 0, false
		}
		for {
			id, _ := db.StableID(rng.Intn(db.Len()))
			if id != focalStable {
				return id, true
			}
		}
	}
	prev := lq.Stats()
	for i := 0; i < steps; i++ {
		var (
			desc string
			err  error
		)
		switch i % 4 {
		case 0:
			desc = "insert interior"
			_, err = db.Apply(kspr.Insert(randVec(0.02, 0.25)...))
		case 1:
			desc = "insert skyline-ish"
			_, err = db.Apply(kspr.Insert(randVec(0.8, 1)...))
		case 2:
			desc = "reprice random"
			if id, ok := pickVictim(); ok {
				_, err = db.Apply(kspr.Update(id, randVec(0, 1)...))
			}
		default:
			desc = "delete random"
			if id, ok := pickVictim(); ok {
				_, err = db.Apply(kspr.Delete(id))
			}
		}
		if err != nil {
			fatal(err)
		}
		st := lq.Stats()
		decision := "kept"
		if st.Recomputed > prev.Recomputed {
			decision = "recomputed"
		}
		prev = st
		res, gen, err := lq.Result()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("gen %3d  %-20s %-10s %3d regions\n", gen, desc, decision, len(res.Regions))
	}

	st := lq.Stats()
	fmt.Printf("\n%d mutations: %d kept (%.0f%%), %d recomputed\n",
		steps, st.Kept, 100*float64(st.Kept)/float64(steps), st.Recomputed)

	// Verify: the maintained result must equal a cold query right now.
	res, gen, err = lq.Result()
	if err != nil {
		fatal(err)
	}
	dense, ok := db.DenseIndex(focalStable)
	if !ok {
		fatal(fmt.Errorf("focal option vanished"))
	}
	cold, err := db.KSPR(dense, k, opts...)
	if err != nil {
		fatal(err)
	}
	if len(cold.Regions) != len(res.Regions) {
		fatal(fmt.Errorf("maintained result (%d regions) diverged from cold recompute (%d regions)",
			len(res.Regions), len(cold.Regions)))
	}
	fmt.Printf("verified against cold recompute at generation %d: %d regions match\n", gen, len(cold.Regions))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kspr:", err)
	os.Exit(1)
}
