package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataset"
)

// Fig9 reruns the §7.2 case study: the kSPR regions (k=3) of the simulated
// star center over points/rebounds/assists in two seasons. The paper's
// claim to reproduce: season 1 regions sit at high points-weight, season 2
// regions at high rebounds-weight.
func Fig9(cfg Config) error {
	cfg.normalize()
	w := cfg.Out
	header(w, "fig9", "kSPR regions of the focal center (NBA sim, k=3)")
	for season := 1; season <= 2; season++ {
		ds := dataset.NBA(cfg.n(500), season, 2015)
		sub := &dataset.Dataset{Name: ds.Name, Attributes: []string{"points", "rebounds", "assists"}}
		for _, r := range ds.Records {
			sub.Records = append(sub.Records, []float64{r[7], r[1], r[2]})
		}
		wl, err := indexDataset(sub)
		if err != nil {
			return err
		}
		res, err := core.Run(wl.tree, sub.Records[0], 0, core.Options{
			K: 3, Algorithm: core.LPCTA, FinalizeGeometry: true,
			ComputeVolumes: true, VolumeSamples: 20000, Seed: cfg.Seed,
		})
		if err != nil {
			return err
		}
		var cw1, cw2, vol float64
		for _, reg := range res.Regions {
			cw1 += reg.Witness[0] * reg.Volume
			cw2 += reg.Witness[1] * reg.Volume
			vol += reg.Volume
		}
		if vol > 0 {
			cw1 /= vol
			cw2 /= vol
		}
		fmt.Fprintf(w, "season %d: %d regions, total area %.4f, mass centre (w1=points %.2f, w2=rebounds %.2f)\n",
			season, len(res.Regions), vol, cw1, cw2)
		for i, reg := range res.Regions {
			if i >= 4 {
				fmt.Fprintf(w, "  ... %d more regions\n", len(res.Regions)-4)
				break
			}
			fmt.Fprintf(w, "  region rank=%d witness=(%.3f, %.3f) area=%.4f\n",
				reg.Rank, reg.Witness[0], reg.Witness[1], reg.Volume)
		}
	}
	return nil
}

// Fig10a compares LP-CTA with RTOPK on 2-dimensional IND data, varying k
// (paper: LP-CTA an order of magnitude faster).
func Fig10a(cfg Config) error {
	cfg.normalize()
	w := cfg.Out
	header(w, "fig10a", "LP-CTA vs RTOPK (IND, d=2)")
	wl, err := buildWorkload(dataset.Independent, cfg.n(baseN), 2, cfg.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%4s %14s %14s %18s %18s\n", "k", "LP-CTA (s)", "RTOPK (s)", "LP-CTA records", "RTOPK records")
	for _, k := range cfg.ks(wl.ds.Len()) {
		focals := cfg.focals(wl, k, cfg.Seed+int64(k))
		lp, err := wl.measure(focals, core.Options{K: k, Algorithm: core.LPCTA, FinalizeGeometry: true})
		if err != nil {
			return err
		}
		var rtTime time.Duration
		var rtRecords float64
		for _, id := range focals {
			start := time.Now()
			res, err := baseline.RTopK(wl.ds.Records, wl.ds.Records[id], id, k)
			if err != nil {
				return err
			}
			rtTime += time.Since(start)
			rtRecords += float64(res.Stats.ProcessedRecords)
		}
		rtTime /= time.Duration(len(focals))
		rtRecords /= float64(len(focals))
		fmt.Fprintf(w, "%4d %14s %14s %18.1f %18.1f\n",
			k, seconds(lp.Elapsed), seconds(rtTime/time.Duration(1)), lp.Processed, rtRecords)
	}
	return nil
}

// Fig10b compares CTA, P-CTA, LP-CTA and iMaxRank on IND d=4 data, varying
// k. iMaxRank runs on a reduced cardinality and only for small k — exactly
// the "fails to terminate" behaviour the paper reports; rows where it is
// skipped print DNF.
func Fig10b(cfg Config) error {
	cfg.normalize()
	w := cfg.Out
	header(w, "fig10b", "CTA vs P-CTA vs LP-CTA vs iMaxRank (IND, d=4)")
	wl, err := buildWorkload(dataset.Independent, cfg.n(baseN), defaultD, cfg.Seed)
	if err != nil {
		return err
	}
	// iMaxRank gets its own (much smaller) instance, like the paper's
	// "small kSPR instances"; beyond k=30 it is DNF.
	imN := cfg.n(baseN) / 10
	imWL, err := buildWorkload(dataset.Independent, imN, defaultD, cfg.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%4s %12s %12s %12s %16s\n", "k", "CTA (s)", "P-CTA (s)", "LP-CTA (s)", "iMaxRank (s)")
	for _, k := range cfg.ks(wl.ds.Len()) {
		focals := cfg.focals(wl, k, cfg.Seed+int64(k))
		row := fmt.Sprintf("%4d", k)
		for _, algo := range []core.Algorithm{core.CTA, core.PCTA, core.LPCTA} {
			if algo == core.CTA && k > 50 {
				// The paper reports CTA exceeding 2 hours beyond k=50.
				row += fmt.Sprintf(" %12s", "DNF")
				continue
			}
			m, err := wl.measure(focals, core.Options{K: k, Algorithm: algo, FinalizeGeometry: true})
			if err != nil {
				return err
			}
			row += fmt.Sprintf(" %12s", seconds(m.Elapsed))
		}
		if k <= 30 {
			imFocals := cfg.focals(imWL, k, cfg.Seed+int64(k))
			var imTime time.Duration
			for _, id := range imFocals {
				start := time.Now()
				if _, err := baseline.IMaxRank(imWL.ds.Records, imWL.ds.Records[id], id, k,
					baseline.DefaultIMaxRankOptions()); err != nil {
					return err
				}
				imTime += time.Since(start)
			}
			imTime /= time.Duration(len(imFocals))
			row += fmt.Sprintf(" %13s@n/10", seconds(imTime))
		} else {
			row += fmt.Sprintf(" %16s", "DNF")
		}
		fmt.Fprintln(w, row)
	}
	return nil
}

// Fig11 reports the side metrics of Fig. 10b's run: processed records
// (=inserted hyperplanes) and CellTree nodes at termination.
func Fig11(cfg Config) error {
	cfg.normalize()
	w := cfg.Out
	header(w, "fig11", "processed records / CellTree nodes (IND, d=4)")
	wl, err := buildWorkload(dataset.Independent, cfg.n(baseN), defaultD, cfg.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%4s | %10s %10s %10s | %10s %10s %10s\n",
		"k", "CTA recs", "P-CTA recs", "LP-CTA recs", "CTA nodes", "P-CTA nodes", "LP-CTA nodes")
	for _, k := range cfg.ks(wl.ds.Len()) {
		focals := cfg.focals(wl, k, cfg.Seed+int64(k))
		var recs, nodes [3]float64
		for i, algo := range []core.Algorithm{core.CTA, core.PCTA, core.LPCTA} {
			if algo == core.CTA && k > 50 {
				recs[i], nodes[i] = -1, -1 // DNF, as in the paper
				continue
			}
			m, err := wl.measure(focals, core.Options{K: k, Algorithm: algo, FinalizeGeometry: false})
			if err != nil {
				return err
			}
			recs[i], nodes[i] = m.Processed, m.Nodes
		}
		fmt.Fprintf(w, "%4d | %10.1f %10.1f %10.1f | %10.1f %10.1f %10.1f\n",
			k, recs[0], recs[1], recs[2], nodes[0], nodes[1], nodes[2])
	}
	fmt.Fprintln(w, "(-1 marks DNF rows: the paper reports CTA exceeding 2 hours beyond k=50)")
	return nil
}

// Fig12 varies the dataset cardinality (paper: 100K..10M; here scaled) and
// reports response time and space consumption (CellTree-dominated, which we
// report as node count and estimated MB).
func Fig12(cfg Config) error {
	cfg.normalize()
	w := cfg.Out
	header(w, "fig12", "effect of cardinality (IND, d=4, k=30)")
	// Paper axis 100K..10M around the 1M default; ours scales around baseN.
	baseCards := []int{baseN / 10, baseN / 2, baseN, baseN * 2, baseN * 5}
	kEff := cfg.kDefault(cfg.n(baseCards[0])) // one k across the sweep
	fmt.Fprintf(w, "(k=%d) ", kEff)
	fmt.Fprintf(w, "%9s | %12s %12s %12s | %14s %14s %14s\n",
		"n", "CTA (s)", "P-CTA (s)", "LP-CTA (s)", "CTA MB", "P-CTA MB", "LP-CTA MB")
	for _, bn := range baseCards {
		n := cfg.n(bn)
		wl, err := buildWorkload(dataset.Independent, n, defaultD, cfg.Seed)
		if err != nil {
			return err
		}
		focals := cfg.focals(wl, kEff, cfg.Seed+int64(n))
		var times [3]time.Duration
		var mem [3]float64
		for i, algo := range []core.Algorithm{core.CTA, core.PCTA, core.LPCTA} {
			m, err := wl.measure(focals, core.Options{K: kEff, Algorithm: algo, FinalizeGeometry: false})
			if err != nil {
				return err
			}
			times[i] = m.Elapsed
			mem[i] = m.Nodes * approxNodeBytes / (1 << 20)
		}
		fmt.Fprintf(w, "%9d | %12s %12s %12s | %14.3f %14.3f %14.3f\n",
			n, seconds(times[0]), seconds(times[1]), seconds(times[2]), mem[0], mem[1], mem[2])
	}
	return nil
}

// approxNodeBytes estimates the in-memory footprint of one CellTree node
// (struct, label, average cover-set share) for the space plot.
const approxNodeBytes = 256

// Fig13 varies the dimensionality from 2 to 7 and reports the response
// time of P-CTA and LP-CTA plus the kSPR result size.
func Fig13(cfg Config) error {
	cfg.normalize()
	w := cfg.Out
	header(w, "fig13", "effect of dimensionality (IND, k=30)")
	fmt.Fprintf(w, "%2s %8s %4s %14s %14s %14s\n", "d", "n", "k", "P-CTA (s)", "LP-CTA (s)", "result size")
	for _, d := range []int{2, 3, 4, 5, 6} {
		// High dimensionalities blow up the arrangement; shrink the
		// workload with d to keep the sweep tractable (documented in
		// EXPERIMENTS.md; the paper's C++ testbed faced the same trend).
		bn := baseN
		for dd := 5; dd <= d; dd++ {
			bn /= 4
		}
		wl, err := buildWorkload(dataset.Independent, cfg.n(bn), d, cfg.Seed)
		if err != nil {
			return err
		}
		kEff := cfg.kDefault(wl.ds.Len())
		focals := cfg.focals(wl, kEff, cfg.Seed+int64(d))
		p, err := wl.measure(focals, core.Options{K: kEff, Algorithm: core.PCTA, FinalizeGeometry: false})
		if err != nil {
			return err
		}
		l, err := wl.measure(focals, core.Options{K: kEff, Algorithm: core.LPCTA, FinalizeGeometry: false})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%2d %8d %4d %14s %14s %14.2f\n", d, wl.ds.Len(), kEff, seconds(p.Elapsed), seconds(l.Elapsed), l.Regions)
	}
	fmt.Fprintln(w, " 7      DNF: 6-d arrangements are impractical for this substrate at any useful n (see EXPERIMENTS.md)")
	return nil
}

// Fig14 studies the data distribution: LP-CTA response time and result size
// for IND, COR, ANTI while varying k (paper: COR fastest, ANTI slowest).
func Fig14(cfg Config) error {
	cfg.normalize()
	w := cfg.Out
	header(w, "fig14", "effect of distribution (LP-CTA, d=4)")
	dists := []dataset.Distribution{dataset.Anticorrelated, dataset.Independent, dataset.Correlated}
	fmt.Fprintf(w, "%4s |", "k")
	for _, dist := range dists {
		fmt.Fprintf(w, " %10s(s) %10s(sz) |", dist, dist)
	}
	fmt.Fprintln(w)
	wls := map[dataset.Distribution]*workload{}
	for _, dist := range dists {
		wl, err := buildWorkload(dist, cfg.n(baseN), defaultD, cfg.Seed)
		if err != nil {
			return err
		}
		wls[dist] = wl
	}
	for _, k := range cfg.ks(cfg.n(baseN)) {
		fmt.Fprintf(w, "%4d |", k)
		for _, dist := range dists {
			wl := wls[dist]
			focals := cfg.focals(wl, k, cfg.Seed+int64(k))
			m, err := wl.measure(focals, core.Options{K: k, Algorithm: core.LPCTA, FinalizeGeometry: false})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %13s %13.1f |", seconds(m.Elapsed), m.Regions)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig15 runs P-CTA and LP-CTA on the simulated real datasets, varying k,
// and reports times plus result sizes.
func Fig15(cfg Config) error {
	cfg.normalize()
	w := cfg.Out
	header(w, "fig15", "real datasets (simulated): P-CTA vs LP-CTA")
	sets := []*dataset.Dataset{
		dataset.Hotel(cfg.n(41884), cfg.Seed),
		dataset.House(cfg.n(31526), cfg.Seed),
		dataset.NBA(cfg.n(2196), 1, cfg.Seed),
	}
	for _, ds := range sets {
		wl, err := indexDataset(ds)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s (n=%d, d=%d)\n", ds.Name, ds.Len(), ds.Dim())
		fmt.Fprintf(w, "  %4s %14s %14s %14s\n", "k", "P-CTA (s)", "LP-CTA (s)", "result size")
		for _, k := range cfg.ks(ds.Len()) {
			focals := cfg.focals(wl, k, cfg.Seed+int64(k))
			p, err := wl.measure(focals, core.Options{K: k, Algorithm: core.PCTA, FinalizeGeometry: false})
			if err != nil {
				return err
			}
			l, err := wl.measure(focals, core.Options{K: k, Algorithm: core.LPCTA, FinalizeGeometry: false})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %4d %14s %14s %14.1f\n", k, seconds(p.Elapsed), seconds(l.Elapsed), l.Regions)
		}
	}
	return nil
}
