package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/diskio"
	"repro/internal/rtree"
)

// measureDisk runs a configuration with the simulated disk manager attached
// (Appendix A): every R-tree page visit goes through an LRU buffer pool and
// cold reads are charged the paper's 0.2 ms.
func (w *workload) measureDisk(focals []int, opts core.Options) (cpu, io time.Duration, err error) {
	mgr := diskio.New(diskio.DefaultBufferPages, diskio.DefaultPageLatency)
	w.tree.SetTracker(mgr)
	defer w.tree.SetTracker(nil)
	for _, id := range focals {
		mgr.Reset()
		res, err := core.Run(w.tree, w.ds.Records[id], id, opts)
		if err != nil {
			return 0, 0, err
		}
		cpu += res.Stats.Elapsed
		io += mgr.IOTime()
	}
	q := time.Duration(len(focals))
	return cpu / q, io / q, nil
}

// Fig19 reproduces the disk-based scenario: total response time split into
// CPU and I/O for P-CTA and LP-CTA across k, n, d, and the real-dataset
// sims.
func Fig19(cfg Config) error {
	cfg.normalize()
	w := cfg.Out
	header(w, "fig19", "disk-based scenario (CPU + simulated I/O)")

	printRows := func(wl *workload, focals []int, k int, label string) error {
		for _, algo := range []core.Algorithm{core.PCTA, core.LPCTA} {
			cpu, io, err := wl.measureDisk(focals, core.Options{K: k, Algorithm: algo, FinalizeGeometry: false})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %-10s k=%-4d %-8v cpu=%-10s io=%-10s total=%s\n",
				label, k, algo, seconds(cpu), seconds(io), seconds(cpu+io))
		}
		return nil
	}

	fmt.Fprintln(w, "(a) effect of k (IND, d=4)")
	wl, err := buildWorkload(dataset.Independent, cfg.n(baseN), defaultD, cfg.Seed)
	if err != nil {
		return err
	}
	for _, k := range cfg.ks(wl.ds.Len()) {
		focals := cfg.focals(wl, k, cfg.Seed+int64(k))
		for _, algo := range []core.Algorithm{core.PCTA, core.LPCTA} {
			cpu, io, err := wl.measureDisk(focals, core.Options{K: k, Algorithm: algo, FinalizeGeometry: false})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  k=%-4d %-8v cpu=%-10s io=%-10s total=%s\n",
				k, algo, seconds(cpu), seconds(io), seconds(cpu+io))
		}
	}

	fmt.Fprintln(w, "(b) effect of n (IND, d=4)")
	for _, bn := range []int{baseN / 10, baseN, baseN * 5} {
		n := cfg.n(bn)
		wl, err := buildWorkload(dataset.Independent, n, defaultD, cfg.Seed)
		if err != nil {
			return err
		}
		k := cfg.kDefault(n)
		focals := cfg.focals(wl, k, cfg.Seed+int64(n))
		if err := printRows(wl, focals, k, fmt.Sprintf("n=%d", n)); err != nil {
			return err
		}
	}

	fmt.Fprintln(w, "(c) effect of d (IND)")
	for _, d := range []int{3, 4, 5} {
		wl, err := buildWorkload(dataset.Independent, cfg.n(baseN), d, cfg.Seed)
		if err != nil {
			return err
		}
		k := cfg.kDefault(wl.ds.Len())
		focals := cfg.focals(wl, k, cfg.Seed+int64(d))
		if err := printRows(wl, focals, k, fmt.Sprintf("d=%d", d)); err != nil {
			return err
		}
	}

	fmt.Fprintln(w, "(d) real datasets")
	for _, ds := range []*dataset.Dataset{
		dataset.Hotel(cfg.n(41884), cfg.Seed),
		dataset.House(cfg.n(31526), cfg.Seed),
		dataset.NBA(cfg.n(2196), 1, cfg.Seed),
	} {
		wl, err := indexDataset(ds)
		if err != nil {
			return err
		}
		k := cfg.kDefault(ds.Len())
		focals := cfg.focals(wl, k, cfg.Seed)
		if err := printRows(wl, focals, k, ds.Name); err != nil {
			return err
		}
	}
	return nil
}

// Fig20 compares P-CTA against the k-skyband approach of Appendix B:
// processed records and response time while varying k.
func Fig20(cfg Config) error {
	cfg.normalize()
	w := cfg.Out
	header(w, "fig20", "P-CTA vs k-skyband approach (IND, d=4)")
	wl, err := buildWorkload(dataset.Independent, cfg.n(baseN), defaultD, cfg.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%4s | %14s %14s | %14s %14s\n",
		"k", "P-CTA recs", "skyband recs", "P-CTA (s)", "skyband (s)")
	for _, k := range cfg.ks(wl.ds.Len()) {
		focals := cfg.focals(wl, k, cfg.Seed+int64(k))
		p, err := wl.measure(focals, core.Options{K: k, Algorithm: core.PCTA, FinalizeGeometry: false})
		if err != nil {
			return err
		}
		b, err := wl.measure(focals, core.Options{K: k, Algorithm: core.KSkybandCTA, FinalizeGeometry: false})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%4d | %14.1f %14.1f | %14s %14s\n",
			k, p.Processed, b.Processed, seconds(p.Elapsed), seconds(b.Elapsed))
	}
	return nil
}

// Fig22 compares the transformed-space algorithms with their
// original-space counterparts OP-CTA and OLP-CTA (Appendix C).
func Fig22(cfg Config) error {
	cfg.normalize()
	w := cfg.Out
	header(w, "fig22", "transformed vs original preference space (IND)")
	variants := []struct {
		name string
		opts core.Options
	}{
		{"P-CTA", core.Options{Algorithm: core.PCTA}},
		{"OP-CTA", core.Options{Algorithm: core.PCTA, Space: core.Original}},
		{"LP-CTA", core.Options{Algorithm: core.LPCTA}},
		{"OLP-CTA", core.Options{Algorithm: core.LPCTA, Space: core.Original}},
	}

	fmt.Fprintln(w, "(a) effect of k (d=4)")
	wl, err := buildWorkload(dataset.Independent, cfg.n(baseN), defaultD, cfg.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%4s", "k")
	for _, v := range variants {
		fmt.Fprintf(w, " %12s", v.name)
	}
	fmt.Fprintln(w)
	for _, k := range cfg.ks(wl.ds.Len()) {
		focals := cfg.focals(wl, k, cfg.Seed+int64(k))
		fmt.Fprintf(w, "%4d", k)
		for _, v := range variants {
			opts := v.opts
			opts.K = k
			m, err := wl.measure(focals, opts)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %12s", seconds(m.Elapsed))
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "(b) effect of d")
	fmt.Fprintf(w, "%4s %4s", "d", "k")
	for _, v := range variants {
		fmt.Fprintf(w, " %12s", v.name)
	}
	fmt.Fprintln(w)
	for _, d := range []int{3, 4, 5} {
		wl, err := buildWorkload(dataset.Independent, cfg.n(baseN), d, cfg.Seed)
		if err != nil {
			return err
		}
		k := cfg.kDefault(wl.ds.Len())
		focals := cfg.focals(wl, k, cfg.Seed+int64(d))
		fmt.Fprintf(w, "%4d %4d", d, k)
		for _, v := range variants {
			opts := v.opts
			opts.K = k
			m, err := wl.measure(focals, opts)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %12s", seconds(m.Elapsed))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig23 measures index construction cost for the plain R-tree and the
// aggregate R-tree while varying n and d (Appendix D).
func Fig23(cfg Config) error {
	cfg.normalize()
	w := cfg.Out
	header(w, "fig23", "index construction time")

	build := func(n, d int) (time.Duration, time.Duration, error) {
		ds, err := dataset.Generate(dataset.Independent, n, d, cfg.Seed)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		if _, err := rtree.Build(ds.Records, rtree.WithoutAggregates()); err != nil {
			return 0, 0, err
		}
		plain := time.Since(start)
		start = time.Now()
		if _, err := rtree.Build(ds.Records); err != nil {
			return 0, 0, err
		}
		agg := time.Since(start)
		return plain, agg, nil
	}

	fmt.Fprintln(w, "(a) effect of n (d=4)")
	fmt.Fprintf(w, "%9s %14s %14s\n", "n", "R-tree (s)", "aR-tree (s)")
	for _, bn := range []int{baseN / 10, baseN / 2, baseN, baseN * 2, baseN * 5} {
		n := cfg.n(bn)
		plain, agg, err := build(n, defaultD)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%9d %14s %14s\n", n, seconds(plain), seconds(agg))
	}
	fmt.Fprintln(w, "(b) effect of d (n=base)")
	fmt.Fprintf(w, "%9s %14s %14s\n", "d", "R-tree (s)", "aR-tree (s)")
	for _, d := range []int{2, 3, 4, 5, 6, 7} {
		plain, agg, err := build(cfg.n(baseN), d)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%9d %14s %14s\n", d, seconds(plain), seconds(agg))
	}
	return nil
}

// Fig24 amortizes the index construction cost over the query workload and
// reports the resulting response times (Appendix D).
func Fig24(cfg Config) error {
	cfg.normalize()
	w := cfg.Out
	header(w, "fig24", "amortized response time (construction / queries added)")
	amortOver := 1000.0 // the paper amortizes over its 1000-query workloads

	fmt.Fprintln(w, "(a) effect of n (d=4)")
	fmt.Fprintf(w, "%9s %4s %14s %14s\n", "n", "k", "P-CTA (s)", "LP-CTA (s)")
	for _, bn := range []int{baseN / 10, baseN, baseN * 5} {
		n := cfg.n(bn)
		ds, err := dataset.Generate(dataset.Independent, n, defaultD, cfg.Seed)
		if err != nil {
			return err
		}
		start := time.Now()
		wl, err := indexDataset(ds)
		if err != nil {
			return err
		}
		buildCost := time.Since(start)
		k := cfg.kDefault(n)
		focals := cfg.focals(wl, k, cfg.Seed+int64(n))
		amort := time.Duration(float64(buildCost) / amortOver)
		p, err := wl.measure(focals, core.Options{K: k, Algorithm: core.PCTA, FinalizeGeometry: false})
		if err != nil {
			return err
		}
		l, err := wl.measure(focals, core.Options{K: k, Algorithm: core.LPCTA, FinalizeGeometry: false})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%9d %4d %14s %14s\n", n, k, seconds(p.Elapsed+amort), seconds(l.Elapsed+amort))
	}

	fmt.Fprintln(w, "(b) effect of d")
	fmt.Fprintf(w, "%9s %4s %14s %14s\n", "d", "k", "P-CTA (s)", "LP-CTA (s)")
	for _, d := range []int{3, 4, 5} {
		ds, err := dataset.Generate(dataset.Independent, cfg.n(baseN), d, cfg.Seed)
		if err != nil {
			return err
		}
		start := time.Now()
		wl, err := indexDataset(ds)
		if err != nil {
			return err
		}
		amort := time.Duration(float64(time.Since(start)) / amortOver)
		k := cfg.kDefault(ds.Len())
		focals := cfg.focals(wl, k, cfg.Seed+int64(d))
		p, err := wl.measure(focals, core.Options{K: k, Algorithm: core.PCTA, FinalizeGeometry: false})
		if err != nil {
			return err
		}
		l, err := wl.measure(focals, core.Options{K: k, Algorithm: core.LPCTA, FinalizeGeometry: false})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%9d %4d %14s %14s\n", d, k, seconds(p.Elapsed+amort), seconds(l.Elapsed+amort))
	}
	return nil
}
