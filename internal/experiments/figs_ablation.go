package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/lp"
	"repro/internal/polytope"
)

// arrangementCell is one random cell of the arrangement of m record
// hyperplanes: its full defining halfspace set (one oriented row per
// hyperplane) and its Lemma-2 set (space bounds + the labels the cell's
// root path would carry in a CellTree).
type arrangementCell struct {
	full   []geom.Constraint
	lemma2 []geom.Constraint
}

// sampleCells materializes `count` random cells of the arrangement of m
// hyperplanes in the (d-1)-dimensional transformed space WITHOUT building
// the full arrangement (which has O(m^(d-1)) cells and is intractable at
// the paper's m): a random interior point identifies its cell; the full set
// orients every hyperplane toward the point; the Lemma-2 label set is
// obtained by replaying the insertions for just this root path — a
// hyperplane becomes a label exactly when it cuts the current cell, i.e.
// when its far side is still feasible against the labels collected so far.
func sampleCells(d, m, count int, seed int64) ([]arrangementCell, error) {
	rng := rand.New(rand.NewSource(seed))
	ds, err := dataset.Generate(dataset.Independent, m*4+count, d, seed)
	if err != nil {
		return nil, err
	}
	focal := ds.Records[0]
	dim := d - 1
	var planes []geom.Hyperplane
	for id := 1; id < ds.Len() && len(planes) < m; id++ {
		rec := ds.Records[id]
		if geom.Compare(rec, focal) != geom.DomNone {
			continue
		}
		h := geom.NewHyperplaneTransformed(id, rec, focal)
		if h.Kind == geom.Proper {
			planes = append(planes, h)
		}
	}
	if len(planes) == 0 {
		return nil, fmt.Errorf("experiments: no usable hyperplanes for the arrangement")
	}
	bounds := geom.SpaceBoundsTransformed(dim)
	cells := make([]arrangementCell, 0, count)
	for len(cells) < count {
		w := simplexSample(rng, dim)
		onPlane := false
		cell := arrangementCell{
			full:   append([]geom.Constraint(nil), bounds...),
			lemma2: append([]geom.Constraint(nil), bounds...),
		}
		for _, h := range planes {
			side := h.Side(w, 1e-9)
			if side == 0 {
				onPlane = true
				break
			}
			hs := geom.Halfspace{H: h, Sign: side}
			cell.full = append(cell.full, hs.AsConstraint())
			// Label test: does h cut the current (label-defined) cell?
			far := geom.Halfspace{H: h, Sign: side.Opposite()}
			in, err := lp.FeasibleInterior(append(cell.lemma2, far.AsConstraint()), dim, nil)
			if err != nil {
				return nil, err
			}
			if in.Feasible {
				cell.lemma2 = append(cell.lemma2, hs.AsConstraint())
			}
		}
		if onPlane {
			continue
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// Fig16 compares the LP-based feasibility test with exact halfspace
// intersection (the lp_solve vs qhull experiment): both decide feasibility
// for 100 random cells of the arrangement of m hyperplanes, varying d and
// m. Both mechanisms receive the realistic cell description (the Lemma-2
// label set, what insertion actually tests); exact intersection on the raw
// m-row set is combinatorially impossible for our vertex-enumeration hull,
// just as the paper's full arrangements are impossible to materialize.
func Fig16(cfg Config) error {
	cfg.normalize()
	w := cfg.Out
	header(w, "fig16", "LP feasibility vs halfspace intersection (100 random cells)")
	const cellSamples = 100

	run := func(d, m int) (time.Duration, time.Duration, error) {
		cells, err := sampleCells(d, m, cellSamples, cfg.Seed)
		if err != nil {
			return 0, 0, err
		}
		dim := d - 1
		var lpTime, hullTime time.Duration
		for _, cell := range cells {
			start := time.Now()
			if _, err := lp.FeasibleInterior(cell.lemma2, dim, nil); err != nil {
				return 0, 0, err
			}
			lpTime += time.Since(start)
			start = time.Now()
			if _, err := polytope.FeasibleByVertexEnum(cell.lemma2, dim, nil); err != nil {
				return 0, 0, err
			}
			hullTime += time.Since(start)
		}
		return lpTime, hullTime, nil
	}

	fmt.Fprintln(w, "(a) effect of d (m=1000 hyperplanes; d=7 omitted: exact intersection is intractable there, which is the point)")
	fmt.Fprintf(w, "%2s %16s %16s %8s\n", "d", "lp_solve (s)", "qhull-style (s)", "speedup")
	for _, d := range []int{3, 4, 5, 6} {
		lpT, hullT, err := run(d, cfg.n(1000))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%2d %16s %16s %8.1fx\n", d, seconds(lpT), seconds(hullT), hullT.Seconds()/lpT.Seconds())
	}
	fmt.Fprintln(w, "(b) effect of m (d=4)")
	fmt.Fprintf(w, "%6s %16s %16s %8s\n", "m", "lp_solve (s)", "qhull-style (s)", "speedup")
	for _, m := range []int{500, 1000, 5000, 10000} {
		lpT, hullT, err := run(defaultD, cfg.n(m))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%6d %16s %16s %8.1fx\n", cfg.n(m), seconds(lpT), seconds(hullT), hullT.Seconds()/lpT.Seconds())
	}
	return nil
}

// Fig17 quantifies Lemma 2: feasibility testing against the full defining
// halfspace set of each cell versus only the root-path labels. The paper
// reports 96.5%+ of constraints eliminated and one to two orders of
// magnitude faster tests.
func Fig17(cfg Config) error {
	cfg.normalize()
	w := cfg.Out
	header(w, "fig17", "Lemma-2 constraint elimination (d=4, 100 random leaves)")
	const cellSamples = 100
	dim := defaultD - 1
	// The paper sweeps m to 50K with a sparse LP; our dense tableau is
	// O(m^2) memory on the full constraint set, so the sweep stops at 2000
	// — the ratio trend is established well before that.
	fmt.Fprintf(w, "%6s | %12s %12s | %14s %14s %8s\n",
		"m", "full rows", "lemma2 rows", "full (s)", "lemma2 (s)", "speedup")
	for _, m := range []int{500, 1000, 2000} {
		cells, err := sampleCells(defaultD, cfg.n(m), cellSamples, cfg.Seed)
		if err != nil {
			return err
		}
		var fullRows, lemmaRows int
		var fullTime, lemmaTime time.Duration
		for _, cell := range cells {
			fullRows += len(cell.full)
			lemmaRows += len(cell.lemma2)
			start := time.Now()
			if _, err := lp.FeasibleInterior(cell.full, dim, nil); err != nil {
				return err
			}
			fullTime += time.Since(start)
			start = time.Now()
			if _, err := lp.FeasibleInterior(cell.lemma2, dim, nil); err != nil {
				return err
			}
			lemmaTime += time.Since(start)
		}
		fmt.Fprintf(w, "%6d | %12.1f %12.1f | %14s %14s %8.1fx\n",
			cfg.n(m),
			float64(fullRows)/cellSamples, float64(lemmaRows)/cellSamples,
			seconds(fullTime), seconds(lemmaTime),
			fullTime.Seconds()/lemmaTime.Seconds())
	}
	return nil
}

// Fig18 compares the three LP-CTA bound flavours — per-record bounds
// (§6.1), group bounds (§6.2), and fast bounds (§6.3) — varying k and d.
func Fig18(cfg Config) error {
	cfg.normalize()
	w := cfg.Out
	header(w, "fig18", "record vs group vs fast bounds in LP-CTA (IND)")
	modes := []core.BoundsMode{core.FastBounds, core.GroupBounds, core.RecordBounds}

	fmt.Fprintln(w, "(a) effect of k (d=4)")
	wl, err := buildWorkload(dataset.Independent, cfg.n(baseN), defaultD, cfg.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%4s %14s %14s %14s\n", "k", "fast (s)", "group (s)", "record (s)")
	for _, k := range cfg.ks(wl.ds.Len()) {
		focals := cfg.focals(wl, k, cfg.Seed+int64(k))
		fmt.Fprintf(w, "%4d", k)
		for _, mode := range modes {
			m, err := wl.measure(focals, core.Options{
				K: k, Algorithm: core.LPCTA, Bounds: mode, FinalizeGeometry: false,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %14s", seconds(m.Elapsed))
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "(b) effect of d")
	fmt.Fprintf(w, "%4s %4s %14s %14s %14s\n", "d", "k", "fast (s)", "group (s)", "record (s)")
	for _, d := range []int{2, 3, 4, 5} {
		wl, err := buildWorkload(dataset.Independent, cfg.n(baseN), d, cfg.Seed)
		if err != nil {
			return err
		}
		kEff := cfg.kDefault(wl.ds.Len())
		focals := cfg.focals(wl, kEff, cfg.Seed+int64(d))
		fmt.Fprintf(w, "%4d %4d", d, kEff)
		for _, mode := range modes {
			m, err := wl.measure(focals, core.Options{
				K: kEff, Algorithm: core.LPCTA, Bounds: mode, FinalizeGeometry: false,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %14s", seconds(m.Elapsed))
		}
		fmt.Fprintln(w)
	}
	return nil
}
