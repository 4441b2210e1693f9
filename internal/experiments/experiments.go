// Package experiments regenerates every table and figure of the paper's
// evaluation (§7 and appendices) on scaled-down workloads. Each experiment
// prints the same rows/series the paper plots; EXPERIMENTS.md records how
// the shapes compare. The cardinalities are scaled (Config.Scale) because
// the paper's testbed ran up to 10M records and 1000 queries per point;
// shapes — who wins, by what factor, where trends bend — are what the
// reproduction targets.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// Config controls experiment scale and reporting.
type Config struct {
	// Scale multiplies the baseline cardinalities (default 1.0; the
	// baseline default dataset is 20K records vs the paper's 1M).
	Scale float64
	// Queries is the number of focal records averaged per data point
	// (paper: 1000; default here: 3).
	Queries int
	// Seed fixes all randomness.
	Seed int64
	// Out receives the printed tables.
	Out io.Writer
	// SkybandFocals draws focal records from the dataset's K-skyband
	// instead of uniformly. The paper samples uniformly and averages over
	// 1000 queries; at reproduction scale with few queries, uniform draws
	// are usually dominated by >= k records and trivially empty, so this
	// mode exists to exercise the non-trivial path deterministically.
	SkybandFocals bool
}

func (c *Config) normalize() {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Queries <= 0 {
		c.Queries = 3
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
}

// n scales a baseline cardinality.
func (c Config) n(base int) int {
	v := int(float64(base) * c.Scale)
	if v < 10 {
		v = 10
	}
	return v
}

// Experiment is a registered, runnable experiment.
type Experiment struct {
	ID   string
	Desc string
	Run  func(Config) error
}

// All lists every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"table1", "real dataset inventory (simulated, scaled)", Table1},
		{"table2", "experiment parameters and defaults", Table2},
		{"fig9", "NBA case study: focal center across two seasons", Fig9},
		{"fig10a", "LP-CTA vs RTOPK (IND, d=2, vary k)", Fig10a},
		{"fig10b", "CTA vs P-CTA vs LP-CTA vs iMaxRank (IND, d=4, vary k)", Fig10b},
		{"fig11", "processed records and CellTree nodes (IND, vary k)", Fig11},
		{"fig12", "response time and space vs cardinality (IND)", Fig12},
		{"fig13", "response time and result size vs dimensionality (IND)", Fig13},
		{"fig14", "effect of data distribution (LP-CTA, vary k)", Fig14},
		{"fig15", "real datasets: P-CTA vs LP-CTA (vary k)", Fig15},
		{"fig16", "LP feasibility test vs halfspace intersection", Fig16},
		{"fig17", "Lemma-2 inconsequential-halfspace elimination", Fig17},
		{"fig18", "record vs group vs fast bounds in LP-CTA", Fig18},
		{"fig19", "disk-based scenario: CPU + I/O time", Fig19},
		{"fig20", "P-CTA vs k-skyband approach (IND, vary k)", Fig20},
		{"fig22", "transformed vs original preference space", Fig22},
		{"fig23", "index construction cost (R-tree vs aR-tree)", Fig23},
		{"fig24", "amortized response time (construction cost amortized)", Fig24},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Baseline workload parameters (paper defaults in parentheses).
const (
	baseN    = 20000 // cardinality (paper: 1M)
	defaultD = 4     // dimensionality (paper: 4)
	defaultK = 30    // shortlist size (paper: 30)
)

// kSweep is the paper's k-axis.
var kSweep = []int{10, 30, 50, 70, 90}

// ks returns the k values usable against a dataset of cardinality n: the
// paper's sweep, filtered so that k stays a small fraction of n. At the
// paper's scale (k=30 vs n=1M, 0.003%) the sweep is untouched; on
// scaled-down workloads, unfiltered k values would make the kSPR result
// cover much of the preference space and the arrangement blow up — a
// regime the paper never evaluates.
func (c Config) ks(n int) []int {
	// n/300 keeps k/n within a factor ~30 of the paper's densest setting
	// (k=90 at n=1M); beyond that the result covers so much of the space
	// that runtimes explode without saying anything the paper measures.
	cap := n / 300
	if cap < 10 {
		cap = 10
	}
	out := make([]int, 0, len(kSweep))
	for _, k := range kSweep {
		if k <= cap {
			out = append(out, k)
		}
	}
	if len(out) == 0 {
		out = append(out, cap)
	}
	return out
}

// kDefault returns the default k (the paper's 30) clamped the same way.
func (c Config) kDefault(n int) int {
	k := defaultK
	if cap := n / 300; cap < k {
		k = cap
	}
	if k < 5 {
		k = 5
	}
	return k
}

// workload bundles a dataset with its index.
type workload struct {
	ds   *dataset.Dataset
	tree *rtree.Tree
}

func buildWorkload(dist dataset.Distribution, n, d int, seed int64) (*workload, error) {
	ds, err := dataset.Generate(dist, n, d, seed)
	if err != nil {
		return nil, err
	}
	tree, err := rtree.Build(ds.Records)
	if err != nil {
		return nil, err
	}
	return &workload{ds: ds, tree: tree}, nil
}

func indexDataset(ds *dataset.Dataset) (*workload, error) {
	tree, err := rtree.Build(ds.Records)
	if err != nil {
		return nil, err
	}
	return &workload{ds: ds, tree: tree}, nil
}

// focals draws the c.Queries focal record ids of a data point of wl:
// uniformly at random, as the paper does ("1000 queries randomly selected
// from the corresponding dataset"), or from wl's k-skyband when
// c.SkybandFocals is set. Every experiment draws its focals here.
func (c Config) focals(wl *workload, k int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]int, c.Queries)
	if !c.SkybandFocals {
		for i := range ids {
			ids[i] = rng.Intn(wl.ds.Len())
		}
		return ids
	}
	band := wl.tree.KSkyband(k)
	for i := range ids {
		ids[i] = band[rng.Intn(len(band))]
	}
	return ids
}

// measure runs a kSPR configuration over the focal set and returns the
// average stats plus average elapsed time.
type measurement struct {
	Elapsed   time.Duration
	Processed float64
	Nodes     float64
	Regions   float64
	LPSolves  float64
	IOReads   float64 // filled by the disk experiment
	CPU       time.Duration
}

func (w *workload) measure(focals []int, opts core.Options) (measurement, error) {
	var m measurement
	for _, id := range focals {
		res, err := core.Run(w.tree, w.ds.Records[id], id, opts)
		if err != nil {
			return m, fmt.Errorf("focal %d: %w", id, err)
		}
		m.Elapsed += res.Stats.Elapsed
		m.Processed += float64(res.Stats.ProcessedRecords)
		m.Nodes += float64(res.Stats.CellTreeNodes)
		m.Regions += float64(res.Stats.Regions)
		m.LPSolves += float64(res.Stats.LPSolves)
	}
	q := len(focals)
	m.Elapsed /= time.Duration(q)
	m.Processed /= float64(q)
	m.Nodes /= float64(q)
	m.Regions /= float64(q)
	m.LPSolves /= float64(q)
	return m, nil
}

// seconds renders a duration the way the paper's log-scale plots read.
func seconds(d time.Duration) string {
	return fmt.Sprintf("%.4g", d.Seconds())
}

// header prints an experiment banner.
func header(w io.Writer, id, title string) {
	fmt.Fprintf(w, "\n=== %s — %s\n", id, title)
}

// simplexSample draws a random interior point of the transformed space.
func simplexSample(rng *rand.Rand, dim int) geom.Vector {
	raw := make([]float64, dim+1)
	var sum float64
	for i := range raw {
		raw[i] = rng.ExpFloat64() + 1e-9
		sum += raw[i]
	}
	w := make(geom.Vector, dim)
	for i := range w {
		w[i] = raw[i] / sum
	}
	return w
}
