// Package kspr identifies k-Shortlist Preference Regions: the regions of
// the preference space in which a focal record ranks among the top-k
// options of a dataset under linear scoring. It implements the SIGMOD 2017
// paper "Determining the Impact Regions of Competing Options in Preference
// Space" by Tang, Mouratidis and Yiu — the CellTree-based algorithms CTA,
// P-CTA and LP-CTA, together with their substrates (aggregate R-tree,
// simplex LP solver, exact cell geometry).
//
// # Model
//
// Records are d-dimensional vectors with "larger is better" attributes. A
// user preference is a weight vector w (w_i > 0, Σ w_i = 1) and the score
// of record r is the weighted sum r·w. The kSPR query for a focal record p
// and shortlist size k reports every region of the preference space where p
// scores among the k best records. Regions are returned in the transformed
// (d-1)-dimensional space obtained by eliminating the last weight through
// the normalization Σ w_i = 1; use geom-style Lift semantics (append
// 1 - Σ w_j) to move back to original weights.
//
// # Quickstart
//
//	db, _ := kspr.Open(records)           // records [][]float64
//	res, _ := db.KSPR(focalIdx, 10)       // where is record focalIdx top-10?
//	for _, region := range res.Regions {
//	    fmt.Println(region.Witness, region.Rank)
//	}
//	fmt.Println(db.ImpactProbability(res, 100000, 1)) // market impact
package kspr

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rtree"
	"repro/internal/store"
	"repro/internal/viz"
)

// Algorithm selects the processing strategy; LPCTA is the paper's best and
// the default.
type Algorithm = core.Algorithm

// Algorithm values.
const (
	CTA         = core.CTA
	PCTA        = core.PCTA
	LPCTA       = core.LPCTA
	KSkybandCTA = core.KSkybandCTA
)

// Space selects the preference space regions are computed in.
type Space = core.Space

// Space values.
const (
	Transformed = core.Transformed
	Original    = core.Original
)

// BoundsMode selects LP-CTA's look-ahead bound flavour.
type BoundsMode = core.BoundsMode

// BoundsMode values.
const (
	FastBounds   = core.FastBounds
	GroupBounds  = core.GroupBounds
	RecordBounds = core.RecordBounds
)

// Region is a single kSPR result region; see core.Region for field docs.
type Region = core.Region

// Result is a complete kSPR answer; see core.Result for field docs.
type Result = core.Result

// Stats are the query's side metrics; see core.Stats for field docs.
type Stats = core.Stats

// Trace records per-phase wall time of a query when attached via
// WithTrace; read the breakdown with Phases after the query returns. One
// trace may be shared across the queries of a batch (it is
// concurrency-safe and aggregates by phase name). See obs.Trace.
type Trace = obs.Trace

// TracePhase is one aggregated phase of a Trace (name, total nanoseconds,
// span count).
type TracePhase = obs.Phase

// NewTrace returns an empty query trace for WithTrace.
func NewTrace() *Trace { return obs.NewTrace() }

// DB is a dataset indexed for kSPR and related rank-aware queries. It is
// safe for concurrent readers, and — since the live-dataset subsystem —
// also for concurrent mutation: Apply advances the dataset one atomic
// mutation batch (one generation) at a time while every in-flight query
// keeps the immutable index snapshot it resolved at entry, so readers
// never observe a torn dataset. A generation's index is the one holder of
// its records. Every live DB sits on a store that validates batches and
// assigns option ids: Open's store has no directory and keeps nothing on
// disk, while OpenStore binds a WAL-backed directory so mutations survive
// crashes. Freeze pins an immutable handle on the current generation.
type DB struct {
	st     atomic.Pointer[dbState]
	frozen *dbState

	mu       sync.Mutex   // serializes Apply and SnapshotStore, and guards the watcher registry
	store    *store.Store // nil on frozen handles
	watchers map[int64]func(ApplyEvent)
	nextW    int64
}

// dbState is one immutable generation of a DB: the index, which holds
// the generation's records, and the stable option id behind each dense
// record index.
type dbState struct {
	tree *rtree.Tree // nil while the dataset is empty
	gen  uint64
	// ids[i] is the stable id of dense record i; nil means every id
	// equals its dense index, as Open assigns them.
	ids []int64
	// warmIndex records that this generation's index was reassembled
	// from the persisted candidate-index file instead of being rebuilt
	// from scratch (see OpenStore and docs/ARCHITECTURE.md).
	warmIndex bool
}

// cur resolves the state a read works against: the pinned generation for
// frozen handles, the latest otherwise.
func (db *DB) cur() *dbState {
	if db.frozen != nil {
		return db.frozen
	}
	return db.st.Load()
}

// len is the generation's record count.
func (st *dbState) len() int {
	if st.tree == nil {
		return 0
	}
	return st.tree.Len()
}

// stableID maps dense record i of the generation to its stable option id.
func (st *dbState) stableID(i int) int64 {
	if st.ids == nil {
		return int64(i)
	}
	return st.ids[i]
}

// dense maps a stable option id to its dense record index in the
// generation.
func (st *dbState) dense(id int64) (int, bool) {
	if st.ids == nil {
		if id >= 0 && id < int64(st.len()) {
			return int(id), true
		}
		return 0, false
	}
	if i, ok := slices.BinarySearch(st.ids, id); ok {
		return i, true
	}
	return 0, false
}

// Open copies the records and bulk-loads the aggregate R-tree index over
// them: generation 1 of an in-memory dataset, whose option ids are the
// records' indexes. Every record must have the same, >= 2,
// dimensionality.
func Open(records [][]float64) (*DB, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("kspr: empty dataset")
	}
	d := len(records[0])
	if d < 2 {
		return nil, fmt.Errorf("kspr: records must have at least 2 attributes, got %d", d)
	}
	recs := make([]geom.Vector, len(records))
	for i, r := range records {
		if len(r) != d {
			return nil, fmt.Errorf("kspr: record %d has %d attributes, want %d", i, len(r), d)
		}
		if err := geom.CheckFinite(r); err != nil {
			return nil, fmt.Errorf("kspr: record %d: %w", i, err)
		}
		// No Clone needed: Build packs the records into its own dense
		// backing array, so the tree never aliases caller memory.
		recs[i] = geom.Vector(r)
	}
	tree, err := rtree.Build(recs)
	if err != nil {
		return nil, fmt.Errorf("kspr: building index: %w", err)
	}
	db := &DB{store: store.InMemory(len(recs))}
	db.st.Store(&dbState{tree: tree, gen: 1})
	return db, nil
}

// IndexWarm reports whether this handle's current generation was indexed
// from the persisted candidate index (warm start: O(n) tree reassembly
// without the STR sorts) rather than rebuilt cold. It is pinned
// by Freeze like every other property of the generation. Purely
// informational — warm and cold indexes answer every query identically.
func (db *DB) IndexWarm() bool { return db.cur().warmIndex }

// Len returns the number of records.
func (db *DB) Len() int { return db.cur().len() }

// Dim returns the attribute dimensionality d (0 while the dataset is
// empty).
func (db *DB) Dim() int {
	if tree := db.cur().tree; tree != nil {
		return tree.Dim
	}
	return 0
}

// Record returns (a copy of) the record at dense index id, or nil when
// the index is out of range (e.g. on an empty live dataset).
func (db *DB) Record(id int) []float64 {
	st := db.cur()
	if st.tree == nil || id < 0 || id >= st.tree.Len() {
		return nil
	}
	return geom.Vector(st.tree.Records[id]).Clone()
}

// QueryOption configures a kSPR query.
type QueryOption func(*core.Options)

// WithAlgorithm selects the processing algorithm (default LPCTA).
func WithAlgorithm(a Algorithm) QueryOption {
	return func(o *core.Options) { o.Algorithm = a }
}

// WithSpace selects the preference space (default Transformed).
func WithSpace(s Space) QueryOption {
	return func(o *core.Options) { o.Space = s }
}

// WithBoundsMode selects the LP-CTA bound mode (default FastBounds).
func WithBoundsMode(m BoundsMode) QueryOption {
	return func(o *core.Options) { o.Bounds = m }
}

// WithProgressive streams regions to fn as soon as they are final.
func WithProgressive(fn func(Region)) QueryOption {
	return func(o *core.Options) { o.OnRegion = fn }
}

// WithVolumes measures each region: exactly for preference spaces of up
// to 3 dimensions (d <= 4 data in the transformed space, d <= 3 in the
// original one), by Monte-Carlo with the given sample count above that. A
// 3-d region whose facet polygons cannot be rebuilt (degenerate geometry)
// also falls back to Monte-Carlo.
func WithVolumes(samples int) QueryOption {
	return func(o *core.Options) {
		o.ComputeVolumes = true
		o.VolumeSamples = samples
	}
}

// WithSeed fixes the randomization seed used by estimators.
func WithSeed(seed int64) QueryOption {
	return func(o *core.Options) { o.Seed = seed }
}

// WithoutGeometry skips the exact-geometry finalization step; regions then
// carry constraints and witnesses but no vertex lists.
func WithoutGeometry() QueryOption {
	return func(o *core.Options) { o.FinalizeGeometry = false }
}

// WithContext makes the query cancellable: processing polls ctx at
// cell-tree expansion points and the query returns ctx.Err() (wrapped) as
// soon as ctx is done. Use it to bound long-running queries with a
// deadline, e.g. in a serving path.
func WithContext(ctx context.Context) QueryOption {
	return func(o *core.Options) { o.Ctx = ctx }
}

// WithParallelism sets how many goroutines the expansion engine may use
// for this query: CellTree subtree insertion, look-ahead rank-bound
// classification, and region finalization all fan out across n workers,
// each with its own reusable LP solver state. Results are byte-identical
// to the serial run for every n — the engine merges work in deterministic
// order — so the setting trades CPU for latency only. n <= 0 (the library
// default) uses one worker per available CPU; n == 1 runs the paper's
// single-threaded algorithms unchanged.
func WithParallelism(n int) QueryOption {
	return func(o *core.Options) { o.Parallelism = n }
}

// WithTrace attaches a phase recorder to the query: the engine records
// wall time per processing phase (dominance filtering, skyband/candidate
// discovery, cell-tree expansion, rank-bound classification, pivot
// checks, finalization) into t, which the caller inspects with t.Phases()
// after the query returns. A nil t leaves tracing off.
func WithTrace(t *Trace) QueryOption {
	return func(o *core.Options) { o.Trace = t }
}

// KSPR answers the k-Shortlist Preference Region query for the dataset
// record with index focalID.
func (db *DB) KSPR(focalID, k int, opts ...QueryOption) (*Result, error) {
	st := db.cur()
	if st.tree == nil || focalID < 0 || focalID >= st.tree.Len() {
		return nil, fmt.Errorf("kspr: focal id %d out of range [0, %d)", focalID, db.Len())
	}
	return db.query(st, st.tree.Records[focalID], focalID, k, opts)
}

// KSPRVector answers the query for a focal record that is not part of the
// dataset (e.g. a hypothetical new option). A non-finite focal value is
// an error.
func (db *DB) KSPRVector(focal []float64, k int, opts ...QueryOption) (*Result, error) {
	if err := geom.CheckFinite(focal); err != nil {
		return nil, fmt.Errorf("kspr: focal: %w", err)
	}
	return db.query(db.cur(), geom.Vector(focal), -1, k, opts)
}

// buildOptions folds query options over the library defaults.
func buildOptions(k int, opts []QueryOption) core.Options {
	o := core.Options{
		K:                k,
		Algorithm:        LPCTA,
		FinalizeGeometry: true,
	}
	for _, f := range opts {
		f(&o)
	}
	return o
}

func (db *DB) query(st *dbState, focal geom.Vector, focalID, k int, opts []QueryOption) (*Result, error) {
	if st.tree == nil {
		return nil, fmt.Errorf("kspr: empty dataset")
	}
	return core.Run(st.tree, focal, focalID, buildOptions(k, opts))
}

// BatchQuery is one focal option of a KSPRBatch call. FocalID names a
// dataset record; set it to -1 and fill Focal to query a hypothetical
// record instead (a non-finite Focal fails just that item). A non-zero K
// overrides the batch-wide shortlist size; a negative K fails the item.
// Ctx, when non-nil, cancels just this item, in addition to the batch
// context (WithBatchOptions(WithContext(ctx))): the item stops when
// either is done, with the error of the one that fired.
type BatchQuery struct {
	FocalID int
	Focal   []float64
	K       int
	Ctx     context.Context
}

// BatchOutcome is the per-item answer of KSPRBatch: exactly one of Result
// and Err is set. See core.BatchOutcome.
type BatchOutcome = core.BatchOutcome

// BatchOption configures a KSPRBatch call beyond the per-query options.
type BatchOption func(*core.BatchOptions)

// WithBatchOptions applies regular query options (algorithm, space,
// volumes, context, parallelism, ...) to every item of the batch.
func WithBatchOptions(opts ...QueryOption) BatchOption {
	return func(b *core.BatchOptions) {
		for _, o := range opts {
			o(&b.Options)
		}
	}
}

// WithBatchOnOutcome streams each item's outcome as soon as it settles
// (completion order, calls serialized) — the batch analogue of
// WithProgressive, used by serving paths to emit results before the whole
// batch finishes.
func WithBatchOnOutcome(fn func(i int, o BatchOutcome)) BatchOption {
	return func(b *core.BatchOptions) { b.OnOutcome = fn }
}

// WithBatchItemTimeout bounds each item's processing time individually:
// the item's context is derived with this timeout when the item starts
// running, so one pathological item times out on its own instead of
// consuming the whole batch's deadline.
func WithBatchItemTimeout(d time.Duration) BatchOption {
	return func(b *core.BatchOptions) { b.ItemTimeout = d }
}

// KSPRBatch answers kSPR for a panel of focal options over the dataset,
// scheduling the items across the engine's parallelism budget
// (WithBatchOptions(WithParallelism(n))): items run concurrently, each on
// its share of the workers, and draw insertion fan-out from one
// batch-wide token pool. Items share what every query on the dataset
// shares: the k-skyband table, which the first item that needs it
// builds, and the LP solver pool. Each item's Result is byte-identical
// to the corresponding KSPR / KSPRVector call; per-item failures land in
// the item's BatchOutcome, so one bad item cannot sink its siblings. The
// returned slice is indexed like queries and independent of scheduling
// order.
func (db *DB) KSPRBatch(queries []BatchQuery, k int, opts ...BatchOption) ([]BatchOutcome, error) {
	st := db.cur()
	if st.tree == nil {
		return nil, fmt.Errorf("kspr: empty dataset")
	}
	b := core.BatchOptions{Options: core.Options{
		K:                k,
		Algorithm:        LPCTA,
		FinalizeGeometry: true,
	}}
	for _, o := range opts {
		o(&b)
	}
	items := make([]core.BatchItem, len(queries))
	for i, q := range queries {
		items[i] = core.BatchItem{FocalID: q.FocalID, K: q.K, Ctx: q.Ctx}
		if q.FocalID < 0 {
			items[i].Focal = geom.Vector(q.Focal)
		}
	}
	return core.RunBatch(st.tree, items, b)
}

// ApproxResult is the outcome of the approximate kSPR query; see
// core.ApproxResult for field docs.
type ApproxResult = core.ApproxResult

// KSPRApprox answers the query approximately with an accuracy guarantee:
// it returns regions where the focal record is provably top-k plus an
// uncertain set whose measure is at most epsilon times the preference
// space. It implements the approximate processing the paper proposes as
// future work (§8) and can be much faster than the exact algorithms when
// the kSPR result has intricate boundaries.
func (db *DB) KSPRApprox(focalID, k int, epsilon float64) (*ApproxResult, error) {
	return db.KSPRApproxCtx(context.Background(), focalID, k, epsilon)
}

// KSPRApproxCtx is KSPRApprox with cancellation: the refinement loop polls
// ctx and returns ctx.Err() once it is done.
func (db *DB) KSPRApproxCtx(ctx context.Context, focalID, k int, epsilon float64) (*ApproxResult, error) {
	st := db.cur()
	if st.tree == nil || focalID < 0 || focalID >= st.tree.Len() {
		return nil, fmt.Errorf("kspr: focal id %d out of range [0, %d)", focalID, db.Len())
	}
	return core.RunApprox(st.tree, st.tree.Records[focalID], focalID,
		core.ApproxOptions{K: k, Epsilon: epsilon, Ctx: ctx})
}

// KSPRApproxVector is KSPRApprox for a focal record outside the dataset.
func (db *DB) KSPRApproxVector(focal []float64, k int, epsilon float64) (*ApproxResult, error) {
	return db.KSPRApproxVectorCtx(context.Background(), focal, k, epsilon)
}

// KSPRApproxVectorCtx is KSPRApproxVector with cancellation.
func (db *DB) KSPRApproxVectorCtx(ctx context.Context, focal []float64, k int, epsilon float64) (*ApproxResult, error) {
	st := db.cur()
	if st.tree == nil {
		return nil, fmt.Errorf("kspr: empty dataset")
	}
	if err := geom.CheckFinite(focal); err != nil {
		return nil, fmt.Errorf("kspr: focal: %w", err)
	}
	return core.RunApprox(st.tree, geom.Vector(focal), -1,
		core.ApproxOptions{K: k, Epsilon: epsilon, Ctx: ctx})
}

// SVGOptions control WriteSVG rendering.
type SVGOptions = viz.Options

// WriteSVG renders a (2-dimensional transformed-space, i.e. d=3 data)
// result as an SVG plot in the style of the paper's Figures 1(b) and 9:
// regions coloured by rank over the preference simplex.
func WriteSVG(w io.Writer, res *Result, opts SVGOptions) error {
	return viz.WriteSVG(w, res, opts)
}

// TopK returns the ids of the k best records under original-space weights
// w (len d, need not be normalized), best first. Non-finite weights yield
// nil.
func (db *DB) TopK(w []float64, k int) []int {
	st := db.cur()
	if st.tree == nil || geom.CheckFinite(w) != nil {
		return nil
	}
	return st.tree.TopK(geom.Vector(w), k, nil)
}

// Skyline returns the ids of the records dominated by no other.
func (db *DB) Skyline() []int {
	st := db.cur()
	if st.tree == nil {
		return nil
	}
	return st.tree.Skyline(nil)
}

// KSkyband returns the ids of records dominated by fewer than k others.
func (db *DB) KSkyband(k int) []int {
	st := db.cur()
	if st.tree == nil {
		return nil
	}
	return st.tree.KSkyband(k, nil)
}

// Rank computes the rank of record focalID under weights w (1 = best);
// ties with other records are ignored, as in the paper. An out-of-range
// focalID (e.g. on an empty live dataset) or a non-finite weight yields
// 0. The scan streams the index's flat row-major backing, so large-n
// ranking touches one contiguous array instead of chasing per-record
// slice headers.
func (db *DB) Rank(focalID int, w []float64) int {
	tree := db.cur().tree
	if tree == nil || focalID < 0 || focalID >= tree.Len() || geom.CheckFinite(w) != nil {
		return 0
	}
	wv := geom.Vector(w)
	focal := tree.Records[focalID]
	ps := focal.Dot(wv)
	d := tree.Dim
	rows := tree.FlatRows()
	rank := 1
	for id := 0; id < tree.Len(); id++ {
		if id == focalID {
			continue
		}
		row := rows[id*d : (id+1)*d]
		s := 0.0
		equal := true
		for j := 0; j < d; j++ {
			v := row[j]
			s += v * wv[j]
			if v != focal[j] {
				equal = false
			}
		}
		if !equal && s > ps {
			rank++
		}
	}
	return rank
}

// ImpactProbability estimates the probability that the focal record of res
// is shortlisted for a uniformly random preference vector: the measure of
// the result regions relative to the whole preference space (§1's market
// impact measure). It samples uniformly from the weight simplex.
//
// Contract: samples must be positive — it is the Monte-Carlo sample count.
// The estimate is an unbiased binomial proportion, so its standard error
// is sqrt(p(1-p)/samples) <= 0.5/sqrt(samples); with 100000 samples the
// estimate is within ±0.005 of the true measure with ~99.8% confidence
// (three standard errors). For preference spaces of up to 3 dimensions
// (d <= 4 data) the exact alternative is WithVolumes: the result's
// TotalVolume divided by the simplex measure 1/(d-1)! equals this
// probability, and the two agree within the bound above (pinned for d=3
// data by a cross-check test). A
// non-positive samples (or a nil res) yields 0, never NaN; callers wanting
// a default should pass their own (the CLIs use 10000–100000).
func (db *DB) ImpactProbability(res *Result, samples int, seed int64) float64 {
	return db.ImpactProbabilityPDF(res, nil, samples, seed)
}

// ImpactProbabilityPDF generalizes ImpactProbability to a known preference
// density: pdf receives original-space weights (length d, summing to 1) and
// returns a non-negative (not necessarily normalized) density. A nil pdf
// means uniform. It shares ImpactProbability's contract: samples <= 0 (or
// a nil res) returns 0.
func (db *DB) ImpactProbabilityPDF(res *Result, pdf func(w []float64) float64, samples int, seed int64) float64 {
	if res == nil || samples <= 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	d := db.Dim()
	var hitMass, totalMass float64
	raw := make([]float64, d)
	for s := 0; s < samples; s++ {
		var sum float64
		for i := range raw {
			raw[i] = rng.ExpFloat64() + 1e-12
			sum += raw[i]
		}
		w := make(geom.Vector, d)
		for i := range w {
			w[i] = raw[i] / sum
		}
		mass := 1.0
		if pdf != nil {
			mass = pdf(w)
			if mass < 0 {
				mass = 0
			}
		}
		totalMass += mass
		probe := w[:d-1]
		if res.Space == Original {
			probe = w
		}
		if res.ContainsWeight(probe, 1e-9) {
			hitMass += mass
		}
	}
	if totalMass == 0 {
		return 0
	}
	return hitMass / totalMass
}
