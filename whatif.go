package kspr

// The what-if surface of DB: competitive impact attribution (Competitors),
// repricing search (PriceToTarget), and impact–price frontiers (Frontier).
// All three answer the paper's motivating seller questions — "who takes my
// preference space, and what is the cheapest reprice that wins a target
// share of it" — on top of the existing machinery: attribution aggregates
// the exact per-region Outscorers facts the cell tree proved, and the
// reprice search and the frontier sweep share one probe (repricer) that
// queries repriced focals against an index of the focal's competitors,
// one KSPRBatch call per probe round. A hopeless price is decided where
// every kSPR query decides it: the engine's dominator count. See
// docs/ARCHITECTURE.md, "What-if layer".

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
)

// ErrTargetUnreachable reports a PriceToTarget whose target impact is not
// reachable within the allowed attribute change (spec.MaxDelta, or the
// automatic expansion limit).
var ErrTargetUnreachable = errors.New("kspr: target impact unreachable within the allowed reprice")

// DefaultWhatIfSamples is the Monte-Carlo sample count what-if calls use
// when the caller passes none; serving layers reuse it so their cache
// keys and responses stay consistent with library behavior.
const DefaultWhatIfSamples = 20000

// WhatIfStats reports how a what-if call spent its probes: how many impact
// evaluations ran, how many the engine answered from its dominator count
// alone (the repriced focal has at least k strictly dominating
// competitors, so the result is empty before any cell-tree work), and the
// average wall-clock cost per probe.
type WhatIfStats struct {
	// Probes is the number of impact evaluations the call performed
	// (including PriceToTarget's baseline); Kept of them were answered from
	// the dominator count, Recomputed built a cell tree.
	Probes     int
	Kept       int
	Recomputed int
	// KeepRate is Kept / (Kept + Recomputed), 0 when nothing was probed.
	KeepRate float64
	// ProbeNs is the average wall-clock nanoseconds per probe; ElapsedNs
	// the whole call.
	ProbeNs   int64
	ElapsedNs int64
}

// fill derives the ratio fields from the counters.
func (s *WhatIfStats) fill(elapsed time.Duration) {
	if n := s.Kept + s.Recomputed; n > 0 {
		s.KeepRate = float64(s.Kept) / float64(n)
	}
	s.ElapsedNs = elapsed.Nanoseconds()
	if s.Probes > 0 {
		s.ProbeNs = s.ElapsedNs / int64(s.Probes)
	}
}

// CompetitorImpact is one competitor's share of a focal option's
// preference space; see core.AttributionEntry for the measure semantics.
type CompetitorImpact struct {
	// ID is the competitor's dense record index at Generation; StableID its
	// stable option id (equal to ID for purely in-memory datasets).
	ID       int
	StableID int64
	// MissShare is the fraction of preference space where the focal misses
	// the top-k and this competitor holds a shortlist slot; PressureShare
	// the fraction where the focal is shortlisted but this competitor
	// still outranks it (a proven lower bound when the result contains
	// early-reported regions — see core.AttributionEntry).
	MissShare     float64
	PressureShare float64
}

// Attribution answers "which competitors take my preference space": the
// focal option's impact probability plus the per-competitor decomposition
// of the space it does not hold. Produced by DB.Competitors.
type Attribution struct {
	// Focal is the focal record's dense index at Generation; K the
	// shortlist size; Samples the Monte-Carlo sample count behind the
	// probabilities (error O(1/sqrt(Samples))).
	Focal      int
	K          int
	Generation uint64
	Samples    int
	// Impact is the probability the focal is shortlisted under uniform
	// preferences; Miss its complement on the same samples.
	Impact float64
	Miss   float64
	// Competitors lists every record observed taking or pressuring the
	// focal's space, MissShare (then PressureShare, then ID) descending.
	Competitors []CompetitorImpact
}

// Competitors attributes the focal option's missing preference space to
// the specific competitors occupying it. It answers the focal's kSPR query
// (honouring opts), then measures with samples uniform preference draws:
// inside result regions the exact Region.Outscorers facts say who outranks
// the focal; outside them the K-skyband says who holds the shortlist.
// samples <= 0 uses 20000. The attribution is computed on one pinned
// generation — concurrent mutations do not tear it.
func (db *DB) Competitors(focalID, k, samples int, seed int64, opts ...QueryOption) (*Attribution, error) {
	st := db.cur()
	if st.tree == nil || focalID < 0 || focalID >= st.tree.Len() {
		return nil, fmt.Errorf("kspr: focal id %d out of range [0, %d)", focalID, db.Len())
	}
	if samples <= 0 {
		samples = DefaultWhatIfSamples
	}
	focal := st.tree.Records[focalID]
	res, err := db.query(st, focal, focalID, k, opts)
	if err != nil {
		return nil, err
	}
	ca, err := core.Attribute(st.tree, res, focal, focalID, samples, seed)
	if err != nil {
		return nil, err
	}
	attr := &Attribution{
		Focal:      focalID,
		K:          k,
		Generation: st.gen,
		Samples:    ca.Samples,
		Impact:     ca.Impact,
		Miss:       ca.Miss,
	}
	attr.Competitors = make([]CompetitorImpact, len(ca.Entries))
	for i, e := range ca.Entries {
		attr.Competitors[i] = CompetitorImpact{
			ID:            e.ID,
			StableID:      st.stableID(e.ID),
			MissShare:     e.MissShare,
			PressureShare: e.PressureShare,
		}
	}
	return attr, nil
}

// RepriceSpec configures PriceToTarget.
type RepriceSpec struct {
	// Attr is the attribute index to improve (0-based; attributes are
	// "larger is better", so a price attribute is its cheapness encoding).
	Attr int
	// Target is the impact the reprice must reach, in (0, 1]: the
	// probability a uniformly random preference shortlists the focal (or,
	// with VolumeMetric, the result regions' share of the preference-space
	// measure).
	Target float64
	// MaxDelta bounds the attribute increase; <= 0 expands the bracket
	// automatically (doubling) until the target is reached or provably out
	// of reach.
	MaxDelta float64
	// Eps is the bisection's resolution on the attribute axis (default
	// 1e-6): the returned Delta satisfies the target while Delta - Eps is
	// not guaranteed to.
	Eps float64
	// Samples and Seed drive the impact estimate. Every probe reuses the
	// same sample set, so the empirical impact is exactly monotone in the
	// attribute and bisection is sound. Samples <= 0 uses 20000.
	Samples int
	Seed    int64
	// VolumeMetric measures impact as the result regions' exact measured
	// volume share instead of Monte-Carlo membership sampling. Exact (and
	// strictly monotone) for preference spaces of up to 3 dimensions (d <=
	// 4 data); above that region volumes are themselves Monte-Carlo and
	// the curve may wobble within sampling error.
	VolumeMetric bool
}

// Reprice is PriceToTarget's answer: the minimal attribute change reaching
// the target, with the bisection bracket that certifies minimality.
type Reprice struct {
	// Focal, Attr, K, Target echo the request; Generation the pinned
	// dataset generation the search ran against.
	Focal      int
	Attr       int
	K          int
	Target     float64
	Generation uint64
	// Delta is the minimal attribute increase found; Value the resulting
	// attribute value; Impact the impact measured at Delta (>= Target).
	Delta  float64
	Value  float64
	Impact float64
	// Baseline is the impact at the current price. AlreadyMet reports that
	// Baseline >= Target, in which case Delta is 0.
	Baseline   float64
	AlreadyMet bool
	// LowerDelta is the bisection's failing bracket — the largest probed
	// change that does NOT reach the target (Delta - LowerDelta <= Eps) —
	// and LowerImpact its impact, certifying Delta minimal to within Eps.
	LowerDelta  float64
	LowerImpact float64
	// Stats reports the probe economy, including how many probes the
	// engine answered from the dominator count.
	Stats WhatIfStats
}

// PriceToTarget finds the minimal change of one attribute of the focal
// option that lifts its impact to spec.Target, by monotone bisection:
// improving an attribute never shrinks the focal's top-k region, and each
// probe reuses the same sample set, so the empirical impact is
// nondecreasing in the change and the bracket invariant is exact. Each
// probe, the baseline included, queries the repriced focal against an
// index of its competitors in the pinned current generation; probes at
// prices where the focal is still dominated out are answered from the
// dominator count (Stats records the keep rate). The search never
// mutates db.
func (db *DB) PriceToTarget(focalID, k int, spec RepriceSpec, opts ...QueryOption) (*Reprice, error) {
	start := time.Now()
	st := db.cur()
	if st.tree == nil || focalID < 0 || focalID >= st.tree.Len() {
		return nil, fmt.Errorf("kspr: focal id %d out of range [0, %d)", focalID, db.Len())
	}
	if spec.Attr < 0 || spec.Attr >= st.tree.Dim {
		return nil, fmt.Errorf("kspr: reprice attribute %d out of range [0, %d)", spec.Attr, st.tree.Dim)
	}
	if err := errors.Join(finite("RepriceSpec.Target", spec.Target),
		finite("RepriceSpec.MaxDelta", spec.MaxDelta), finite("RepriceSpec.Eps", spec.Eps)); err != nil {
		return nil, err
	}
	if spec.Target <= 0 || spec.Target > 1 {
		return nil, fmt.Errorf("kspr: target impact must be in (0, 1], got %g", spec.Target)
	}
	if spec.Samples <= 0 {
		spec.Samples = DefaultWhatIfSamples
	}
	if spec.Eps <= 0 {
		spec.Eps = 1e-6
	}

	r, err := newRepricer(st, focalID, spec.Attr, k, spec.Samples, spec.Seed, spec.VolumeMetric, opts)
	if err != nil {
		return nil, err
	}
	base := r.focal[spec.Attr]
	probe := func(value float64) (float64, error) {
		pts, err := r.probe(value)
		if err != nil {
			return 0, err
		}
		return pts[0].Impact, nil
	}

	rp := &Reprice{
		Focal:      focalID,
		Attr:       spec.Attr,
		K:          k,
		Target:     spec.Target,
		Generation: st.gen,
	}
	finish := func() *Reprice {
		rp.Stats = r.stats
		rp.Stats.fill(time.Since(start))
		return rp
	}
	if rp.Baseline, err = probe(base); err != nil {
		return nil, err
	}
	if rp.Baseline >= spec.Target {
		rp.AlreadyMet = true
		rp.Delta, rp.Value, rp.Impact = 0, base, rp.Baseline
		rp.LowerDelta, rp.LowerImpact = 0, rp.Baseline
		return finish(), nil
	}

	// Upper bracket: MaxDelta when given, else expand by doubling from the
	// headroom to the dataset's best value in this attribute.
	hi := spec.MaxDelta
	auto := hi <= 0
	if auto {
		hi = r.maxAttr - base
		if hi <= 0 {
			hi = math.Max(math.Abs(base), 1)
		}
	}
	hiImpact, err := probe(base + hi)
	if err != nil {
		return nil, err
	}
	// Cap the automatic expansion: 64 doublings from the attribute-range
	// headroom is far beyond any price that could still change a ranking
	// (every sampled weight has a positive attribute component, so impact
	// saturates long before), and it bounds how many engine probes an
	// unreachable target — e.g. a Monte-Carlo ceiling just below 1 — can
	// burn before the search concedes.
	for doublings := 0; hiImpact < spec.Target; doublings++ {
		if !auto || doublings >= 64 {
			rp.Delta, rp.Value, rp.Impact = hi, base+hi, hiImpact
			return finish(), fmt.Errorf("%w: impact %.4f < target %.4f at delta %g",
				ErrTargetUnreachable, hiImpact, spec.Target, hi)
		}
		hi *= 2
		if hiImpact, err = probe(base + hi); err != nil {
			return nil, err
		}
	}

	lo, loImpact := 0.0, rp.Baseline
	for hi-lo > spec.Eps {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break // the bracket is below float resolution
		}
		imp, err := probe(base + mid)
		if err != nil {
			return nil, err
		}
		if imp >= spec.Target {
			hi, hiImpact = mid, imp
		} else {
			lo, loImpact = mid, imp
		}
	}
	rp.Delta, rp.Value, rp.Impact = hi, base+hi, hiImpact
	rp.LowerDelta, rp.LowerImpact = lo, loImpact
	return finish(), nil
}

// FrontierSpec configures Frontier.
type FrontierSpec struct {
	// Attr is the attribute swept; the grid runs over absolute attribute
	// values from Min to Max inclusive in Steps points (Steps >= 2,
	// default 16). Min == Max == 0 defaults to [current value, dataset
	// maximum of the attribute].
	Attr  int
	Min   float64
	Max   float64
	Steps int
	// Samples / Seed / VolumeMetric select the impact measure exactly as
	// in RepriceSpec.
	Samples      int
	Seed         int64
	VolumeMetric bool
}

// FrontierPoint is one grid point of the impact–price curve.
type FrontierPoint struct {
	// Value is the absolute attribute value probed; Delta its offset from
	// the focal's current value.
	Value float64
	Delta float64
	// Impact is the focal's impact with the attribute at Value; Regions the
	// kSPR region count behind it (0 for classified-empty points).
	Impact  float64
	Regions int
	// Kept reports the engine answered the point from its dominator count
	// alone: at least k competitors strictly dominate the repriced focal,
	// so the result is empty before any cell-tree work.
	Kept bool
}

// FrontierCurve is Frontier's answer.
type FrontierCurve struct {
	// Focal, Attr, K echo the request; Generation the pinned dataset
	// generation the sweep ran against.
	Focal      int
	Attr       int
	K          int
	Generation uint64
	// Points is the impact-vs-price curve, ascending in Value. With the
	// probability metric the curve is nondecreasing in Value (same sample
	// set at every point).
	Points []FrontierPoint
	// Stats reports the probe economy: Kept counts grid points answered
	// from the dominator count, Recomputed the points that built a cell
	// tree.
	Stats WhatIfStats
}

// Frontier sweeps an impact-vs-price curve for the focal option: each grid
// point reprices one attribute to an absolute value and measures the
// resulting impact. The whole grid runs as one KSPRBatch call over the
// focal's competitors, scheduled across the parallelism budget, whose
// k-skyband table the first point that needs it builds and the rest read.
// Points where the repriced focal is dominated by at least k competitors
// are answered from the dominator count (Kept in Stats). The sweep reads a
// pinned generation and never mutates db.
func (db *DB) Frontier(focalID, k int, spec FrontierSpec, opts ...QueryOption) (*FrontierCurve, error) {
	start := time.Now()
	st := db.cur()
	if st.tree == nil || focalID < 0 || focalID >= st.tree.Len() {
		return nil, fmt.Errorf("kspr: focal id %d out of range [0, %d)", focalID, db.Len())
	}
	if spec.Attr < 0 || spec.Attr >= st.tree.Dim {
		return nil, fmt.Errorf("kspr: frontier attribute %d out of range [0, %d)", spec.Attr, st.tree.Dim)
	}
	if err := errors.Join(finite("FrontierSpec.Min", spec.Min), finite("FrontierSpec.Max", spec.Max)); err != nil {
		return nil, err
	}
	if spec.Steps == 0 {
		spec.Steps = 16
	}
	if spec.Steps < 2 {
		return nil, fmt.Errorf("kspr: frontier needs at least 2 steps, got %d", spec.Steps)
	}
	if spec.Max < spec.Min {
		return nil, fmt.Errorf("kspr: frontier range [%g, %g] is inverted", spec.Min, spec.Max)
	}
	if spec.Samples <= 0 {
		spec.Samples = DefaultWhatIfSamples
	}
	r, err := newRepricer(st, focalID, spec.Attr, k, spec.Samples, spec.Seed, spec.VolumeMetric, opts)
	if err != nil {
		return nil, err
	}
	if spec.Min == 0 && spec.Max == 0 {
		spec.Min, spec.Max = r.focal[spec.Attr], r.maxAttr
		if spec.Max <= spec.Min {
			spec.Max = spec.Min + 1
		}
	}
	values := make([]float64, spec.Steps)
	for i := range values {
		values[i] = spec.Min + (spec.Max-spec.Min)*float64(i)/float64(spec.Steps-1)
	}
	pts, err := r.probe(values...)
	if err != nil {
		return nil, err
	}
	curve := &FrontierCurve{Focal: focalID, Attr: spec.Attr, K: k, Generation: st.gen, Points: pts, Stats: r.stats}
	curve.Stats.fill(time.Since(start))
	return curve, nil
}

// finite rejects a spec field holding NaN or ±Inf, naming it.
func finite(field string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("kspr: %s must be finite, got %v", field, v)
	}
	return nil
}

// repricer is the what-if layer's one probe: the focal's record and an
// index of every other record of one pinned generation, against which
// PriceToTarget and Frontier price the focal's attribute at hypothetical
// values. Querying the competitors alone keeps the focal's current record
// from competing with its repriced self.
type repricer struct {
	cdb     *DB // nil when the focal has no competitors
	focal   []float64
	attr, k int
	maxAttr float64 // the attribute's maximum over the generation
	impact  func(*Result) float64
	opts    []QueryOption
	stats   WhatIfStats
}

// newRepricer builds the probe for focalID on st. Under the volume metric
// every probe measures its regions with samples and seed.
func newRepricer(st *dbState, focalID, attr, k, samples int, seed int64, volume bool, opts []QueryOption) (*repricer, error) {
	if k < 1 {
		return nil, fmt.Errorf("kspr: k must be positive, got %d", k)
	}
	r := &repricer{attr: attr, k: k, maxAttr: math.Inf(-1)}
	comp := make([][]float64, 0, st.tree.Len()-1)
	for i, rec := range st.tree.Records {
		if rec[attr] > r.maxAttr {
			r.maxAttr = rec[attr]
		}
		if i == focalID {
			r.focal = rec
		} else {
			comp = append(comp, rec)
		}
	}
	if len(comp) > 0 {
		// Open packs its own backing, so the index aliases nothing of st.
		var err error
		if r.cdb, err = Open(comp); err != nil {
			return nil, err
		}
	}
	if volume {
		opts = append(opts[:len(opts):len(opts)], WithVolumes(samples), WithSeed(seed))
	}
	r.opts = opts
	r.impact = func(res *Result) float64 { return impactOf(r.cdb, res, samples, seed, volume) }
	return r, nil
}

// probe prices the focal's attribute at each value and measures the
// impact there, all values in one KSPRBatch call. A point whose result the
// engine decided from its dominator count (BaseRank >= k: at least k
// competitors strictly dominate the repriced focal) is kept, with impact
// 0; without competitors every point is kept with impact 1.
func (r *repricer) probe(values ...float64) ([]FrontierPoint, error) {
	base := r.focal[r.attr]
	pts := make([]FrontierPoint, len(values))
	queries := make([]BatchQuery, len(values))
	for i, v := range values {
		vec := append([]float64(nil), r.focal...)
		vec[r.attr] = v
		pts[i] = FrontierPoint{Value: v, Delta: v - base}
		queries[i] = BatchQuery{FocalID: -1, Focal: vec}
	}
	r.stats.Probes += len(values)
	if r.cdb == nil {
		for i := range pts {
			pts[i].Impact, pts[i].Kept = 1, true
		}
		r.stats.Kept += len(values)
		return pts, nil
	}
	outs, err := r.cdb.KSPRBatch(queries, r.k, WithBatchOptions(r.opts...))
	if err != nil {
		return nil, err
	}
	for i, o := range outs {
		switch {
		case o.Err != nil:
			return nil, fmt.Errorf("kspr: what-if probe at value %g: %w", values[i], o.Err)
		case o.Result.Stats.BaseRank >= r.k:
			pts[i].Kept = true
			r.stats.Kept++
		default:
			pts[i].Impact = r.impact(o.Result)
			pts[i].Regions = len(o.Result.Regions)
			r.stats.Recomputed++
		}
	}
	return pts, nil
}

// impactOf measures a result's impact: Monte-Carlo region membership under
// uniform preferences by default, or (volume metric) the regions' measured
// volume share of the preference space. An empty result is 0 either way.
func impactOf(db *DB, res *Result, samples int, seed int64, volume bool) float64 {
	if res == nil || len(res.Regions) == 0 {
		return 0
	}
	if !volume {
		return db.ImpactProbability(res, samples, seed)
	}
	return res.TotalVolume() / spaceMeasure(res.Space, preferenceDim(db.Dim(), res.Space))
}

// preferenceDim is the processing-space dimensionality for d data
// attributes.
func preferenceDim(d int, space Space) int {
	if space == Original {
		return d
	}
	return d - 1
}

// spaceMeasure is the Lebesgue measure of the whole preference space: the
// simplex {w >= 0, Σw <= 1} (volume 1/dim!) in the transformed space, the
// unit cube in the original one.
func spaceMeasure(space Space, dim int) float64 {
	if space == Original {
		return 1
	}
	m := 1.0
	for i := 2; i <= dim; i++ {
		m /= float64(i)
	}
	return m
}
