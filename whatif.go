package kspr

// The what-if surface of DB: competitive impact attribution (Competitors),
// repricing search (PriceToTarget), and impact–price frontiers (Frontier).
// All three answer the paper's motivating seller questions — "who takes my
// preference space, and what is the cheapest reprice that wins a target
// share of it" — on top of the existing machinery: attribution aggregates
// the exact per-region Outscorers facts the cell tree proved, reprice
// probes run against a Freeze-pinned scratch dataset kept warm by
// MaintainKSPR (so hopeless prices are absorbed by the incremental keep
// path instead of engine runs), and frontier sweeps run their surviving
// grid points as one KSPRBatch call. See docs/ARCHITECTURE.md, "What-if
// layer".

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rtree"
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
// evaluations ran, how many the incremental machinery answered without an
// engine recompute (the Maintainer keep tiers for reprice probes, the
// dominator-count classification for frontier grid points), and the
// average wall-clock cost per probe.
type WhatIfStats struct {
	// Probes is the number of impact evaluations the call performed
	// (including the baseline); Kept of them were answered by the
	// incremental keep/classification path, Recomputed ran the engine.
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
			StableID:      st.ids[e.ID],
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
	// incremental keep path absorbed.
	Stats WhatIfStats
}

// PriceToTarget finds the minimal change of one attribute of the focal
// option that lifts its impact to spec.Target, by monotone bisection:
// improving an attribute never shrinks the focal's top-k region, and each
// probe reuses the same sample set, so the empirical impact is
// nondecreasing in the change and the bracket invariant is exact. Each
// probe is a reprice Apply against a scratch copy of the pinned current
// generation whose result MaintainKSPR keeps warm — probes at prices where
// the focal is still dominated out are absorbed by the incremental keep
// path (Stats records the keep rate). The search mutates only the scratch
// dataset, never db.
func (db *DB) PriceToTarget(focalID, k int, spec RepriceSpec, opts ...QueryOption) (*Reprice, error) {
	start := time.Now()
	st := db.cur()
	if st.tree == nil || focalID < 0 || focalID >= st.tree.Len() {
		return nil, fmt.Errorf("kspr: focal id %d out of range [0, %d)", focalID, db.Len())
	}
	if spec.Attr < 0 || spec.Attr >= st.dim {
		return nil, fmt.Errorf("kspr: reprice attribute %d out of range [0, %d)", spec.Attr, st.dim)
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

	// Scratch dataset: a mutable in-memory copy of the pinned generation.
	// Dense indexes (and therefore stable ids) match st's by construction.
	if spec.VolumeMetric {
		opts = append(opts[:len(opts):len(opts)], WithVolumes(spec.Samples), WithSeed(spec.Seed))
	}

	recs, maxAttr := snapshotRecords(st, spec.Attr)
	scratch, err := Open(recs, WithFanout(db.treeFanout()))
	if err != nil {
		return nil, err
	}
	lq, err := scratch.MaintainKSPR(focalID, k, opts...)
	if err != nil {
		return nil, err
	}
	defer lq.Close()
	stable, _ := scratch.StableID(focalID)
	base := recs[focalID][spec.Attr]

	rp := &Reprice{
		Focal:      focalID,
		Attr:       spec.Attr,
		K:          k,
		Target:     spec.Target,
		Generation: st.gen,
	}
	probe := func(delta float64) (float64, error) {
		rp.Stats.Probes++
		vec := append([]float64(nil), recs[focalID]...)
		vec[spec.Attr] = base + delta
		if _, err := scratch.Apply(Update(stable, vec...)); err != nil {
			return 0, err
		}
		res, _, err := lq.Result()
		if err != nil {
			return 0, err
		}
		return impactOf(scratch, res, spec.Samples, spec.Seed, spec.VolumeMetric), nil
	}

	// Baseline: the maintained query's initial cold run.
	res0, _, err := lq.Result()
	if err != nil {
		return nil, err
	}
	rp.Stats.Probes++
	rp.Baseline = impactOf(scratch, res0, spec.Samples, spec.Seed, spec.VolumeMetric)
	finish := func() *Reprice {
		ms := lq.Stats()
		// +1: the baseline's initial cold run is an engine probe too, so
		// Probes == Kept + Recomputed holds, matching Frontier's accounting
		// and the WhatIfStats contract.
		rp.Stats.Kept, rp.Stats.Recomputed = int(ms.Kept), int(ms.Recomputed)+1
		rp.Stats.fill(time.Since(start))
		return rp
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
		hi = maxAttr - base
		if hi <= 0 {
			hi = math.Max(math.Abs(base), 1)
		}
	}
	hiImpact, err := probe(hi)
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
		if hiImpact, err = probe(hi); err != nil {
			return nil, err
		}
	}

	lo, loImpact := 0.0, rp.Baseline
	for hi-lo > spec.Eps {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break // the bracket is below float resolution
		}
		imp, err := probe(mid)
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
	// Kept reports the point was answered by the incremental
	// classification fast path (the probed price has >= k strict
	// dominators, so the result is provably empty) without an engine run.
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
	// Stats reports the probe economy: Kept counts grid points the
	// dominator-count classification answered, Recomputed the points that
	// went through the engine's batch.
	Stats WhatIfStats
}

// Frontier sweeps an impact-vs-price curve for the focal option: each grid
// point reprices one attribute to an absolute value and measures the
// resulting impact. Grid points where the repriced focal is dominated by
// at least k competitors are classified empty from dominator counts alone
// (the incremental fast path; Kept in Stats); the surviving points run as
// one KSPRBatch call over the competitor set, scheduled across the
// parallelism budget, whose k-skyband table the first point that needs it
// builds and the rest read. The sweep reads a pinned generation and never
// mutates db.
func (db *DB) Frontier(focalID, k int, spec FrontierSpec, opts ...QueryOption) (*FrontierCurve, error) {
	start := time.Now()
	st := db.cur()
	if st.tree == nil || focalID < 0 || focalID >= st.tree.Len() {
		return nil, fmt.Errorf("kspr: focal id %d out of range [0, %d)", focalID, db.Len())
	}
	if spec.Attr < 0 || spec.Attr >= st.dim {
		return nil, fmt.Errorf("kspr: frontier attribute %d out of range [0, %d)", spec.Attr, st.dim)
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
	if spec.Samples <= 0 {
		spec.Samples = DefaultWhatIfSamples
	}
	if spec.VolumeMetric {
		opts = append(opts[:len(opts):len(opts)], WithVolumes(spec.Samples), WithSeed(spec.Seed))
	}
	recs, maxAttr := snapshotRecords(st, spec.Attr)
	base := recs[focalID][spec.Attr]
	if spec.Min == 0 && spec.Max == 0 {
		spec.Min, spec.Max = base, maxAttr
		if spec.Max <= spec.Min {
			spec.Max = spec.Min + 1
		}
	}
	if spec.Max < spec.Min {
		return nil, fmt.Errorf("kspr: frontier range [%g, %g] is inverted", spec.Min, spec.Max)
	}

	// Competitor-only scratch: the sweep queries hypothetical repriced
	// focals, so the focal's current record must not compete with them.
	comp := append(recs[:focalID:focalID], recs[focalID+1:]...)
	var cdb *DB
	if len(comp) > 0 {
		var err error
		if cdb, err = Open(comp, WithFanout(db.treeFanout())); err != nil {
			return nil, err
		}
	}

	curve := &FrontierCurve{Focal: focalID, Attr: spec.Attr, K: k, Generation: st.gen}
	curve.Points = make([]FrontierPoint, spec.Steps)
	var queries []BatchQuery
	var engineIdx []int
	for i := range curve.Points {
		value := spec.Min + (spec.Max-spec.Min)*float64(i)/float64(spec.Steps-1)
		vec := append([]float64(nil), recs[focalID]...)
		vec[spec.Attr] = value
		curve.Points[i] = FrontierPoint{Value: value, Delta: value - base}
		curve.Stats.Probes++
		switch {
		case cdb == nil:
			// No competitors: the focal is shortlisted everywhere.
			curve.Points[i].Impact = 1
			curve.Points[i].Kept = true
			curve.Stats.Kept++
		case len(cdb.cur().tree.Dominators(geom.Vector(vec), nil)) >= k:
			// >= k strict dominators: the kSPR result is provably empty
			// (kAdj <= 0), exactly what the engine would conclude before
			// building any cell tree.
			curve.Points[i].Kept = true
			curve.Stats.Kept++
		default:
			queries = append(queries, BatchQuery{FocalID: -1, Focal: vec})
			engineIdx = append(engineIdx, i)
			curve.Stats.Recomputed++
		}
	}
	if len(queries) > 0 {
		outs, err := cdb.KSPRBatch(queries, k, WithBatchOptions(opts...))
		if err != nil {
			return nil, err
		}
		for j, o := range outs {
			i := engineIdx[j]
			if o.Err != nil {
				return nil, fmt.Errorf("kspr: frontier point %d (value %g): %w", i, curve.Points[i].Value, o.Err)
			}
			curve.Points[i].Impact = impactOf(cdb, o.Result, spec.Samples, spec.Seed, spec.VolumeMetric)
			curve.Points[i].Regions = len(o.Result.Regions)
		}
	}
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

// snapshotRecords copies the pinned generation's records and reports the
// dataset-wide maximum of the given attribute.
func snapshotRecords(st *dbState, attr int) ([][]float64, float64) {
	recs := make([][]float64, st.tree.Len())
	maxAttr := math.Inf(-1)
	for i, rec := range st.tree.Records {
		recs[i] = geom.Vector(rec).Clone()
		if rec[attr] > maxAttr {
			maxAttr = rec[attr]
		}
	}
	return recs, maxAttr
}

// treeFanout resolves the fanout scratch datasets are indexed with.
func (db *DB) treeFanout() int {
	if db.fanout > 0 {
		return db.fanout
	}
	return rtree.DefaultFanout
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
