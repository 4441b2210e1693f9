// Package core implements the paper's kSPR algorithms: the basic Cell Tree
// Approach (CTA, §4), the Progressive CTA (P-CTA, §5), and the Look-ahead
// Progressive CTA (LP-CTA, §6), together with the k-skyband variant of
// Appendix B and the original-space variants OP-CTA / OLP-CTA of Appendix C.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
)

// Trace-phase names the engine records when Options.Trace is set. The
// phases are non-overlapping within one query, so their times sum to
// (approximately) the query's wall time; docs/OBSERVABILITY.md is the
// operator-facing glossary and must stay in step with this list.
const (
	// PhaseDominance is the §3.1 dominance filtering that classifies the
	// dataset against the focal record before any cell-tree work.
	PhaseDominance = "dominance"
	// PhaseSkyband covers candidate discovery: the band read, the
	// candidate packing, the bounds index and the per-batch candidate
	// skylines. Only a generation's first query traverses the dataset,
	// to fill its band table.
	PhaseSkyband = "skyband"
	// PhaseExpand is cell-tree expansion (hyperplane insertion).
	PhaseExpand = "expand"
	// PhaseRankBounds is LP-CTA's look-ahead rank-bound classification of
	// freshly created cells (§6.4).
	PhaseRankBounds = "rank_bounds"
	// PhasePivots is the progressive algorithms' pivot-based reportability
	// sweep over live leaves (Algorithm 2 lines 13-19).
	PhasePivots = "pivot_check"
	// PhaseFinalize is region finalization: LP geometry, volumes, and
	// result assembly.
	PhaseFinalize = "finalize"
	// PhaseClassify is incremental maintenance's delta classification
	// (keep-or-recompute decision), recorded by Maintainer.Apply.
	PhaseClassify = "classify"
)

// Algorithm selects the kSPR processing strategy.
type Algorithm int

const (
	// CTA inserts every (non-dominated/non-dominating) record's hyperplane
	// into the CellTree in dataset order (§4).
	CTA Algorithm = iota
	// PCTA processes records in dominance-aware batches with pivot-based
	// pruning and progressive reporting (§5).
	PCTA
	// LPCTA adds look-ahead rank bounds over the aggregate R-tree on top of
	// P-CTA (§6).
	LPCTA
	// KSkybandCTA feeds the k-skyband of the dataset to CTA (Appendix B's
	// comparison point).
	KSkybandCTA
)

// String names the algorithm as the paper does (CTA, P-CTA, LP-CTA,
// k-skyband).
func (a Algorithm) String() string {
	switch a {
	case CTA:
		return "CTA"
	case PCTA:
		return "P-CTA"
	case LPCTA:
		return "LP-CTA"
	case KSkybandCTA:
		return "k-skyband"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Space selects the preference space the arrangement lives in (Appendix C).
type Space int

const (
	// Transformed works in d-1 dimensions using the Σw=1 normalization
	// (the default throughout the paper).
	Transformed Space = iota
	// Original works in the full d-dimensional space where hyperplanes pass
	// through the origin and cells are cones (OP-CTA / OLP-CTA).
	Original
)

// String names the preference space ("transformed" or "original").
func (s Space) String() string {
	if s == Original {
		return "original"
	}
	return "transformed"
}

// BoundsMode selects how LP-CTA derives rank bounds (Fig. 18's ablation).
type BoundsMode int

const (
	// FastBounds filters with the O(d) min/max-vector bounds of §6.3 before
	// falling back to tight group bounds — the full LP-CTA.
	FastBounds BoundsMode = iota
	// GroupBounds uses only the tight LP group bounds of §6.2.
	GroupBounds
	// RecordBounds computes per-record score bounds (§6.1) without using
	// the index structure.
	RecordBounds
)

// String names the bound mode as Fig. 18's ablation labels it.
func (b BoundsMode) String() string {
	switch b {
	case FastBounds:
		return "fast_bounds"
	case GroupBounds:
		return "group_bounds"
	default:
		return "record_bounds"
	}
}

// Options configures a kSPR query. The zero value is NOT usable; K must be
// positive. Other fields default to the paper's primary configuration
// (LP-CTA would be LPCTA; the zero Algorithm is CTA for explicitness in
// ablations, so set Algorithm deliberately).
type Options struct {
	// K is the shortlist size.
	K int
	// Algorithm selects CTA / P-CTA / LP-CTA / k-skyband.
	Algorithm Algorithm
	// Space selects transformed (default) or original preference space.
	Space Space
	// Bounds selects the LP-CTA bound mode (FastBounds default).
	Bounds BoundsMode
	// FinalizeGeometry controls whether result regions get exact vertex
	// geometry via halfspace intersection (the paper's finalization step;
	// on by default through Run).
	FinalizeGeometry bool
	// ComputeVolumes additionally measures each region (exact for
	// preference spaces of up to 3 dimensions, Monte-Carlo otherwise).
	ComputeVolumes bool
	// VolumeSamples bounds the Monte-Carlo sample count (default 10000).
	VolumeSamples int
	// Seed drives any randomized estimation for reproducibility.
	Seed int64
	// OnRegion, when set, receives regions as soon as they are final
	// (progressive reporting, a headline property of P-CTA/LP-CTA).
	OnRegion func(Region)
	// Parallelism is the number of goroutines the expansion engine may use
	// for this query: look-ahead rank-bound classification and region
	// finalization fan out across this many workers, each counting its own
	// LP stats; cell-tree insertion is always one walk. Results are
	// byte-identical to the serial run for every value — the engine merges
	// work in deterministic order — so the setting trades CPU for latency
	// only. <= 0 (the default) uses one worker per available CPU
	// (runtime.GOMAXPROCS); 1 runs the paper's single-threaded algorithms
	// unchanged. A batch splits it across its items (RunBatch).
	Parallelism int
	// Ctx, when non-nil, is polled at cell-tree expansion points (record
	// insertion, the LP side tests inside one insertion, rank-bound
	// classification, batch boundaries) and per region at finalization.
	// Once it is done, Run abandons the query and returns
	// context.Cause(ctx) (that is ctx.Err() unless ctx was cancelled with
	// a cause), so callers can impose deadlines and cancel in-flight
	// work. A nil Ctx never cancels.
	Ctx context.Context
	// Trace, when non-nil, records per-phase wall time for the run (see the
	// Phase* constants). The recorder is concurrency-safe, so one trace may
	// be shared by every query of a batch; nil disables tracing at
	// negligible cost (phase-granular nil checks, no clock reads).
	Trace *obs.Trace
}

// Region is one kSPR result region in the processing space (transformed by
// default): the set of weight vectors for which the focal record ranks
// within the top K.
type Region struct {
	// Constraints define the region's closure (space bounds + cell
	// boundaries, unit-normalized rows).
	Constraints []geom.Constraint
	// Vertices hold the exact geometry when finalization is enabled.
	Vertices []geom.Vector
	// Witness is a strictly interior weight vector of the region.
	Witness geom.Vector
	// Outscorers are the dataset record ids (dense indexes of the
	// generation the query ran against, ascending) proven to strictly
	// outscore the focal record throughout the region: the focal's global
	// dominators plus every record whose hyperplane covers the region on
	// the positive side. When RankExact is true the set is complete —
	// len(Outscorers) == Rank-1 — so it names exactly the competitors that
	// push the focal down to Rank here; for early-reported regions it is
	// the proven subset the look-ahead bound had seen. The what-if layer's
	// competitor attribution aggregates these per-region facts instead of
	// recomputing dominance.
	Outscorers []int
	// Rank is the rank of the focal record in the region. When RankExact is
	// false (early-reported cells), Rank is an upper bound and the region
	// may span cells of several ranks, all within K.
	Rank      int
	RankExact bool
	// Volume is the measure of the region when ComputeVolumes was set.
	Volume float64
}

// Contains reports whether the (transformed-space) weight vector lies in
// the region's closure.
func (r *Region) Contains(w geom.Vector, tol float64) bool {
	for _, c := range r.Constraints {
		if c.A.Dot(w)-c.B > tol {
			return false
		}
	}
	return true
}

// Stats aggregates the side metrics the paper reports.
type Stats struct {
	// ProcessedRecords is the number of records mapped to hyperplanes and
	// inserted (Fig. 11a).
	ProcessedRecords int
	// CellTreeNodes is the node count at termination (Fig. 11b).
	CellTreeNodes int
	// Batches is the number of P-CTA/LP-CTA processing rounds.
	Batches int
	// BaseRank is the number of records dominating the focal record (they
	// outrank it everywhere).
	BaseRank int
	// LPSolves / LPPivots count simplex activity.
	LPSolves int
	LPPivots int
	// FeasibilityTests and ConstraintRows mirror celltree.Stats.
	FeasibilityTests int
	ConstraintRows   int
	WStarSkips       int
	DomShortcuts     int
	// RankBoundCells is the number of cells for which look-ahead rank
	// bounds were computed; EarlyReported/EarlyPruned count their outcomes.
	RankBoundCells int
	EarlyReported  int
	EarlyPruned    int
	// CellsPruned counts subtrees the top-k rank bound eliminated, read
	// from the CellTree's shared atomic prune counter. It is identical
	// between serial and parallel runs of the same query.
	CellsPruned int
	// Parallelism is the effective worker count the expansion engine ran
	// with (1 = serial). It reflects configuration, not results: every
	// other field is independent of it.
	Parallelism int
	// Regions is the result cardinality (Fig. 13b / 14b / 15d).
	Regions int
	// Elapsed is the wall-clock processing time including finalization.
	Elapsed time.Duration
}

// Result is a complete kSPR answer.
type Result struct {
	// Focal is the query record; K the requested shortlist size.
	Focal geom.Vector
	K     int
	// Space is the preference space the regions are expressed in.
	Space Space
	// Regions is the kSPR result: p is in the top-K exactly for weight
	// vectors inside these regions.
	Regions []Region
	Stats   Stats
}

// ContainsWeight reports whether the transformed-space (or original-space,
// matching Result.Space) weight vector falls in some result region.
func (res *Result) ContainsWeight(w geom.Vector, tol float64) bool {
	for i := range res.Regions {
		if res.Regions[i].Contains(w, tol) {
			return true
		}
	}
	return false
}

// TotalVolume sums region volumes (meaningful when ComputeVolumes was set;
// regions are disjoint cells, so the sum is the measure of the union).
func (res *Result) TotalVolume() float64 {
	var v float64
	for i := range res.Regions {
		v += res.Regions[i].Volume
	}
	return v
}
