// The what-if endpoints: competitive impact attribution
// (GET /v1/impact:competitors), repricing search (POST /v1/whatif:price),
// and impact–price frontiers (POST /v1/whatif:frontier). All three call
// the library's what-if layer on a pool worker, bound the Monte-Carlo work
// per request, and cache responses under generation-prefixed keys, so a
// mutation batch implicitly orphans stale what-if answers (reprices of the
// focal can flip who dominates whom, so — unlike plain kSPR results — the
// mutation path never migrates these across generations).
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	kspr "repro"
)

// ---- wire types ----------------------------------------------------------

type whatifStatsWire struct {
	Probes     int     `json:"probes"`
	Kept       int     `json:"kept"`
	Recomputed int     `json:"recomputed"`
	KeepRate   float64 `json:"keep_rate"`
	ProbeNs    int64   `json:"probe_ns"`
	ElapsedMs  float64 `json:"elapsed_ms"`
}

func toStatsWire(s kspr.WhatIfStats) whatifStatsWire {
	return whatifStatsWire{
		Probes:     s.Probes,
		Kept:       s.Kept,
		Recomputed: s.Recomputed,
		KeepRate:   s.KeepRate,
		ProbeNs:    s.ProbeNs,
		ElapsedMs:  float64(s.ElapsedNs) / float64(time.Millisecond),
	}
}

type competitorWire struct {
	ID            int     `json:"id"`
	StableID      int64   `json:"stable_id"`
	Label         string  `json:"label,omitempty"`
	MissShare     float64 `json:"miss_share"`
	PressureShare float64 `json:"pressure_share"`
}

type competitorsResponse struct {
	Dataset     string           `json:"dataset"`
	Generation  uint64           `json:"generation"`
	Focal       int              `json:"focal"`
	K           int              `json:"k"`
	Samples     int              `json:"samples"`
	Impact      float64          `json:"impact"`
	Miss        float64          `json:"miss"`
	Competitors []competitorWire `json:"competitors"`
	Cached      bool             `json:"cached"`
	// Trace carries the engine phase breakdown under ?debug=trace.
	Trace *traceWire `json:"trace,omitempty"`
}

type priceRequest struct {
	Dataset string  `json:"dataset"`
	Focal   int     `json:"focal"`
	K       int     `json:"k"`
	Attr    int     `json:"attr"`
	Target  float64 `json:"target"`
	// MaxDelta bounds the attribute increase (0 = automatic bracket
	// expansion); Eps is the bisection resolution (0 = 1e-6).
	MaxDelta     float64 `json:"max_delta,omitempty"`
	Eps          float64 `json:"eps,omitempty"`
	Samples      int     `json:"samples,omitempty"`
	Seed         int64   `json:"seed,omitempty"`
	VolumeMetric bool    `json:"volume_metric,omitempty"`
	Algorithm    string  `json:"algorithm,omitempty"`
	TimeoutMs    int     `json:"timeout_ms,omitempty"`
	NoCache      bool    `json:"no_cache,omitempty"`
}

type priceResponse struct {
	Dataset     string          `json:"dataset"`
	Generation  uint64          `json:"generation"`
	Focal       int             `json:"focal"`
	Attr        int             `json:"attr"`
	K           int             `json:"k"`
	Target      float64         `json:"target"`
	Delta       float64         `json:"delta"`
	Value       float64         `json:"value"`
	Impact      float64         `json:"impact"`
	Baseline    float64         `json:"baseline"`
	AlreadyMet  bool            `json:"already_met,omitempty"`
	LowerDelta  float64         `json:"lower_delta"`
	LowerImpact float64         `json:"lower_impact"`
	Stats       whatifStatsWire `json:"stats"`
	Cached      bool            `json:"cached"`
	// Trace carries the engine phase breakdown under ?debug=trace.
	Trace *traceWire `json:"trace,omitempty"`
}

type frontierRequest struct {
	Dataset string  `json:"dataset"`
	Focal   int     `json:"focal"`
	K       int     `json:"k"`
	Attr    int     `json:"attr"`
	Min     float64 `json:"min,omitempty"`
	Max     float64 `json:"max,omitempty"`
	// Steps is the grid size (0 = 16); capped by the server's MaxBatch.
	Steps        int    `json:"steps,omitempty"`
	Samples      int    `json:"samples,omitempty"`
	Seed         int64  `json:"seed,omitempty"`
	VolumeMetric bool   `json:"volume_metric,omitempty"`
	Algorithm    string `json:"algorithm,omitempty"`
	TimeoutMs    int    `json:"timeout_ms,omitempty"`
	NoCache      bool   `json:"no_cache,omitempty"`
}

type frontierPointWire struct {
	Value   float64 `json:"value"`
	Delta   float64 `json:"delta"`
	Impact  float64 `json:"impact"`
	Regions int     `json:"regions"`
	Kept    bool    `json:"kept,omitempty"`
}

type frontierResponse struct {
	Dataset    string              `json:"dataset"`
	Generation uint64              `json:"generation"`
	Focal      int                 `json:"focal"`
	Attr       int                 `json:"attr"`
	K          int                 `json:"k"`
	Points     []frontierPointWire `json:"points"`
	Stats      whatifStatsWire     `json:"stats"`
	Cached     bool                `json:"cached"`
	// Trace carries the engine phase breakdown under ?debug=trace.
	Trace *traceWire `json:"trace,omitempty"`
}

// ---- helpers -------------------------------------------------------------

// clampSamples applies the per-request Monte-Carlo bound with the
// library's what-if default, so cache keys and responses stay consistent
// with what the library would do on its own.
func clampSamples(n int) int {
	if n <= 0 {
		n = kspr.DefaultWhatIfSamples
	}
	if n > maxImpactSamples {
		n = maxImpactSamples
	}
	return n
}

// serveCached returns true after writing the cached response for key, with
// its Cached flag set via mark.
func (s *Server) serveCached(w http.ResponseWriter, key string, noCache bool, mark func(any) any) bool {
	if noCache {
		return false
	}
	v, ok := s.cache.Get(key)
	if !ok {
		return false
	}
	writeJSON(w, http.StatusOK, mark(v))
	return true
}

// ---- handlers ------------------------------------------------------------

// handleCompetitors serves GET /v1/impact:competitors: per-competitor
// attribution of the focal option's missing preference space.
func (s *Server) handleCompetitors(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	snap, ok := s.registry.Get(q.Get("dataset"))
	if !ok {
		writeError(w, http.StatusNotFound, "dataset %q not found", q.Get("dataset"))
		return
	}
	reqInfoFrom(r.Context()).noteDataset(snap)
	focal, err := strconv.Atoi(q.Get("focal"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid focal %q", q.Get("focal"))
		return
	}
	k, err := strconv.Atoi(q.Get("k"))
	if err != nil || k < 1 {
		writeError(w, http.StatusBadRequest, "invalid k %q", q.Get("k"))
		return
	}
	samples := 0
	if v := q.Get("samples"); v != "" {
		if samples, err = strconv.Atoi(v); err != nil {
			writeError(w, http.StatusBadRequest, "invalid samples %q", v)
			return
		}
	}
	samples = clampSamples(samples)
	var seed int64
	if v := q.Get("seed"); v != "" {
		if seed, err = strconv.ParseInt(v, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, "invalid seed %q", v)
			return
		}
	}
	algo, err := parseAlgorithm(q.Get("algorithm"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	noCache := q.Get("no_cache") == "1" || q.Get("no_cache") == "true"
	// EXPLAIN mode must actually run (and must not share its traced
	// response through the cache); see runKSPR.
	info := reqInfoFrom(r.Context())
	noCache = noCache || info.Debug()

	key := fmt.Sprintf("%s@%d|whatif.comp|f=%d|k=%d|a=%s|n=%d|seed=%d",
		snap.Name, snap.Generation, focal, k, algo.String(), samples, seed)
	if s.serveCached(w, key, noCache, func(v any) any {
		resp := *(v.(*competitorsResponse))
		resp.Cached = true
		return &resp
	}) {
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(0))
	defer cancel()
	val, err := s.pool.Submit(ctx, func(ctx context.Context) (any, error) {
		return snap.DB.Competitors(focal, k, samples, seed,
			kspr.WithAlgorithm(algo), kspr.WithContext(ctx), kspr.WithParallelism(1),
			kspr.WithoutGeometry(), kspr.WithTrace(info.Trace()))
	})
	if err != nil {
		writeError(w, errStatusCode(err), "%v", err)
		return
	}
	attr := val.(*kspr.Attribution)
	resp := &competitorsResponse{
		Dataset:    snap.Name,
		Generation: snap.Generation,
		Focal:      attr.Focal,
		K:          attr.K,
		Samples:    attr.Samples,
		Impact:     attr.Impact,
		Miss:       attr.Miss,
	}
	resp.Competitors = make([]competitorWire, len(attr.Competitors))
	for i, c := range attr.Competitors {
		cw := competitorWire{
			ID:            c.ID,
			StableID:      c.StableID,
			MissShare:     c.MissShare,
			PressureShare: c.PressureShare,
		}
		if c.ID < len(snap.Dataset.Labels) {
			cw.Label = snap.Dataset.Labels[c.ID]
		}
		resp.Competitors[i] = cw
	}
	if !noCache {
		s.cache.Put(key, resp)
	}
	s.metrics.AddWhatIf(1, 0)
	if info.Debug() {
		resp.Trace = traceToWire(info)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handlePrice serves POST /v1/whatif:price: the minimal reprice of one
// attribute reaching a target impact.
func (s *Server) handlePrice(w http.ResponseWriter, r *http.Request) {
	var req priceRequest
	if !decodeBody(w, r, &req) {
		return
	}
	snap, ok := s.registry.Get(req.Dataset)
	if !ok {
		writeError(w, http.StatusNotFound, "dataset %q not found", req.Dataset)
		return
	}
	reqInfoFrom(r.Context()).noteDataset(snap)
	if req.K < 1 {
		writeError(w, http.StatusBadRequest, "k must be >= 1, got %d", req.K)
		return
	}
	algo, err := parseAlgorithm(req.Algorithm)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	req.Samples = clampSamples(req.Samples)
	// EXPLAIN mode bypasses the cache; see runKSPR.
	info := reqInfoFrom(r.Context())
	req.NoCache = req.NoCache || info.Debug()

	key := fmt.Sprintf("%s@%d|whatif.price|f=%d|k=%d|a=%s|attr=%d|t=%x|md=%x|e=%x|n=%d|seed=%d|vm=%t",
		snap.Name, snap.Generation, req.Focal, req.K, algo.String(), req.Attr,
		math.Float64bits(req.Target), math.Float64bits(req.MaxDelta), math.Float64bits(req.Eps),
		req.Samples, req.Seed, req.VolumeMetric)
	if !req.NoCache {
		if v, ok := s.cache.Get(key); ok {
			e := v.(*priceCacheEntry)
			if e.unreachable != "" {
				// The 422 is as deterministic as the success answer (same
				// generation, same sample set); serving it from cache stops
				// a repeated unreachable target from re-burning the full
				// bisection on a pool worker each time.
				writeError(w, http.StatusUnprocessableEntity, "%s", e.unreachable)
				return
			}
			resp := *e.resp
			resp.Cached = true
			writeJSON(w, http.StatusOK, &resp)
			return
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMs))
	defer cancel()
	val, err := s.pool.Submit(ctx, func(ctx context.Context) (any, error) {
		return snap.DB.PriceToTarget(req.Focal, req.K, kspr.RepriceSpec{
			Attr:         req.Attr,
			Target:       req.Target,
			MaxDelta:     req.MaxDelta,
			Eps:          req.Eps,
			Samples:      req.Samples,
			Seed:         req.Seed,
			VolumeMetric: req.VolumeMetric,
		}, kspr.WithAlgorithm(algo), kspr.WithContext(ctx), kspr.WithParallelism(1),
			kspr.WithoutGeometry(), kspr.WithTrace(info.Trace()))
	})
	if err != nil {
		// An unreachable target is a well-formed request whose answer is
		// "no such price": 422, not 400 — and deterministic, so cache it.
		if errors.Is(err, kspr.ErrTargetUnreachable) {
			if !req.NoCache {
				s.cache.Put(key, &priceCacheEntry{unreachable: err.Error()})
			}
			if rp, ok := val.(*kspr.Reprice); ok && rp != nil {
				s.metrics.AddWhatIf(uint64(rp.Stats.Probes), uint64(rp.Stats.Kept))
			}
			writeError(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		writeError(w, errStatusCode(err), "%v", err)
		return
	}
	rp := val.(*kspr.Reprice)
	resp := &priceResponse{
		Dataset:     snap.Name,
		Generation:  snap.Generation,
		Focal:       rp.Focal,
		Attr:        rp.Attr,
		K:           rp.K,
		Target:      rp.Target,
		Delta:       rp.Delta,
		Value:       rp.Value,
		Impact:      rp.Impact,
		Baseline:    rp.Baseline,
		AlreadyMet:  rp.AlreadyMet,
		LowerDelta:  rp.LowerDelta,
		LowerImpact: rp.LowerImpact,
		Stats:       toStatsWire(rp.Stats),
	}
	if !req.NoCache {
		s.cache.Put(key, &priceCacheEntry{resp: resp})
	}
	s.metrics.AddWhatIf(uint64(rp.Stats.Probes), uint64(rp.Stats.Kept))
	if info.Debug() {
		resp.Trace = traceToWire(info)
	}
	writeJSON(w, http.StatusOK, resp)
}

// priceCacheEntry is what the cache stores for /v1/whatif:price: the
// success response, or the deterministic unreachable-target 422 message.
type priceCacheEntry struct {
	resp        *priceResponse
	unreachable string
}

// handleFrontier serves POST /v1/whatif:frontier: the impact-vs-price
// curve over an attribute grid.
func (s *Server) handleFrontier(w http.ResponseWriter, r *http.Request) {
	var req frontierRequest
	if !decodeBody(w, r, &req) {
		return
	}
	snap, ok := s.registry.Get(req.Dataset)
	if !ok {
		writeError(w, http.StatusNotFound, "dataset %q not found", req.Dataset)
		return
	}
	reqInfoFrom(r.Context()).noteDataset(snap)
	if req.K < 1 {
		writeError(w, http.StatusBadRequest, "k must be >= 1, got %d", req.K)
		return
	}
	if req.Steps == 0 {
		req.Steps = 16 // resolve the library default BEFORE the cap check
	}
	if req.Steps > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest, "frontier of %d steps exceeds limit %d", req.Steps, s.cfg.MaxBatch)
		return
	}
	algo, err := parseAlgorithm(req.Algorithm)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	req.Samples = clampSamples(req.Samples)
	// EXPLAIN mode bypasses the cache; see runKSPR.
	info := reqInfoFrom(r.Context())
	req.NoCache = req.NoCache || info.Debug()

	key := fmt.Sprintf("%s@%d|whatif.frontier|f=%d|k=%d|a=%s|attr=%d|min=%x|max=%x|st=%d|n=%d|seed=%d|vm=%t",
		snap.Name, snap.Generation, req.Focal, req.K, algo.String(), req.Attr,
		math.Float64bits(req.Min), math.Float64bits(req.Max), req.Steps,
		req.Samples, req.Seed, req.VolumeMetric)
	if s.serveCached(w, key, req.NoCache, func(v any) any {
		resp := *(v.(*frontierResponse))
		resp.Cached = true
		return &resp
	}) {
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMs))
	defer cancel()
	val, err := s.pool.Submit(ctx, func(ctx context.Context) (any, error) {
		return snap.DB.Frontier(req.Focal, req.K, kspr.FrontierSpec{
			Attr:         req.Attr,
			Min:          req.Min,
			Max:          req.Max,
			Steps:        req.Steps,
			Samples:      req.Samples,
			Seed:         req.Seed,
			VolumeMetric: req.VolumeMetric,
		}, kspr.WithAlgorithm(algo), kspr.WithContext(ctx), kspr.WithParallelism(1),
			kspr.WithoutGeometry(), kspr.WithTrace(info.Trace()))
	})
	if err != nil {
		writeError(w, errStatusCode(err), "%v", err)
		return
	}
	curve := val.(*kspr.FrontierCurve)
	resp := &frontierResponse{
		Dataset:    snap.Name,
		Generation: snap.Generation,
		Focal:      curve.Focal,
		Attr:       curve.Attr,
		K:          curve.K,
		Stats:      toStatsWire(curve.Stats),
	}
	resp.Points = make([]frontierPointWire, len(curve.Points))
	for i, p := range curve.Points {
		resp.Points[i] = frontierPointWire{
			Value:   p.Value,
			Delta:   p.Delta,
			Impact:  p.Impact,
			Regions: p.Regions,
			Kept:    p.Kept,
		}
	}
	if !req.NoCache {
		s.cache.Put(key, resp)
	}
	s.metrics.AddWhatIf(uint64(curve.Stats.Probes), uint64(curve.Stats.Kept))
	if info.Debug() {
		resp.Trace = traceToWire(info)
	}
	writeJSON(w, http.StatusOK, resp)
}
