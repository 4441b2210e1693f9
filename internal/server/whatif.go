// The what-if endpoints: competitive impact attribution
// (GET /v1/impact:competitors), repricing search (POST /v1/whatif:price),
// and impact–price frontiers (POST /v1/whatif:frontier). Each handler
// parses its request and maps the library's answer to its wire shape;
// serveWhatIf is the one request path they share. It calls the library's
// what-if layer on a pool worker, bounds the Monte-Carlo work per
// request, and caches responses under generation-prefixed keys, so a
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
	whatifRequest
	Attr   int     `json:"attr"`
	Target float64 `json:"target"`
	// MaxDelta bounds the attribute increase (0 = automatic bracket
	// expansion); Eps is the bisection resolution (0 = 1e-6).
	MaxDelta     float64 `json:"max_delta,omitempty"`
	Eps          float64 `json:"eps,omitempty"`
	VolumeMetric bool    `json:"volume_metric,omitempty"`
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
	whatifRequest
	Attr int     `json:"attr"`
	Min  float64 `json:"min,omitempty"`
	Max  float64 `json:"max,omitempty"`
	// Steps is the grid size (0 = 16); capped by the server's MaxBatch.
	Steps        int  `json:"steps,omitempty"`
	VolumeMetric bool `json:"volume_metric,omitempty"`
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

// ---- the shared request path ---------------------------------------------

// whatifRequest holds the fields every what-if request carries. The price
// and frontier bodies embed it; the competitors GET fills it from its
// query string.
type whatifRequest struct {
	Dataset   string `json:"dataset"`
	Focal     int    `json:"focal"`
	K         int    `json:"k"`
	Samples   int    `json:"samples,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	Algorithm string `json:"algorithm,omitempty"`
	TimeoutMs int    `json:"timeout_ms,omitempty"`
	NoCache   bool   `json:"no_cache,omitempty"`
}

// whatifResponse is the answer body of a what-if endpoint.
type whatifResponse interface {
	// probeCounts reports the impact probes the answer took and how many
	// of them the engine answered from its dominator count.
	probeCounts() (probes, kept uint64)
	// asCached returns a copy marked as served from the cache.
	asCached() whatifResponse
	setTrace(*traceWire)
}

func (r *competitorsResponse) probeCounts() (uint64, uint64) { return 1, 0 }
func (r *competitorsResponse) asCached() whatifResponse      { c := *r; c.Cached = true; return &c }
func (r *competitorsResponse) setTrace(t *traceWire)         { r.Trace = t }

func (r *priceResponse) probeCounts() (uint64, uint64) {
	return uint64(r.Stats.Probes), uint64(r.Stats.Kept)
}
func (r *priceResponse) asCached() whatifResponse { c := *r; c.Cached = true; return &c }
func (r *priceResponse) setTrace(t *traceWire)    { r.Trace = t }

func (r *frontierResponse) probeCounts() (uint64, uint64) {
	return uint64(r.Stats.Probes), uint64(r.Stats.Kept)
}
func (r *frontierResponse) asCached() whatifResponse { c := *r; c.Cached = true; return &c }
func (r *frontierResponse) setTrace(t *traceWire)    { r.Trace = t }

// whatifEntry is what the result cache stores for a what-if request: the
// answer and, for an unreachable price target, the message of its 422.
type whatifEntry struct {
	resp        whatifResponse
	unreachable string
}

// serveWhatIf is the one request path of the what-if endpoints. It
// resolves the dataset, validates and canonicalizes the shared fields of
// req (run reads the clamped sample count from it), answers from the
// result cache when it can, and otherwise calls run on a pool worker with
// the engine options every what-if call takes. kind and keyTail complete
// the cache key with what the endpoint's own fields decide. An
// unreachable price target is a 422, cached like an answer: it is as
// deterministic (same generation, same sample set), and serving it from
// cache stops a repeated unreachable target from re-burning the whole
// bisection on a pool worker.
func (s *Server) serveWhatIf(w http.ResponseWriter, r *http.Request, req *whatifRequest, kind, keyTail string,
	run func(snap *Snapshot, opts []kspr.QueryOption) (whatifResponse, error)) {
	snap, ok := s.registry.Get(req.Dataset)
	if !ok {
		writeError(w, http.StatusNotFound, "dataset %q not found", req.Dataset)
		return
	}
	info := reqInfoFrom(r.Context())
	info.noteDataset(snap)
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
	noteProbes := func(resp whatifResponse) {
		probes, kept := resp.probeCounts()
		info.noteStats(map[string]uint64{"probes": probes, "kept": kept})
	}

	// EXPLAIN mode bypasses the cache; see runKSPR.
	useCache := !req.NoCache && !info.Debug()
	key := fmt.Sprintf("%s@%d|whatif.%s|f=%d|k=%d|a=%s|n=%d|seed=%d|%s", snap.Name, snap.Generation, kind,
		req.Focal, req.K, algo.String(), req.Samples, req.Seed, keyTail)
	if useCache {
		if v, ok := s.cache.Get(key); ok {
			e := v.(*whatifEntry)
			info.noteCached(true)
			noteProbes(e.resp)
			if e.unreachable != "" {
				writeError(w, http.StatusUnprocessableEntity, "%s", e.unreachable)
				return
			}
			writeJSON(w, http.StatusOK, e.resp.asCached())
			return
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMs))
	defer cancel()
	val, err := s.pool.Submit(ctx, func(ctx context.Context) (any, error) {
		return run(snap, []kspr.QueryOption{kspr.WithAlgorithm(algo), kspr.WithContext(ctx),
			kspr.WithParallelism(1), kspr.WithoutGeometry(), kspr.WithTrace(info.Trace())})
	})
	// An unreachable target comes with the search's answer, so its probes
	// count like a success's.
	resp, _ := val.(whatifResponse)
	if resp != nil {
		s.metrics.AddWhatIf(resp.probeCounts())
		noteProbes(resp)
	}
	switch {
	case errors.Is(err, kspr.ErrTargetUnreachable):
		// A well-formed request whose answer is "no such price": 422, not
		// 400.
		if useCache {
			s.cache.Put(key, &whatifEntry{resp: resp, unreachable: err.Error()})
		}
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	case err != nil:
		writeError(w, errStatusCode(err), "%v", err)
		return
	}
	if useCache {
		s.cache.Put(key, &whatifEntry{resp: resp})
	}
	if info.Debug() {
		resp.setTrace(traceToWire(info))
	}
	writeJSON(w, http.StatusOK, resp)
}

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

// ---- handlers ------------------------------------------------------------

// handleCompetitors serves GET /v1/impact:competitors: per-competitor
// attribution of the focal option's missing preference space. Like GET
// /v1/kspr it rejects query parameter names it does not know.
func (s *Server) handleCompetitors(w http.ResponseWriter, r *http.Request) {
	var req whatifRequest
	if !parseQuery(w, r, func(name, raw string) (err error) {
		switch name {
		case "dataset":
			req.Dataset = raw
		case "algorithm":
			req.Algorithm = raw
		case "focal":
			req.Focal, err = strconv.Atoi(raw)
		case "k":
			req.K, err = strconv.Atoi(raw)
		case "samples":
			req.Samples, err = strconv.Atoi(raw)
		case "seed":
			req.Seed, err = strconv.ParseInt(raw, 10, 64)
		case "no_cache":
			req.NoCache, err = strconv.ParseBool(raw)
		default:
			return errUnknownParam
		}
		return err
	}) {
		return
	}
	s.serveWhatIf(w, r, &req, "comp", "", func(snap *Snapshot, opts []kspr.QueryOption) (whatifResponse, error) {
		attr, err := snap.DB.Competitors(req.Focal, req.K, req.Samples, req.Seed, opts...)
		if err != nil {
			return nil, err
		}
		resp := &competitorsResponse{
			Dataset:     snap.Name,
			Generation:  snap.Generation,
			Focal:       attr.Focal,
			K:           attr.K,
			Samples:     attr.Samples,
			Impact:      attr.Impact,
			Miss:        attr.Miss,
			Competitors: make([]competitorWire, len(attr.Competitors)),
		}
		for i, c := range attr.Competitors {
			resp.Competitors[i] = competitorWire{
				ID:            c.ID,
				StableID:      c.StableID,
				MissShare:     c.MissShare,
				PressureShare: c.PressureShare,
			}
			if c.ID < len(snap.Dataset.Labels) {
				resp.Competitors[i].Label = snap.Dataset.Labels[c.ID]
			}
		}
		return resp, nil
	})
}

// handlePrice serves POST /v1/whatif:price: the minimal reprice of one
// attribute reaching a target impact.
func (s *Server) handlePrice(w http.ResponseWriter, r *http.Request) {
	var req priceRequest
	if !decodeBody(w, r, &req) {
		return
	}
	keyTail := fmt.Sprintf("attr=%d|t=%x|md=%x|e=%x|vm=%t", req.Attr, math.Float64bits(req.Target),
		math.Float64bits(req.MaxDelta), math.Float64bits(req.Eps), req.VolumeMetric)
	s.serveWhatIf(w, r, &req.whatifRequest, "price", keyTail, func(snap *Snapshot, opts []kspr.QueryOption) (whatifResponse, error) {
		rp, err := snap.DB.PriceToTarget(req.Focal, req.K, kspr.RepriceSpec{
			Attr:         req.Attr,
			Target:       req.Target,
			MaxDelta:     req.MaxDelta,
			Eps:          req.Eps,
			Samples:      req.Samples,
			Seed:         req.Seed,
			VolumeMetric: req.VolumeMetric,
		}, opts...)
		if rp == nil {
			return nil, err
		}
		return &priceResponse{
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
		}, err
	})
}

// handleFrontier serves POST /v1/whatif:frontier: the impact-vs-price
// curve over an attribute grid.
func (s *Server) handleFrontier(w http.ResponseWriter, r *http.Request) {
	var req frontierRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Steps == 0 {
		req.Steps = 16 // resolve the library default BEFORE the cap check
	}
	if req.Steps > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest, "frontier of %d steps exceeds limit %d", req.Steps, s.cfg.MaxBatch)
		return
	}
	keyTail := fmt.Sprintf("attr=%d|min=%x|max=%x|st=%d|vm=%t", req.Attr,
		math.Float64bits(req.Min), math.Float64bits(req.Max), req.Steps, req.VolumeMetric)
	s.serveWhatIf(w, r, &req.whatifRequest, "frontier", keyTail, func(snap *Snapshot, opts []kspr.QueryOption) (whatifResponse, error) {
		curve, err := snap.DB.Frontier(req.Focal, req.K, kspr.FrontierSpec{
			Attr:         req.Attr,
			Min:          req.Min,
			Max:          req.Max,
			Steps:        req.Steps,
			Samples:      req.Samples,
			Seed:         req.Seed,
			VolumeMetric: req.VolumeMetric,
		}, opts...)
		if err != nil {
			return nil, err
		}
		resp := &frontierResponse{
			Dataset:    snap.Name,
			Generation: snap.Generation,
			Focal:      curve.Focal,
			Attr:       curve.Attr,
			K:          curve.K,
			Points:     make([]frontierPointWire, len(curve.Points)),
			Stats:      toStatsWire(curve.Stats),
		}
		for i, p := range curve.Points {
			resp.Points[i] = frontierPointWire{
				Value:   p.Value,
				Delta:   p.Delta,
				Impact:  p.Impact,
				Regions: p.Regions,
				Kept:    p.Kept,
			}
		}
		return resp, nil
	})
}
