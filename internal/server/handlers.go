package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	kspr "repro"
	"repro/internal/dataset"
	"repro/internal/obs"
)

// ---- wire types ----------------------------------------------------------

type errorResponse struct {
	Error string `json:"error"`
}

type loadRequest struct {
	Name string `json:"name"`
	// Exactly one source: a CSV file path, inline CSV text, or a synthetic
	// generator spec.
	Path     string       `json:"path,omitempty"`
	CSV      string       `json:"csv,omitempty"`
	Generate *generateReq `json:"generate,omitempty"`
}

type generateReq struct {
	Dist string `json:"dist"` // IND | COR | ANTI
	N    int    `json:"n"`
	D    int    `json:"d"`
	Seed int64  `json:"seed"`
}

type queryRequest struct {
	Dataset string `json:"dataset"`
	Focal   int    `json:"focal"`
	// FocalVector queries a hypothetical record not in the dataset; when
	// set, Focal is ignored.
	FocalVector []float64 `json:"focal_vector,omitempty"`
	K           int       `json:"k"`
	Algorithm   string    `json:"algorithm,omitempty"` // cta | p-cta | lp-cta | k-skyband
	Space       string    `json:"space,omitempty"`     // transformed | original
	Bounds      string    `json:"bounds,omitempty"`    // fast | group | record
	// Volumes measures every region (exact for preference spaces of up to
	// 3 dimensions, Monte-Carlo above); VolumeSamples bounds the Monte-Carlo sample
	// count (0 = library default, 10000). Both are part of the cache key.
	Volumes       bool  `json:"volumes,omitempty"`
	VolumeSamples int   `json:"volume_samples,omitempty"`
	NoGeometry    bool  `json:"no_geometry,omitempty"`
	Seed          int64 `json:"seed,omitempty"`
	TimeoutMs     int   `json:"timeout_ms,omitempty"`
	NoCache       bool  `json:"no_cache,omitempty"`
	// Parallelism asks the engine to expand this query on up to this many
	// goroutines. Absent or 0 means serial: unlike the library default, the
	// server only parallelizes when explicitly asked, so one request cannot
	// grab cores unrequested. The grant is capped by the server's
	// MaxParallelism and by what the shared CPU budget has free at
	// execution time; results are identical at any value, so the field is
	// excluded from the cache key.
	Parallelism int `json:"parallelism,omitempty"`
}

type regionWire struct {
	Rank      int         `json:"rank"`
	RankExact bool        `json:"rank_exact"`
	Witness   []float64   `json:"witness"`
	Vertices  [][]float64 `json:"vertices,omitempty"`
	Volume    float64     `json:"volume,omitempty"`
	// Outscorers are the stable option ids proven to outrank the focal
	// throughout the region (complete when rank_exact). Stable ids stay
	// valid across result-preserving mutations, so migrated cache entries
	// keep reporting the right competitors.
	Outscorers []int64 `json:"outscorers,omitempty"`
}

type statsWire struct {
	ProcessedRecords int     `json:"processed_records"`
	CellTreeNodes    int     `json:"celltree_nodes"`
	Batches          int     `json:"batches"`
	BaseRank         int     `json:"base_rank"`
	LPSolves         int     `json:"lp_solves"`
	EarlyReported    int     `json:"early_reported"`
	EarlyPruned      int     `json:"early_pruned"`
	CellsPruned      int     `json:"cells_pruned"`
	Parallelism      int     `json:"parallelism,omitempty"`
	Regions          int     `json:"regions"`
	ElapsedMs        float64 `json:"elapsed_ms"`
}

type queryResponse struct {
	Dataset    string       `json:"dataset"`
	Generation uint64       `json:"generation"`
	Focal      int          `json:"focal"`
	K          int          `json:"k"`
	Algorithm  string       `json:"algorithm"`
	Space      string       `json:"space"`
	Regions    []regionWire `json:"regions"`
	Stats      statsWire    `json:"stats"`
	Cached     bool         `json:"cached"`
	// Trace carries the engine phase breakdown under ?debug=trace.
	Trace *traceWire `json:"trace,omitempty"`
}

type batchQuery struct {
	Focal int `json:"focal"`
	// FocalVector queries a hypothetical record; when set, Focal is
	// ignored.
	FocalVector []float64 `json:"focal_vector,omitempty"`
	// K overrides the envelope's default shortlist size for this item.
	K int `json:"k"`
}

// batchRequest is the envelope of a batch call: the whole JSON body in the
// legacy application/json form (with inline Queries), or the first line of
// an application/x-ndjson body (items then follow one per line).
type batchRequest struct {
	Dataset string       `json:"dataset"`
	Queries []batchQuery `json:"queries,omitempty"`
	// K is the default shortlist size for items that do not set their own.
	K             int    `json:"k,omitempty"`
	Algorithm     string `json:"algorithm,omitempty"`
	Space         string `json:"space,omitempty"`
	Bounds        string `json:"bounds,omitempty"`
	Volumes       bool   `json:"volumes,omitempty"`
	VolumeSamples int    `json:"volume_samples,omitempty"`
	NoGeometry    bool   `json:"no_geometry,omitempty"`
	Seed          int64  `json:"seed,omitempty"`
	TimeoutMs     int    `json:"timeout_ms,omitempty"`
	// ItemTimeoutMs bounds each item's processing time individually
	// (measured from when the item starts running, not from request
	// arrival), so one pathological item 504s on its own line instead of
	// consuming the batch deadline.
	ItemTimeoutMs int  `json:"item_timeout_ms,omitempty"`
	NoCache       bool `json:"no_cache,omitempty"`
	// Parallelism is the engine parallelism for the WHOLE batch: one
	// KSPRBatch call schedules the items on 1 + granted extra CPU slots.
	// When the budget has slots but all are claimed, the request fails
	// with 429 rather than degrading N queries to one core.
	Parallelism int `json:"parallelism,omitempty"`
}

// batchLine is one NDJSON line of the batch stream.
type batchLine struct {
	Index  int            `json:"index"`
	Error  string         `json:"error,omitempty"`
	Status int            `json:"status,omitempty"`
	Result *queryResponse `json:"result,omitempty"`
	// Trace is the batch-wide phase breakdown, emitted once as a trailer
	// line with Index == -1 under ?debug=trace (the engine aggregates all
	// items into one trace, so per-item attribution is not meaningful).
	Trace *traceWire `json:"trace,omitempty"`
}

type topkRequest struct {
	Dataset string    `json:"dataset"`
	Weights []float64 `json:"weights"`
	K       int       `json:"k"`
}

type topkEntry struct {
	ID    int     `json:"id"`
	Score float64 `json:"score"`
	Label string  `json:"label,omitempty"`
}

type topkResponse struct {
	Dataset    string      `json:"dataset"`
	Generation uint64      `json:"generation"`
	K          int         `json:"k"`
	Results    []topkEntry `json:"results"`
}

type skylineResponse struct {
	Dataset    string   `json:"dataset"`
	Generation uint64   `json:"generation"`
	K          int      `json:"k,omitempty"` // >0: k-skyband
	IDs        []int    `json:"ids"`
	Labels     []string `json:"labels,omitempty"`
	Count      int      `json:"count"`
}

type densityReq struct {
	// Name selects the preference density: uniform (default), dirichlet
	// (with Alpha, one concentration per attribute), or gaussian (with
	// Center in the weight simplex and Sigma).
	Name   string    `json:"name"`
	Alpha  []float64 `json:"alpha,omitempty"`
	Center []float64 `json:"center,omitempty"`
	Sigma  float64   `json:"sigma,omitempty"`
}

type impactRequest struct {
	Dataset   string      `json:"dataset"`
	Focal     int         `json:"focal"`
	K         int         `json:"k"`
	Algorithm string      `json:"algorithm,omitempty"`
	Samples   int         `json:"samples,omitempty"`
	Seed      int64       `json:"seed,omitempty"`
	Density   *densityReq `json:"density,omitempty"`
	TimeoutMs int         `json:"timeout_ms,omitempty"`
	NoCache   bool        `json:"no_cache,omitempty"`
}

type impactResponse struct {
	Dataset     string  `json:"dataset"`
	Generation  uint64  `json:"generation"`
	Focal       int     `json:"focal"`
	K           int     `json:"k"`
	Density     string  `json:"density"`
	Samples     int     `json:"samples"`
	Probability float64 `json:"probability"`
	Regions     int     `json:"regions"`
	Cached      bool    `json:"cached"`
}

// ---- helpers -------------------------------------------------------------

// maxImpactSamples bounds the Monte-Carlo sample count any single request
// may demand of a pool worker (impact sampling, volume measurement, and
// the what-if probes all share it).
const maxImpactSamples = 1_000_000

// normalizeVolumeSamples canonicalizes the volume_samples field before it
// enters a cache key: it is meaningless without volumes, non-positive
// means the library default (10000), and the per-request Monte-Carlo cap
// applies — so semantically identical requests share one cache entry.
func normalizeVolumeSamples(volumes bool, samples int) int {
	switch {
	case !volumes:
		return 0
	case samples <= 0:
		return 10000
	case samples > maxImpactSamples:
		return maxImpactSamples
	}
	return samples
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// errStatus maps a query error to an HTTP status: deadline expiry is 504
// (the request-scoped timeout fired mid-query), cancellation 499-style 503,
// pool shutdown 503, everything else 400 (all remaining library errors are
// input validation: bad focal, bad k, ...).
func errStatusCode(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, ErrPoolClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// durationParam parses a query value as a non-negative number of units
// (time.Second for since_sec and step_sec, time.Millisecond for
// min_latency_ms). It rejects a value that is not a number, is negative,
// non-finite or beyond time.Duration's range, or is zero when positive is
// set. The range check happens before the conversion, whose result Go
// leaves to the implementation for out-of-range floats.
func durationParam(raw string, unit time.Duration, positive bool) (time.Duration, error) {
	v, err := strconv.ParseFloat(raw, 64)
	ns := v * float64(unit)
	if err != nil || !(ns >= 0) || ns >= math.MaxInt64 || (positive && ns == 0) {
		if positive {
			return 0, errors.New("want a finite number > 0")
		}
		return 0, errors.New("want a finite number >= 0")
	}
	return time.Duration(ns), nil
}

// limitParam parses a query value as a non-negative result cap.
func limitParam(raw string) (int, error) {
	v, err := strconv.Atoi(raw)
	if err == nil && v < 0 {
		err = errors.New("must not be negative")
	}
	return v, err
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

func parseAlgorithm(s string) (kspr.Algorithm, error) {
	switch strings.ToLower(s) {
	case "", "lp-cta", "lpcta":
		return kspr.LPCTA, nil
	case "cta":
		return kspr.CTA, nil
	case "p-cta", "pcta":
		return kspr.PCTA, nil
	case "k-skyband", "kskyband":
		return kspr.KSkybandCTA, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q (want cta, p-cta, lp-cta, k-skyband)", s)
	}
}

func parseSpace(s string) (kspr.Space, error) {
	switch strings.ToLower(s) {
	case "", "transformed":
		return kspr.Transformed, nil
	case "original":
		return kspr.Original, nil
	default:
		return 0, fmt.Errorf("unknown space %q", s)
	}
}

func parseBounds(s string) (kspr.BoundsMode, error) {
	switch strings.ToLower(s) {
	case "", "fast", "fast_bounds":
		return kspr.FastBounds, nil
	case "group", "group_bounds":
		return kspr.GroupBounds, nil
	case "record", "record_bounds":
		return kspr.RecordBounds, nil
	default:
		return 0, fmt.Errorf("unknown bounds mode %q", s)
	}
}

// timeout resolves the effective per-request deadline.
func (s *Server) timeout(ms int) time.Duration {
	t := s.cfg.DefaultTimeout
	if ms > 0 {
		t = time.Duration(ms) * time.Millisecond
	}
	if t > s.cfg.MaxTimeout {
		t = s.cfg.MaxTimeout
	}
	return t
}

// ---- dataset admin -------------------------------------------------------

func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.registry.List())
}

func (s *Server) handleDatasetLoad(w http.ResponseWriter, r *http.Request) {
	var req loadRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, "dataset name is required")
		return
	}
	sources := 0
	for _, set := range []bool{req.Path != "", req.CSV != "", req.Generate != nil} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		writeError(w, http.StatusBadRequest, "exactly one of path, csv, generate is required")
		return
	}
	var (
		snap *Snapshot
		err  error
	)
	switch {
	case req.Path != "":
		snap, err = s.registry.LoadCSV(req.Name, req.Path)
	case req.CSV != "":
		var ds *dataset.Dataset
		ds, err = dataset.ReadCSV(strings.NewReader(req.CSV), req.Name)
		if err == nil {
			snap, err = s.registry.Load(req.Name, ds, "inline")
		}
	default:
		g := req.Generate
		var ds *dataset.Dataset
		ds, err = dataset.Generate(dataset.Distribution(strings.ToUpper(g.Dist)), g.N, g.D, g.Seed)
		if err == nil {
			snap, err = s.registry.Load(req.Name, ds,
				fmt.Sprintf("generated %s n=%d d=%d seed=%d", strings.ToUpper(g.Dist), g.N, g.D, g.Seed))
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	reqInfoFrom(r.Context()).noteDataset(snap)
	s.journal.Append(obs.JournalEvent{
		Type:            obs.EventDatasetLoad,
		Dataset:         snap.Name,
		Generation:      snap.Generation,
		StoreGeneration: snap.StoreGeneration,
		Detail:          map[string]any{"records": snap.DB.Len(), "source": snap.Source},
	})
	writeJSON(w, http.StatusOK, DatasetInfo{
		Name:            snap.Name,
		Generation:      snap.Generation,
		StoreGeneration: snap.StoreGeneration,
		Durable:         snap.Durable,
		Records:         snap.DB.Len(),
		Dims:            snap.DB.Dim(),
		Attributes:      snap.Dataset.Attributes,
		Source:          snap.Source,
		LoadedAt:        snap.LoadedAt,
		IndexWarm:       snap.IndexWarm,
	})
}

func (s *Server) handleDatasetUnload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.registry.Unload(name) {
		writeError(w, http.StatusNotFound, "dataset %q not found", name)
		return
	}
	s.journal.Append(obs.JournalEvent{Type: obs.EventDatasetUnload, Dataset: name})
	writeJSON(w, http.StatusOK, map[string]string{"unloaded": name})
}

// ---- kSPR query ----------------------------------------------------------

// querySpec is what decides a kSPR answer besides k and the focal,
// parsed once per request or batch envelope and already canonical:
// spelling variants of one algorithm parse to one value, the volume
// sample count is normalized, the bound mode is the default unless the
// algorithm is LP-CTA, and the seed is zero unless Monte-Carlo volumes
// read it. It renders both the result-cache key and the engine
// options, so the two cannot disagree.
type querySpec struct {
	algo          kspr.Algorithm
	space         kspr.Space
	bounds        kspr.BoundsMode
	geometry      bool
	volumes       bool
	volumeSamples int
	seed          int64
}

// parseSpec is the one place the request fields that decide a kSPR
// answer are validated and canonicalized.
func parseSpec(algorithm, space, bounds string, volumes bool, volumeSamples int, noGeometry bool, seed int64) (querySpec, error) {
	spec := querySpec{
		geometry:      !noGeometry,
		volumes:       volumes,
		volumeSamples: normalizeVolumeSamples(volumes, volumeSamples),
	}
	if volumes {
		spec.seed = seed
	}
	var err error
	if spec.algo, err = parseAlgorithm(algorithm); err != nil {
		return querySpec{}, err
	}
	if spec.space, err = parseSpace(space); err != nil {
		return querySpec{}, err
	}
	if spec.bounds, err = parseBounds(bounds); err != nil {
		return querySpec{}, err
	}
	if spec.algo != kspr.LPCTA {
		// Only LP-CTA's look-ahead reads the bound mode.
		spec.bounds = kspr.FastBounds
	}
	return spec, nil
}

// ksprKeyPrefix starts every kSPR result-cache key of snap's generation,
// so a reload or mutation orphans the old keys and migrateCache can scan
// for them.
func ksprKeyPrefix(snap *Snapshot) string {
	return fmt.Sprintf("%s@%d|kspr|", snap.Name, snap.Generation)
}

// key renders the result-cache key of the query (k, focal) under the spec
// on snap. focal is the dense id, or -1 for the focal vector vec.
func (q querySpec) key(snap *Snapshot, k, focal int, vec []float64) string {
	var b strings.Builder
	b.WriteString(ksprKeyPrefix(snap))
	fmt.Fprintf(&b, "k=%d|a=%s|s=%s|b=%s|v=%t|vs=%d|g=%t|seed=%d",
		k, q.algo.String(), q.space.String(), q.bounds.String(),
		q.volumes, q.volumeSamples, q.geometry, q.seed)
	if vec != nil {
		b.WriteString("|fv=")
		for _, v := range vec {
			fmt.Fprintf(&b, "%x,", math.Float64bits(v))
		}
	} else {
		fmt.Fprintf(&b, "|f=%d", focal)
	}
	return b.String()
}

// options renders the engine options of one run under the spec.
func (q querySpec) options(ctx context.Context, parallelism int, trace *obs.Trace) []kspr.QueryOption {
	opts := []kspr.QueryOption{
		kspr.WithContext(ctx),
		kspr.WithAlgorithm(q.algo),
		kspr.WithSpace(q.space),
		kspr.WithBoundsMode(q.bounds),
		kspr.WithSeed(q.seed),
		kspr.WithParallelism(parallelism),
		kspr.WithTrace(trace),
	}
	if q.volumes {
		opts = append(opts, kspr.WithVolumes(q.volumeSamples))
	}
	if !q.geometry {
		opts = append(opts, kspr.WithoutGeometry())
	}
	return opts
}

// cachedQuery is what the result cache stores: the spec, k and focal the
// entry is keyed by (kept so the mutation path can re-key it across
// generations), the wire response, and the library result (reused by
// /v1/impact for region-membership sampling). All are immutable once
// cached.
type cachedQuery struct {
	spec  querySpec
	k     int
	focal int       // dense id, or -1 for a focal vector
	vec   []float64 // nil for a focal id
	resp  *queryResponse
	res   *kspr.Result
}

// cachedKSPR looks key up in the result cache and returns a copy of the
// cached response marked as cached (its regions are shared, immutable).
func (s *Server) cachedKSPR(key string) (*queryResponse, *kspr.Result, bool) {
	v, ok := s.cache.Get(key)
	if !ok {
		return nil, nil, false
	}
	cq := v.(*cachedQuery)
	resp := *cq.resp
	resp.Cached = true
	return &resp, cq.res, true
}

// runKSPR executes (or serves from cache) one kSPR query on the pool. It
// returns the wire response plus the library result.
func (s *Server) runKSPR(ctx context.Context, snap *Snapshot, req queryRequest) (*queryResponse, *kspr.Result, error) {
	spec, err := parseSpec(req.Algorithm, req.Space, req.Bounds, req.Volumes, req.VolumeSamples, req.NoGeometry, req.Seed)
	if err != nil {
		return nil, nil, err
	}
	if req.K < 1 {
		return nil, nil, fmt.Errorf("k must be >= 1, got %d", req.K)
	}
	focal := req.Focal
	if req.FocalVector != nil {
		focal = -1
	}

	// EXPLAIN-mode requests bypass the cache entirely: a hit would have no
	// phases to report, and a traced response must not be shared with
	// untraced callers. Slow-query-log traces do not force a miss — a hit
	// is by definition not slow.
	info := reqInfoFrom(ctx)
	useCache := !req.NoCache && !info.Debug()
	key := spec.key(snap, req.K, focal, req.FocalVector)
	if useCache {
		if resp, res, ok := s.cachedKSPR(key); ok {
			return resp, res, nil
		}
	}

	// Resolve the parallelism ask now; the actual CPU-slot grant happens on
	// the worker, so slots are held only while the query runs, not while it
	// queues.
	ask := req.Parallelism
	if ask < 1 {
		ask = 1
	}
	if ask > s.cfg.MaxParallelism {
		ask = s.cfg.MaxParallelism
	}

	val, err := s.pool.Submit(ctx, func(ctx context.Context) (any, error) {
		parallelism := 1
		if ask > 1 {
			granted := s.cpu.Acquire(ask - 1)
			defer s.cpu.Release(granted)
			parallelism = 1 + granted
		}
		opts := spec.options(ctx, parallelism, info.Trace())
		if req.FocalVector != nil {
			return snap.DB.KSPRVector(req.FocalVector, req.K, opts...)
		}
		return snap.DB.KSPR(req.Focal, req.K, opts...)
	})
	if err != nil {
		return nil, nil, err
	}
	res := val.(*kspr.Result)
	resp := newQueryResponse(snap, spec, req.K, focal, res)
	if useCache {
		s.cache.Put(key, &cachedQuery{spec: spec, k: req.K, focal: focal, vec: req.FocalVector, resp: resp, res: res})
	}
	return resp, res, nil
}

// newQueryResponse renders one kSPR result in the wire shape shared by
// single queries and batch lines; focal is -1 for a focal vector.
func newQueryResponse(snap *Snapshot, spec querySpec, k, focal int, res *kspr.Result) *queryResponse {
	resp := &queryResponse{
		Dataset:    snap.Name,
		Generation: snap.Generation,
		Focal:      focal,
		K:          k,
		Algorithm:  spec.algo.String(),
		Space:      spec.space.String(),
		Regions:    make([]regionWire, len(res.Regions)),
	}
	for i := range res.Regions {
		reg := &res.Regions[i]
		wire := regionWire{
			Rank:      reg.Rank,
			RankExact: reg.RankExact,
			Witness:   reg.Witness,
			Volume:    reg.Volume,
		}
		if len(reg.Outscorers) > 0 {
			wire.Outscorers = make([]int64, 0, len(reg.Outscorers))
			for _, id := range reg.Outscorers {
				if sid, ok := snap.DB.StableID(id); ok {
					wire.Outscorers = append(wire.Outscorers, sid)
				}
			}
		}
		if len(reg.Vertices) > 0 {
			wire.Vertices = make([][]float64, len(reg.Vertices))
			for j, v := range reg.Vertices {
				wire.Vertices[j] = v
			}
		}
		resp.Regions[i] = wire
	}
	resp.Stats = statsWire{
		ProcessedRecords: res.Stats.ProcessedRecords,
		CellTreeNodes:    res.Stats.CellTreeNodes,
		Batches:          res.Stats.Batches,
		BaseRank:         res.Stats.BaseRank,
		LPSolves:         res.Stats.LPSolves,
		EarlyReported:    res.Stats.EarlyReported,
		EarlyPruned:      res.Stats.EarlyPruned,
		CellsPruned:      res.Stats.CellsPruned,
		Parallelism:      res.Stats.Parallelism,
		Regions:          len(res.Regions),
		ElapsedMs:        float64(res.Stats.Elapsed) / float64(time.Millisecond),
	}
	return resp
}

func (s *Server) handleKSPR(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s.serveKSPR(w, r, req)
}

// handleKSPRGet is the query-string form of /v1/kspr — the same query
// surface as the POST body (minus focal_vector, which has no natural
// query-string encoding), convenient for curl and EXPLAIN-mode poking:
// GET /v1/kspr?dataset=d&focal=3&k=5&algorithm=lp-cta&debug=trace.
// Like the POST body it rejects names it does not know (parseQuery).
func (s *Server) handleKSPRGet(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !parseQuery(w, r, func(name, raw string) (err error) {
		switch name {
		case "dataset":
			req.Dataset = raw
		case "algorithm":
			req.Algorithm = raw
		case "space":
			req.Space = raw
		case "bounds":
			req.Bounds = raw
		case "focal":
			req.Focal, err = strconv.Atoi(raw)
		case "k":
			req.K, err = strconv.Atoi(raw)
		case "volume_samples":
			req.VolumeSamples, err = strconv.Atoi(raw)
		case "timeout_ms":
			req.TimeoutMs, err = strconv.Atoi(raw)
		case "parallelism":
			req.Parallelism, err = strconv.Atoi(raw)
		case "volumes":
			req.Volumes, err = strconv.ParseBool(raw)
		case "no_geometry":
			req.NoGeometry, err = strconv.ParseBool(raw)
		case "no_cache":
			req.NoCache, err = strconv.ParseBool(raw)
		case "seed":
			req.Seed, err = strconv.ParseInt(raw, 10, 64)
		default:
			return errUnknownParam
		}
		return err
	}) {
		return
	}
	s.serveKSPR(w, r, req)
}

// errUnknownParam is what a parseQuery setter returns for a name it does
// not know.
var errUnknownParam = errors.New("unknown query parameter")

// parseQuery reads a GET request's query string through set, one name at
// a time: an empty value means absent, and debug, read by the request
// middleware, is the one name set never sees. It answers 400 and returns
// false for a name set does not know (errUnknownParam), so a typo is an
// error rather than a silent default, and for a value set cannot parse.
func parseQuery(w http.ResponseWriter, r *http.Request, set func(name, raw string) error) bool {
	for name, vals := range r.URL.Query() {
		raw := vals[0]
		if raw == "" || name == "debug" {
			continue
		}
		switch err := set(name, raw); {
		case errors.Is(err, errUnknownParam):
			writeError(w, http.StatusBadRequest, "unknown query parameter %q", name)
			return false
		case err != nil:
			writeError(w, http.StatusBadRequest, "invalid %s=%q: %v", name, raw, err)
			return false
		}
	}
	return true
}

// serveKSPR is the shared tail of the GET and POST query handlers.
func (s *Server) serveKSPR(w http.ResponseWriter, r *http.Request, req queryRequest) {
	snap, ok := s.registry.Get(req.Dataset)
	if !ok {
		writeError(w, http.StatusNotFound, "dataset %q not found", req.Dataset)
		return
	}
	info := reqInfoFrom(r.Context())
	info.noteDataset(snap)
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMs))
	defer cancel()
	resp, _, err := s.runKSPR(ctx, snap, req)
	if err != nil {
		writeError(w, errStatusCode(err), "%v", err)
		return
	}
	info.noteCached(resp.Cached)
	info.noteStats(resp.Stats)
	if info.Debug() {
		resp.Trace = traceToWire(info)
	}
	writeJSON(w, http.StatusOK, resp)
}

// batchEmitter serializes the batch stream: every item settles exactly
// once (parse error, cache hit, engine outcome, or abort), lines land on a
// buffered channel the handler drains, and finish backfills error lines
// for anything unsettled when the batch stops early. The channel buffer
// holds one line per item, so settles never block.
type batchEmitter struct {
	mu      sync.Mutex
	closed  bool
	settled []bool
	lines   chan batchLine
}

func newBatchEmitter(n int) *batchEmitter {
	return &batchEmitter{settled: make([]bool, n), lines: make(chan batchLine, n)}
}

// settle emits the line for item i unless it already settled or the stream
// is finished.
func (e *batchEmitter) settle(i int, line batchLine) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || e.settled[i] {
		return
	}
	e.settled[i] = true
	e.lines <- line
}

// finish settles every remaining item with err (or a generic abort) and
// closes the stream.
func (e *batchEmitter) finish(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	msg, status := "batch aborted", http.StatusServiceUnavailable
	if err != nil {
		msg, status = err.Error(), errStatusCode(err)
	}
	for i, done := range e.settled {
		if !done {
			e.settled[i] = true
			e.lines <- batchLine{Index: i, Error: msg, Status: status}
		}
	}
	e.closed = true
	close(e.lines)
}

// decodeBatchRequest reads a batch call in either wire form: a plain JSON
// envelope with inline queries, or (Content-Type application/x-ndjson) an
// envelope line followed by one item per line. A malformed NDJSON item
// line becomes a per-item parse error at its index — the surrounding batch
// still runs — while envelope-level problems reject the whole request.
func (s *Server) decodeBatchRequest(w http.ResponseWriter, r *http.Request) (batchRequest, []batchQuery, map[int]string, bool) {
	var req batchRequest
	if !strings.Contains(r.Header.Get("Content-Type"), "ndjson") {
		if !decodeBody(w, r, &req) {
			return req, nil, nil, false
		}
		return req, req.Queries, nil, true
	}
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, 16<<20))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var items []batchQuery
	parseErrs := make(map[int]string)
	header := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if !header {
			header = true
			if err := dec.Decode(&req); err != nil {
				writeError(w, http.StatusBadRequest, "invalid batch header line: %v", err)
				return req, nil, nil, false
			}
			if len(req.Queries) > 0 {
				writeError(w, http.StatusBadRequest,
					"ndjson batch: send items as body lines, not in the header's queries field")
				return req, nil, nil, false
			}
			continue
		}
		var q batchQuery
		if err := dec.Decode(&q); err != nil {
			parseErrs[len(items)] = fmt.Sprintf("invalid batch item: %v", err)
			items = append(items, batchQuery{})
			continue
		}
		items = append(items, q)
	}
	if err := sc.Err(); err != nil {
		writeError(w, http.StatusBadRequest, "reading ndjson body: %v", err)
		return req, nil, nil, false
	}
	if !header {
		writeError(w, http.StatusBadRequest, "empty ndjson body: want a header line, then one item per line")
		return req, nil, nil, false
	}
	return req, items, parseErrs, true
}

// handleBatch answers a panel of kSPR queries with ONE kspr.DB.KSPRBatch
// call, which schedules the items on a single pool worker plus whatever
// extra CPU slots the shared budget grants, and streams one NDJSON line
// per item.
// Ordering: already-decided items (parse errors, invalid k, cache hits)
// stream first in item order; computed items follow in completion order;
// every line carries its input index. Per-item failures are lines, not
// HTTP errors; the HTTP status covers only the envelope (400/404/429).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	req, items, parseErrs, ok := s.decodeBatchRequest(w, r)
	if !ok {
		return
	}
	snap, ok := s.registry.Get(req.Dataset)
	if !ok {
		writeError(w, http.StatusNotFound, "dataset %q not found", req.Dataset)
		return
	}
	reqInfoFrom(r.Context()).noteDataset(snap)
	if len(items) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no queries")
		return
	}
	if len(items) > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest, "batch of %d exceeds limit %d", len(items), s.cfg.MaxBatch)
		return
	}
	spec, err := parseSpec(req.Algorithm, req.Space, req.Bounds, req.Volumes, req.VolumeSamples, req.NoGeometry, req.Seed)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMs))
	defer cancel()
	// Under ?debug=trace the batch skips the result cache (traced runs must
	// actually run) and appends one trailer line with the batch-wide phase
	// breakdown; see batchLine.Trace.
	info := reqInfoFrom(ctx)
	useCache := !req.NoCache && !info.Debug()

	emitter := newBatchEmitter(len(items))

	// Settle what needs no engine work: malformed items, invalid k, cache
	// hits. queries collects the rest, idx mapping engine order back to
	// item order.
	var queries []kspr.BatchQuery
	var idx []int
	var keys []string
	for i, q := range items {
		if msg, bad := parseErrs[i]; bad {
			emitter.settle(i, batchLine{Index: i, Error: msg, Status: http.StatusBadRequest})
			continue
		}
		k := q.K
		if k == 0 {
			k = req.K
		}
		if k < 1 {
			emitter.settle(i, batchLine{Index: i,
				Error: fmt.Sprintf("k must be >= 1, got %d", k), Status: http.StatusBadRequest})
			continue
		}
		focal := q.Focal
		if q.FocalVector != nil {
			focal = -1
		}
		key := spec.key(snap, k, focal, q.FocalVector)
		if useCache {
			if resp, _, ok := s.cachedKSPR(key); ok {
				emitter.settle(i, batchLine{Index: i, Result: resp})
				continue
			}
		}
		queries = append(queries, kspr.BatchQuery{FocalID: focal, Focal: q.FocalVector, K: k})
		idx = append(idx, i)
		keys = append(keys, key)
	}

	// Grant engine parallelism for the whole batch from the shared CPU
	// budget. An exhausted budget is load: shed it visibly with 429 before
	// any stream output, rather than silently running N queries serially.
	parallelism := 1
	ask := req.Parallelism
	if ask > s.cfg.MaxParallelism {
		ask = s.cfg.MaxParallelism
	}
	var granted int
	if len(queries) > 0 && ask > 1 {
		granted, err = s.cpu.AcquireRequired(ask - 1)
		if err != nil {
			// A shed batch is a store-level incident worth correlating
			// against the slow requests that drained the budget.
			s.journal.Append(obs.JournalEvent{
				Type:       obs.EventCPUBudgetExhausted,
				Dataset:    snap.Name,
				Generation: snap.Generation,
				Detail: map[string]any{
					"asked": ask, "in_use": s.cpu.InUse(), "slots": s.cpu.Slots(),
					"items": len(items),
				},
			})
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		parallelism = 1 + granted
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	if len(queries) == 0 {
		emitter.finish(nil)
	} else {
		go func() {
			defer s.cpu.Release(granted)
			_, err := s.pool.Submit(ctx, func(ctx context.Context) (any, error) {
				bopts := []kspr.BatchOption{
					kspr.WithBatchOptions(spec.options(ctx, parallelism, info.Trace())...),
					kspr.WithBatchOnOutcome(func(j int, o kspr.BatchOutcome) {
						i := idx[j]
						if o.Err != nil {
							emitter.settle(i, batchLine{Index: i, Error: o.Err.Error(), Status: errStatusCode(o.Err)})
							return
						}
						bq := queries[j]
						resp := newQueryResponse(snap, spec, bq.K, bq.FocalID, o.Result)
						if useCache {
							s.cache.Put(keys[j], &cachedQuery{spec: spec, k: bq.K, focal: bq.FocalID, vec: bq.Focal, resp: resp, res: o.Result})
						}
						emitter.settle(i, batchLine{Index: i, Result: resp})
					}),
				}
				if req.ItemTimeoutMs > 0 {
					bopts = append(bopts, kspr.WithBatchItemTimeout(time.Duration(req.ItemTimeoutMs)*time.Millisecond))
				}
				return snap.DB.KSPRBatch(queries, 0, bopts...)
			})
			emitter.finish(err)
		}()
	}

	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var failed uint64
	for line := range emitter.lines {
		if line.Error != "" {
			failed++
		}
		_ = enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
	// The batch-wide phase breakdown rides as one trailer line: the engine
	// aggregates every item into the shared trace, so per-item attribution
	// would be fiction. Index -1 marks the line as out-of-band.
	if info.Debug() {
		_ = enc.Encode(batchLine{Index: -1, Trace: traceToWire(info)})
		if flusher != nil {
			flusher.Flush()
		}
	}
	// The stream itself is always 200, so surface per-query failures to
	// the error counters explicitly — operators alert on errors_total.
	s.metrics.AddErrors(failed)
	reqInfoFrom(r.Context()).noteStats(map[string]any{
		"items": len(items), "computed": len(queries), "failed": failed,
		"parallelism": parallelism,
	})
}

// ---- top-k / skyline / impact -------------------------------------------

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req topkRequest
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
	if len(req.Weights) != snap.DB.Dim() {
		writeError(w, http.StatusBadRequest, "weights have %d entries, dataset has %d attributes",
			len(req.Weights), snap.DB.Dim())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(0))
	defer cancel()
	val, err := s.pool.Submit(ctx, func(context.Context) (any, error) {
		return snap.DB.TopK(req.Weights, req.K), nil
	})
	if err != nil {
		writeError(w, errStatusCode(err), "%v", err)
		return
	}
	ids := val.([]int)
	resp := topkResponse{Dataset: snap.Name, Generation: snap.Generation, K: req.K}
	for _, id := range ids {
		e := topkEntry{ID: id, Score: dot(snap.DB.Record(id), req.Weights)}
		if id < len(snap.Dataset.Labels) {
			e.Label = snap.Dataset.Labels[id]
		}
		resp.Results = append(resp.Results, e)
	}
	writeJSON(w, http.StatusOK, resp)
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// handleSkyline serves GET /v1/skyline: the skyline, or with k the
// k-skyband. Like GET /v1/kspr it rejects names it does not know.
func (s *Server) handleSkyline(w http.ResponseWriter, r *http.Request) {
	var name string
	k := 0
	if !parseQuery(w, r, func(param, raw string) (err error) {
		switch param {
		case "dataset":
			name = raw
		case "k":
			if k, err = strconv.Atoi(raw); err == nil && k < 1 {
				err = errors.New("k must be positive")
			}
		default:
			return errUnknownParam
		}
		return err
	}) {
		return
	}
	snap, ok := s.registry.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "dataset %q not found", name)
		return
	}
	reqInfoFrom(r.Context()).noteDataset(snap)
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(0))
	defer cancel()
	val, err := s.pool.Submit(ctx, func(context.Context) (any, error) {
		if k > 0 {
			return snap.DB.KSkyband(k), nil
		}
		return snap.DB.Skyline(), nil
	})
	if err != nil {
		writeError(w, errStatusCode(err), "%v", err)
		return
	}
	ids := val.([]int)
	resp := skylineResponse{Dataset: snap.Name, Generation: snap.Generation, K: k, IDs: ids, Count: len(ids)}
	if len(snap.Dataset.Labels) > 0 {
		resp.Labels = make([]string, len(ids))
		for i, id := range ids {
			if id < len(snap.Dataset.Labels) {
				resp.Labels[i] = snap.Dataset.Labels[id]
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// buildDensity maps a named preference density to a pdf over original-space
// weight vectors (length d, summing to 1).
func buildDensity(req *densityReq, d int) (func(w []float64) float64, string, error) {
	if req == nil || req.Name == "" || strings.EqualFold(req.Name, "uniform") {
		return nil, "uniform", nil
	}
	switch strings.ToLower(req.Name) {
	case "dirichlet":
		if len(req.Alpha) != d {
			return nil, "", fmt.Errorf("dirichlet density needs %d alpha values, got %d", d, len(req.Alpha))
		}
		for _, a := range req.Alpha {
			if a <= 0 {
				return nil, "", fmt.Errorf("dirichlet alpha values must be positive")
			}
		}
		alpha := append([]float64(nil), req.Alpha...)
		return func(w []float64) float64 {
			p := 1.0
			for i, a := range alpha {
				if w[i] <= 0 {
					if a == 1 {
						continue
					}
					return 0 // clip the boundary: diverging (a<1) or zero (a>1)
				}
				p *= math.Pow(w[i], a-1)
			}
			return p
		}, "dirichlet", nil
	case "gaussian":
		if len(req.Center) != d {
			return nil, "", fmt.Errorf("gaussian density needs a %d-dim center, got %d", d, len(req.Center))
		}
		sigma := req.Sigma
		if sigma <= 0 {
			sigma = 0.1
		}
		center := append([]float64(nil), req.Center...)
		return func(w []float64) float64 {
			var d2 float64
			for i := range w {
				diff := w[i] - center[i]
				d2 += diff * diff
			}
			return math.Exp(-d2 / (2 * sigma * sigma))
		}, "gaussian", nil
	default:
		return nil, "", fmt.Errorf("unknown density %q (want uniform, dirichlet, gaussian)", req.Name)
	}
}

// handleImpact answers §1's market-impact question: the probability mass of
// the focal record's kSPR regions under a named preference density. The
// underlying kSPR result comes from runKSPR, so it is cached and
// deadline-bounded like any other query.
func (s *Server) handleImpact(w http.ResponseWriter, r *http.Request) {
	var req impactRequest
	if !decodeBody(w, r, &req) {
		return
	}
	snap, ok := s.registry.Get(req.Dataset)
	if !ok {
		writeError(w, http.StatusNotFound, "dataset %q not found", req.Dataset)
		return
	}
	info := reqInfoFrom(r.Context())
	info.noteDataset(snap)
	pdf, densityName, err := buildDensity(req.Density, snap.DB.Dim())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Samples <= 0 {
		req.Samples = 20000
	}
	// The sampling loop is not cancellable, so bound the work a single
	// request can demand of a pool worker.
	if req.Samples > maxImpactSamples {
		req.Samples = maxImpactSamples
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMs))
	defer cancel()

	qresp, res, err := s.runKSPR(ctx, snap, queryRequest{
		Dataset:   req.Dataset,
		Focal:     req.Focal,
		K:         req.K,
		Algorithm: req.Algorithm,
		Seed:      req.Seed,
		NoCache:   req.NoCache,
	})
	if err != nil {
		writeError(w, errStatusCode(err), "%v", err)
		return
	}
	info.noteCached(qresp.Cached)
	info.noteStats(qresp.Stats)
	val, err := s.pool.Submit(ctx, func(context.Context) (any, error) {
		return snap.DB.ImpactProbabilityPDF(res, pdf, req.Samples, req.Seed), nil
	})
	if err != nil {
		writeError(w, errStatusCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, impactResponse{
		Dataset:     snap.Name,
		Generation:  snap.Generation,
		Focal:       req.Focal,
		K:           req.K,
		Density:     densityName,
		Samples:     req.Samples,
		Probability: val.(float64),
		Regions:     qresp.Stats.Regions,
		Cached:      qresp.Cached,
	})
}

// ---- health & metrics ----------------------------------------------------

// handleHealthz is the liveness probe: green as soon as the process
// serves HTTP. Readiness (WAL recovery done) lives on /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"datasets": len(s.registry.List()),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metricsView())
}
