package server

// This file is the time dimension of the observability stack: a sampler
// goroutine that snapshots the Metrics counters into an obs.TimeSeries
// ring every HistoryInterval, derives rates (QPS, error rate, 429 rate,
// cache hit rate) and windowed percentiles (the trailing minute's
// all-endpoint latency, per-class p99s) from the raw counters, evaluates
// the SLO burn-rate engine over the ring, and serves the result on
// GET /v1/debug:history (the series) and GET /v1/debug:health (the scored
// verdict a replica router consumes).

import (
	"errors"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// defaultSLOP99 bounds per-class p99 latency when Config.SLOP99 is unset —
// aligned with defaultFlightSlow so an SLO-breaching request is also
// flight-capture-worthy.
const defaultSLOP99 = 500 * time.Millisecond

// defaultSLOAvailability is the stock availability target (three nines).
const defaultSLOAvailability = 0.999

// sloClassP99Window is the trailing window the derived per-class p99
// series are computed over.
const sloClassP99Window = 5 * time.Minute

// metricsWindow is the trailing window of qps_1m and the all-endpoint
// latency percentiles.
const metricsWindow = time.Minute

// endpointClasses maps instrumented endpoint names to the endpoint class
// their latency SLO is judged under. Meta endpoints (health probes, debug
// reads, metrics scrapes) are deliberately unclassified: their latency is
// nobody's user experience.
var endpointClasses = map[string]string{
	"kspr":               "query",
	"kspr.batch":         "query",
	"topk":               "query",
	"skyline":            "query",
	"impact":             "query",
	"impact.competitors": "query",
	"whatif.price":       "query",
	"whatif.frontier":    "query",
	"datasets.mutate":    "mutate",
	"datasets.load":      "mutate",
	"datasets.unload":    "mutate",
}

// sloClasses is the deterministic iteration order of the classes above.
var sloClasses = []string{"query", "mutate"}

// epSeriesNames precomputes one endpoint's history series names so the
// per-tick point building never formats strings.
type epSeriesNames struct {
	requests string
	errors   string
	p50      string
	p99      string
}

// classSeriesNames precomputes one class's aggregate counter series: total
// requests plus one cumulative count per latency bucket (bucketSeries).
type classSeriesNames struct {
	requests string
	buckets  []string
	p99      string // derived windowed-p99 gauge series
}

// bucketSeries names one cumulative counter series per latency bucket
// (obs.DefaultLatencyBuckets layout, +Inf last) under prefix.
func bucketSeries(prefix string) []string {
	names := make([]string, len(obs.DefaultLatencyBuckets)+1)
	for i := range names {
		names[i] = prefix + ":le" + strconv.Itoa(i)
	}
	return names
}

// recentWindow is one tick's trailing-minute request rate and
// all-endpoint latency; ok is false when the ring could not cover a window
// (fewer than two ticks within the minute).
type recentWindow struct {
	ok      bool
	qps     float64
	latency LatencyStats
}

// sampler owns the telemetry history: the ring, the SLO engine, the
// reusable scratch buffers, and the background goroutine that ticks them.
// All cross-goroutine state is behind the ring's own lock or sampler.mu.
type sampler struct {
	srv   *Server
	ts    *obs.TimeSeries
	slo   *obs.SLOEngine
	rt    *obs.RuntimeSampler
	build obs.BuildInfo

	// Reusable per-tick scratch: the metrics sample, the raw/derived point
	// slices, precomputed series names, and per-class bucket accumulators.
	sample     MetricsSample
	raw        []obs.SamplePoint
	derived    []obs.SamplePoint
	epNames    map[string]*epSeriesNames
	clsNames   map[string]*classSeriesNames
	allBuckets []string // the all-endpoint bucket series (bucketSeries)
	clsCounts  map[string][]uint64
	clsTotals  map[string]uint64
	deltas     []uint64 // bucket deltas scratch for the windowed percentiles

	mu      sync.Mutex
	verdict obs.HealthVerdict
	recent  recentWindow

	stop chan struct{}
	done chan struct{}
}

// newSampler wires the ring and the SLO engine from the server config and
// takes the first tick synchronously, so a freshly constructed server
// already has one sample of every series.
func newSampler(s *Server) *sampler {
	cfg := s.cfg
	var objectives []obs.Objective
	avail := cfg.SLOAvailability
	if avail == 0 {
		avail = defaultSLOAvailability
	}
	if avail < 0 {
		avail = 0 // negative disables the availability objective
	}
	bound := cfg.SLOP99
	if bound == 0 {
		bound = defaultSLOP99
	}
	if bound < 0 {
		bound = 0 // negative disables latency objectives
	}
	objectives = obs.DefaultObjectives(avail, bound, sloClasses)
	sp := &sampler{
		srv:        s,
		ts:         obs.NewTimeSeries(cfg.HistoryInterval, cfg.HistoryRetention),
		slo:        obs.NewSLOEngine(objectives, nil),
		rt:         obs.NewRuntimeSampler(),
		build:      obs.ReadBuildInfo(),
		epNames:    map[string]*epSeriesNames{},
		clsNames:   map[string]*classSeriesNames{},
		allBuckets: bucketSeries("class:all"),
		clsCounts:  map[string][]uint64{},
		clsTotals:  map[string]uint64{},
		deltas:     make([]uint64, len(obs.DefaultLatencyBuckets)+1),
		verdict:    obs.Verdict(nil),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	for _, class := range sloClasses {
		sp.clsNames[class] = &classSeriesNames{
			requests: "class:" + class + ":requests",
			buckets:  bucketSeries("class:" + class),
			p99:      "p99_ms:" + class,
		}
		sp.clsCounts[class] = make([]uint64, len(obs.DefaultLatencyBuckets)+1)
	}
	sp.tick(time.Now())
	return sp
}

// run is the sampler goroutine: one tick per interval until close.
func (sp *sampler) run() {
	defer close(sp.done)
	ticker := time.NewTicker(sp.ts.Interval())
	defer ticker.Stop()
	for {
		select {
		case <-sp.stop:
			return
		case now := <-ticker.C:
			sp.tick(now)
		}
	}
}

// close stops the sampler goroutine and waits for it to exit.
func (sp *sampler) close() {
	if sp == nil {
		return
	}
	close(sp.stop)
	<-sp.done
}

// latestVerdict returns the verdict from the most recent tick.
func (sp *sampler) latestVerdict() obs.HealthVerdict {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.verdict
}

// applyRecent swaps the latest tick's trailing-minute rate and latency into
// ms, so a scrape reports what the ring's latest tick recorded. It leaves
// ms's since-start values while the ring cannot cover a window.
func (sp *sampler) applyRecent(ms *MetricsSample) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.recent.ok {
		ms.QPS, ms.Latency = sp.recent.qps, sp.recent.latency
	}
}

// tick takes one sample: raw counters and gauges into the ring, derived
// rates amended onto the same tick, then an SLO evaluation over the
// updated ring.
func (sp *sampler) tick(now time.Time) {
	sp.recordTick(now)
	sp.evaluateSLO(now)
}

// recordTick is the ring half of a tick. It is allocation-free in steady
// state (no new endpoints since the previous tick) — pinned by
// TestRecordTickZeroAllocs.
func (sp *sampler) recordTick(now time.Time) {
	s := sp.srv
	s.metrics.SampleInto(&sp.sample)
	rt := sp.rt.Sample()
	cache := s.cache.Stats()

	sp.raw = sp.raw[:0]
	addC := func(name string, v float64) {
		sp.raw = append(sp.raw, obs.SamplePoint{Name: name, Kind: obs.KindCounter, Value: v})
	}
	addG := func(name string, v float64) {
		sp.raw = append(sp.raw, obs.SamplePoint{Name: name, Kind: obs.KindGauge, Value: v})
	}
	addC("requests_total", float64(sp.sample.Requests))
	addC("errors_total", float64(sp.sample.Errors))
	addC("responses_429_total", float64(sp.sample.Resp429))
	addC("cache_hits_total", float64(cache.Hits))
	addC("cache_misses_total", float64(cache.Misses))
	addC("mutation_batches_total", float64(sp.sample.Mutations.Batches))
	addC("mutations_total", float64(sp.sample.Mutations.Mutations))
	addC("whatif_probes_total", float64(sp.sample.WhatIf.Probes))
	addC("whatif_kept_total", float64(sp.sample.WhatIf.Kept))
	addG("pool_depth", float64(s.pool.Depth()))
	addG("cpu_slots_in_use", float64(s.cpu.InUse()))
	addG("cache_entries", float64(cache.Entries))
	addG("datasets", float64(s.registry.Count()))
	addG("goroutines", float64(rt.Goroutines))
	addG("heap_inuse_bytes", float64(rt.HeapInuseBytes))
	addG("gc_pause_p99_ms", rt.GCPauseP99Ms)
	addG("uptime_seconds", sp.sample.UptimeSeconds)

	// Per-endpoint series plus per-class and all-endpoint aggregation for
	// the windowed percentiles.
	for _, class := range sloClasses {
		clear(sp.clsCounts[class])
		sp.clsTotals[class] = 0
	}
	for i := range sp.sample.Endpoints {
		row := &sp.sample.Endpoints[i]
		names := sp.epNames[row.Name]
		if names == nil {
			names = &epSeriesNames{
				requests: "ep:" + row.Name + ":requests",
				errors:   "ep:" + row.Name + ":errors",
				p50:      "ep:" + row.Name + ":p50_ms",
				p99:      "ep:" + row.Name + ":p99_ms",
			}
			sp.epNames[row.Name] = names
		}
		addC(names.requests, float64(row.Requests))
		addC(names.errors, float64(row.Errors))
		addG(names.p50, row.P50Ms)
		addG(names.p99, row.P99Ms)
		if class := endpointClasses[row.Name]; class != "" {
			counts := sp.clsCounts[class]
			for b, c := range row.Buckets {
				counts[b] += c
			}
			sp.clsTotals[class] += row.Requests
		}
	}
	for _, class := range sloClasses {
		names := sp.clsNames[class]
		addC(names.requests, float64(sp.clsTotals[class]))
		for b, c := range sp.clsCounts[class] {
			addC(names.buckets[b], float64(c))
		}
	}
	for b, c := range sp.sample.Buckets {
		addC(sp.allBuckets[b], float64(c))
	}
	sp.ts.Record(now, sp.raw)

	// Derived series: rates over the last couple of intervals, and the
	// windowed percentiles, amended onto the tick just recorded.
	sp.derived = sp.derived[:0]
	addD := func(name string, v float64) {
		sp.derived = append(sp.derived, obs.SamplePoint{Name: name, Kind: obs.KindGauge, Value: v})
	}
	rateWin := 2*sp.ts.Interval() + time.Second
	dreq, span, okReq := sp.ts.DeltaSince("requests_total", rateWin, now)
	if okReq && span > 0 {
		addD("qps", dreq/span.Seconds())
		if dreq > 0 {
			derr, _, _ := sp.ts.DeltaSince("errors_total", rateWin, now)
			d429, _, _ := sp.ts.DeltaSince("responses_429_total", rateWin, now)
			addD("error_rate", clamp01((derr-d429)/dreq))
			addD("rate_429", clamp01(d429/dreq))
		} else {
			addD("error_rate", 0)
			addD("rate_429", 0)
		}
	}
	dh, _, okH := sp.ts.DeltaSince("cache_hits_total", rateWin, now)
	dm, _, okM := sp.ts.DeltaSince("cache_misses_total", rateWin, now)
	if okH && okM && dh+dm > 0 {
		addD("cache_hit_rate", clamp01(dh/(dh+dm)))
	}
	for _, class := range sloClasses {
		if n, ok := sp.windowDeltas(sp.clsNames[class].buckets, sloClassP99Window, now); ok && n > 0 {
			addD(sp.clsNames[class].p99, latencyOf(sp.deltas).P99Ms)
		}
	}

	// qps_1m and the all-endpoint latency cover the trailing minute once it
	// holds two ticks, and keep SampleInto's since-start values until then
	// (and for good with an interval of a minute or more).
	var recent recentWindow
	if reqs, covered, ok := sp.ts.DeltaSince("requests_total", metricsWindow, now); ok && covered > 0 {
		sp.windowDeltas(sp.allBuckets, metricsWindow, now)
		recent = recentWindow{ok: true, qps: reqs / covered.Seconds(), latency: latencyOf(sp.deltas)}
		sp.sample.QPS, sp.sample.Latency = recent.qps, recent.latency
	}
	addD("qps_1m", sp.sample.QPS)
	addD("latency_p50_ms", sp.sample.Latency.P50Ms)
	addD("latency_p95_ms", sp.sample.Latency.P95Ms)
	addD("latency_p99_ms", sp.sample.Latency.P99Ms)
	sp.ts.Amend(sp.derived)
	sp.mu.Lock()
	sp.recent = recent
	sp.mu.Unlock()
}

// evaluateSLO is the burn-rate half of a tick: evaluate every objective
// over the updated ring, publish the verdict, and journal breach
// transitions tagged with the generation in force.
func (sp *sampler) evaluateSLO(now time.Time) {
	statuses, events := sp.slo.Evaluate(now, sp.badFraction)
	verdict := obs.Verdict(statuses)
	sp.mu.Lock()
	sp.verdict = verdict
	sp.mu.Unlock()
	for _, ev := range events {
		sp.journalBreach(ev)
	}
}

// windowDeltas fills sp.deltas with how much each bucket counter series
// grew over the trailing window, for latencyOf to read the window's
// percentiles, and returns the total n. ok=false until the window holds
// two ticks.
func (sp *sampler) windowDeltas(buckets []string, window time.Duration, now time.Time) (n uint64, ok bool) {
	for i, name := range buckets {
		sp.deltas[i] = 0
		d, _, dok := sp.ts.DeltaSince(name, window, now)
		if !dok {
			continue
		}
		ok = true
		if d > 0 {
			sp.deltas[i] = uint64(d)
			n += uint64(d)
		}
	}
	return n, ok
}

// badFraction is the SLO engine's data source: the fraction of bad service
// over a trailing window, read from the ring's counter deltas.
//
//   - availability: (errors - 429s) / requests. Load shedding is honest
//     backpressure the server chose, not broken service — it burns the
//     latency budget of whoever retries, never the availability budget.
//   - latency: the fraction of class requests over the objective's p99
//     bound, from the class bucket deltas (the bound rounds down to a
//     bucket boundary).
func (sp *sampler) badFraction(o obs.Objective, window time.Duration, now time.Time) (float64, bool) {
	switch o.Kind {
	case obs.SLOAvailability:
		dreq, _, ok := sp.ts.DeltaSince("requests_total", window, now)
		if !ok || dreq <= 0 {
			return 0, false
		}
		derr, _, _ := sp.ts.DeltaSince("errors_total", window, now)
		d429, _, _ := sp.ts.DeltaSince("responses_429_total", window, now)
		return clamp01((derr - d429) / dreq), true
	case obs.SLOLatency:
		names := sp.clsNames[o.Class]
		if names == nil {
			return 0, false
		}
		n, _ := sp.windowDeltas(names.buckets, window, now)
		if n == 0 {
			return 0, false
		}
		boundSec := o.Bound.Seconds()
		var good uint64
		for i, bound := range obs.DefaultLatencyBuckets {
			if bound <= boundSec {
				good += sp.deltas[i]
			}
		}
		return clamp01(1 - float64(good)/float64(n)), true
	}
	return 0, false
}

// journalBreach writes one SLO transition into the lifecycle journal.
func (sp *sampler) journalBreach(ev obs.BreachEvent) {
	gen := sp.srv.registry.MaxGeneration()
	if ev.Resolved {
		sp.srv.journal.Append(obs.JournalEvent{
			Type:       obs.EventSLOResolve,
			Generation: gen,
			Detail:     map[string]any{"objective": ev.Objective.Name},
		})
		return
	}
	sp.srv.journal.Append(obs.JournalEvent{
		Type:       obs.EventSLOBurn,
		Generation: gen,
		Detail: map[string]any{
			"objective":  ev.Objective.Name,
			"kind":       ev.Objective.Kind,
			"target":     ev.Objective.Target,
			"window":     windowLabel(ev.Window.Short) + "/" + windowLabel(ev.Window.Long),
			"threshold":  ev.Window.Threshold,
			"burn_short": ev.BurnShort,
			"burn_long":  ev.BurnLong,
		},
	})
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ---- HTTP surface --------------------------------------------------------

// defaultHistorySeries is the headline set GET /v1/debug:history serves
// when no ?series= selector is given.
var defaultHistorySeries = []string{
	"qps", "error_rate", "rate_429", "cache_hit_rate",
	"latency_p99_ms", "p99_ms:query", "p99_ms:mutate",
	"goroutines", "heap_inuse_bytes",
}

// historyResponse is the GET /v1/debug:history payload: aligned columns of
// the selected series (null where a series missed a tick), plus the full
// series catalogue for discovery.
type historyResponse struct {
	IntervalMs  float64  `json:"interval_ms"`
	Samples     int      `json:"samples"`
	TimesUnixMs []int64  `json:"times_unix_ms"`
	SeriesNames []string `json:"series_names"`
	// Series maps each requested name to one value per entry of
	// TimesUnixMs; unknown or not-yet-populated series are all-null.
	Series map[string][]*float64 `json:"series"`
}

// handleDebugHistory serves the telemetry history ring. ?series= selects a
// comma-separated subset (default: the headline rate/latency set),
// ?since_sec= bounds how far back to read, ?step_sec= downsamples to one
// sample per step (keeping the last sample of each step, so counter deltas
// stay exact). An unknown name or a bad value is a 400 naming the
// parameter.
func (s *Server) handleDebugHistory(w http.ResponseWriter, r *http.Request) {
	if s.sampler == nil {
		writeError(w, http.StatusNotFound, "telemetry history disabled (HistoryInterval < 0)")
		return
	}
	names := defaultHistorySeries
	var back, step time.Duration
	if !parseQuery(w, r, func(name, raw string) (err error) {
		switch name {
		case "series":
			names = strings.Split(raw, ",")
			if slices.ContainsFunc(names, func(n string) bool { return strings.TrimSpace(n) == "" }) {
				err = errors.New("empty name in list")
			}
		case "since_sec":
			back, err = durationParam(raw, time.Second, true)
		case "step_sec":
			step, err = durationParam(raw, time.Second, false)
		default:
			return errUnknownParam
		}
		return err
	}) {
		return
	}
	ts := s.sampler.ts
	if back == 0 {
		back = time.Duration(ts.Capacity()) * ts.Interval()
	}
	res := ts.Range(names, time.Now().Add(-back), step)
	resp := historyResponse{
		IntervalMs:  float64(ts.Interval()) / float64(time.Millisecond),
		Samples:     len(res.Times),
		TimesUnixMs: make([]int64, len(res.Times)),
		SeriesNames: ts.SeriesNames(),
		Series:      make(map[string][]*float64, len(names)),
	}
	for i, t := range res.Times {
		resp.TimesUnixMs[i] = t.UnixMilli()
	}
	for name, col := range res.Values {
		out := make([]*float64, len(col))
		for i := range col {
			if col[i] == col[i] { // not NaN
				v := col[i]
				out[i] = &v
			}
		}
		resp.Series[name] = out
	}
	writeJSON(w, http.StatusOK, resp)
}

// healthHistoryMeta describes the history ring inside the health verdict.
type healthHistoryMeta struct {
	IntervalMs  float64 `json:"interval_ms"`
	RetentionMs float64 `json:"retention_ms"`
	Samples     int     `json:"samples"`
	Series      int     `json:"series"`
	Ticks       uint64  `json:"ticks"`
}

// healthResponse is the GET /v1/debug:health payload: the machine-readable
// verdict a scatter-gather router scores replicas by.
type healthResponse struct {
	Healthy        bool              `json:"healthy"`
	Score          float64           `json:"score"`
	Status         string            `json:"status"`
	SLOs           []obs.SLOStatus   `json:"slos"`
	Ready          bool              `json:"ready"`
	Datasets       int               `json:"datasets"`
	IndexWarm      map[string]bool   `json:"index_warm"`
	Generation     uint64            `json:"generation"`
	UptimeSeconds  float64           `json:"uptime_seconds"`
	Build          obs.BuildInfo     `json:"build"`
	History        healthHistoryMeta `json:"history"`
	JournalLastSeq uint64            `json:"journal_last_seq"`
}

// handleDebugHealth serves the scored health verdict: overall score in
// [0,1] (min over per-SLO scores), per-SLO burn rates, plus the readiness
// and index facts a router needs alongside them.
func (s *Server) handleDebugHealth(w http.ResponseWriter, r *http.Request) {
	if s.sampler == nil {
		writeError(w, http.StatusNotFound, "telemetry history disabled (HistoryInterval < 0)")
		return
	}
	v := s.sampler.latestVerdict()
	if v.SLOs == nil {
		v.SLOs = []obs.SLOStatus{}
	}
	infos := s.registry.List()
	warm := make(map[string]bool, len(infos))
	var gen uint64
	for _, info := range infos {
		warm[info.Name] = info.IndexWarm
		if info.Generation > gen {
			gen = info.Generation
		}
	}
	ts := s.sampler.ts
	writeJSON(w, http.StatusOK, healthResponse{
		Healthy:       v.Healthy,
		Score:         v.Score,
		Status:        v.Status,
		SLOs:          v.SLOs,
		Ready:         s.ready.Load(),
		Datasets:      len(infos),
		IndexWarm:     warm,
		Generation:    gen,
		UptimeSeconds: time.Since(s.metrics.start).Seconds(),
		Build:         s.sampler.build,
		History: healthHistoryMeta{
			IntervalMs:  float64(ts.Interval()) / float64(time.Millisecond),
			RetentionMs: float64(ts.Interval()) / float64(time.Millisecond) * float64(ts.Capacity()),
			Samples:     ts.Len(),
			Series:      len(ts.SeriesNames()),
			Ticks:       ts.Ticks(),
		},
		JournalLastSeq: s.journal.LastSeq(),
	})
}
