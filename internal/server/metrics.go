package server

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Metrics aggregates the serving counters exposed on /metrics. All methods
// are safe for concurrent use; the hot path is a few atomic adds, with no
// lock and no clock read. Each endpoint's latency histogram is the only
// latency store: request counts are its bucket totals, and the recent
// window's rate and percentiles come from the sampler's bucket deltas.
type Metrics struct {
	start   time.Time
	errors  atomic.Uint64
	resp429 atomic.Uint64

	mutationBatches atomic.Uint64
	mutationsTotal  atomic.Uint64
	cacheMigrated   atomic.Uint64
	cacheDropped    atomic.Uint64
	recoveries      atomic.Uint64

	whatifProbes atomic.Uint64
	whatifKept   atomic.Uint64

	byEndpoint sync.Map // string -> *endpointStats
}

// endpointStats is one endpoint's serving record: an error counter plus a
// fixed-bucket latency histogram (the shared bucket layout of
// obs.DefaultLatencyBuckets) whose bucket total is the request count.
type endpointStats struct {
	errors atomic.Uint64
	hist   *obs.Histogram
}

// endpoint returns the named endpoint's stats, creating them on first
// use. The common path is a single lock-free map lookup; LoadOrStore only
// runs the first time an endpoint is seen.
func (m *Metrics) endpoint(name string) *endpointStats {
	if v, ok := m.byEndpoint.Load(name); ok {
		return v.(*endpointStats)
	}
	v, _ := m.byEndpoint.LoadOrStore(name, &endpointStats{hist: obs.NewHistogram(nil)})
	return v.(*endpointStats)
}

// NewMetrics starts the clock.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now()}
}

// Observe records one finished request by its response status. Statuses
// >= 400 count as errors; 429s are additionally counted on their own so
// the SLO layer can exclude honest backpressure from availability burn.
// The histogram add comes first, so a reader that loads the error
// counters before the buckets never sees more errors than requests.
func (m *Metrics) Observe(endpoint string, d time.Duration, status int) {
	es := m.endpoint(endpoint)
	es.hist.Observe(d)
	if status >= 400 {
		m.errors.Add(1)
		es.errors.Add(1)
	}
	if status == 429 {
		m.resp429.Add(1)
	}
}

// AddErrors bumps the error counter by n without recording requests; used
// for failures that hide inside an otherwise-successful response (e.g.
// per-query errors in a streamed 200 batch).
func (m *Metrics) AddErrors(n uint64) {
	if n > 0 {
		m.errors.Add(n)
	}
}

// AddMutationBatch records one applied mutation batch of n mutations,
// with migrated/dropped counting the cached results carried across the
// generation versus orphaned by it.
func (m *Metrics) AddMutationBatch(n, migrated, dropped int) {
	m.mutationBatches.Add(1)
	m.mutationsTotal.Add(uint64(n))
	m.cacheMigrated.Add(uint64(migrated))
	m.cacheDropped.Add(uint64(dropped))
}

// AddRecoveries records datasets restored by WAL replay at startup.
func (m *Metrics) AddRecoveries(n int) {
	m.recoveries.Add(uint64(n))
}

// AddWhatIf records one what-if call's probe economy: probes evaluated and
// how many of them the engine answered from its dominator count.
func (m *Metrics) AddWhatIf(probes, kept uint64) {
	m.whatifProbes.Add(probes)
	m.whatifKept.Add(kept)
}

// WhatIfMetrics is the /metrics view of the what-if layer.
type WhatIfMetrics struct {
	// Probes counts impact evaluations across all what-if calls; Kept the
	// ones the engine answered from its dominator count, before any
	// cell-tree work.
	Probes uint64 `json:"probes_total"`
	Kept   uint64 `json:"kept_total"`
}

// MutationStats is the /metrics view of the live-dataset subsystem.
type MutationStats struct {
	// Batches / Mutations count applied mutation batches and the
	// individual mutations inside them.
	Batches   uint64 `json:"batches_total"`
	Mutations uint64 `json:"mutations_total"`
	// CacheMigrated counts cached kSPR results proven unaffected by a
	// mutation batch and carried to the new generation; CacheDropped those
	// orphaned (left to age out of the LRU).
	CacheMigrated uint64 `json:"cache_results_migrated_total"`
	CacheDropped  uint64 `json:"cache_results_dropped_total"`
	// Recoveries counts datasets restored by snapshot load + WAL replay at
	// startup.
	Recoveries uint64 `json:"wal_recoveries_total"`
}

// LatencyStats are percentile estimates from a latency histogram: each is
// the upper bound of the bucket holding the nearest-rank sample.
type LatencyStats struct {
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// latencyOf estimates the percentiles of per-bucket counts in the
// obs.DefaultLatencyBuckets layout (+Inf last). It allocates nothing.
func latencyOf(counts []uint64) LatencyStats {
	h := obs.HistSnapshot{Bounds: obs.DefaultLatencyBuckets, Counts: counts}
	return LatencyStats{
		P50Ms: h.Quantile(0.50) * 1000,
		P95Ms: h.Quantile(0.95) * 1000,
		P99Ms: h.Quantile(0.99) * 1000,
	}
}

// EndpointLatency is one endpoint's row in /metrics: counters plus the
// since-start percentiles of the endpoint's latency histogram.
type EndpointLatency struct {
	Requests uint64 `json:"requests_total"`
	Errors   uint64 `json:"errors_total"`
	LatencyStats
}

// MetricsSnapshot is the JSON body of /metrics.
type MetricsSnapshot struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	Requests      uint64            `json:"requests_total"`
	Errors        uint64            `json:"errors_total"`
	Resp429       uint64            `json:"responses_429_total"`
	QPS           float64           `json:"qps_1m"`
	Latency       LatencyStats      `json:"latency"`
	Cache         CacheStats        `json:"cache"`
	Pool          PoolStats         `json:"pool"`
	CPU           CPUStats          `json:"cpu"`
	Mutations     MutationStats     `json:"mutations"`
	WhatIf        WhatIfMetrics     `json:"whatif"`
	ByEndpoint    map[string]uint64 `json:"requests_by_endpoint"`
	// LatencyByEndpoint breaks latency and errors down per endpoint,
	// derived from the per-endpoint histograms.
	LatencyByEndpoint map[string]EndpointLatency `json:"latency_by_endpoint"`
	Datasets          []DatasetInfo              `json:"datasets"`
	// Runtime and Build report Go runtime telemetry and binary identity;
	// SLO the latest burn-rate evaluation (nil when the SLO engine is
	// off). All three are filled by the server's metricsView.
	Runtime obs.RuntimeStats `json:"runtime"`
	Build   obs.BuildInfo    `json:"build"`
	SLO     *SLOView         `json:"slo,omitempty"`

	// endpoints are the sample rows the maps above were rendered from,
	// sorted by name; WriteProm renders its endpoint section from them.
	endpoints []EndpointSample
}

// SLOView is the /metrics (and black-box) rendering of the SLO engine's
// latest evaluation.
type SLOView struct {
	Healthy    bool            `json:"healthy"`
	Score      float64         `json:"score"`
	Objectives []obs.SLOStatus `json:"objectives"`
}

// PoolStats is the /metrics view of the worker pool.
type PoolStats struct {
	Workers int   `json:"workers"`
	Depth   int64 `json:"depth"`
}

// EndpointSample is one endpoint's row in a MetricsSample: its
// latency_by_endpoint counters and percentiles, plus the histogram they
// come from (per-bucket counts in the obs.DefaultLatencyBuckets layout,
// +Inf last, and the latency sum).
type EndpointSample struct {
	Name string
	EndpointLatency
	Buckets []uint64
	SumNs   int64
}

// MetricsSample is one read of Metrics, and the one source JSON /metrics,
// /metrics.prom and the history ring render from. It holds no maps:
// endpoint rows live in a sorted slice that is reused across calls, so
// steady-state sampling (no new endpoints) performs zero allocations. A
// MetricsSample must not be copied after first use (SampleInto caches a
// closure over its address).
type MetricsSample struct {
	UptimeSeconds float64
	// Requests is the sum of the endpoint rows' requests.
	Requests  uint64
	Errors    uint64
	Resp429   uint64
	Mutations MutationStats
	WhatIf    WhatIfMetrics

	// QPS and Latency are the request rate and all-endpoint percentiles of
	// the recent window. SampleInto sets them since start (Requests over
	// uptime, percentiles of Buckets); the sampler swaps in the history
	// ring's trailing minute once the ring covers one.
	QPS     float64
	Latency LatencyStats
	// Buckets is the all-endpoint latency histogram: the bucket-wise sum
	// of the endpoint rows' Buckets.
	Buckets []uint64

	// Endpoints is sorted by name and reused across calls; rows for
	// endpoints that disappeared keep their last counters (endpoints are
	// never unregistered).
	Endpoints []EndpointSample

	rangeFn func(k, v any) bool // cached Range closure (avoids one alloc/call)
}

// row returns the endpoint's row, inserting it in name order on first
// sight (the only allocating path; the steady state is a binary search).
func (ms *MetricsSample) row(name string) *EndpointSample {
	lo, hi := 0, len(ms.Endpoints)
	for lo < hi {
		mid := (lo + hi) / 2
		if ms.Endpoints[mid].Name < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ms.Endpoints) && ms.Endpoints[lo].Name == name {
		return &ms.Endpoints[lo]
	}
	ms.Endpoints = append(ms.Endpoints, EndpointSample{})
	copy(ms.Endpoints[lo+1:], ms.Endpoints[lo:])
	ms.Endpoints[lo] = EndpointSample{
		Name:    name,
		Buckets: make([]uint64, len(obs.DefaultLatencyBuckets)+1),
	}
	return &ms.Endpoints[lo]
}

// SampleInto fills ms with the current counters and endpoint rows, and
// sets QPS and Latency since start. ms is reused across calls; the
// sampler passes the same one every tick.
func (m *Metrics) SampleInto(ms *MetricsSample) {
	ms.UptimeSeconds = time.Since(m.start).Seconds()
	// Error counters load before the histograms (see Observe).
	ms.Errors = m.errors.Load()
	ms.Resp429 = m.resp429.Load()
	ms.Mutations = MutationStats{
		Batches:       m.mutationBatches.Load(),
		Mutations:     m.mutationsTotal.Load(),
		CacheMigrated: m.cacheMigrated.Load(),
		CacheDropped:  m.cacheDropped.Load(),
		Recoveries:    m.recoveries.Load(),
	}
	ms.WhatIf = WhatIfMetrics{Probes: m.whatifProbes.Load(), Kept: m.whatifKept.Load()}

	if ms.rangeFn == nil {
		ms.Buckets = make([]uint64, len(obs.DefaultLatencyBuckets)+1)
		ms.rangeFn = func(k, v any) bool {
			es := v.(*endpointStats)
			row := ms.row(k.(string))
			row.Errors = es.errors.Load()
			es.hist.CopyCounts(row.Buckets)
			row.SumNs = es.hist.SumNs()
			row.Requests = 0
			for i, c := range row.Buckets {
				row.Requests += c
				ms.Buckets[i] += c
			}
			row.LatencyStats = latencyOf(row.Buckets)
			ms.Requests += row.Requests
			return true
		}
	}
	ms.Requests = 0
	clear(ms.Buckets)
	m.byEndpoint.Range(ms.rangeFn)

	ms.QPS = 0
	if ms.UptimeSeconds > 0 {
		ms.QPS = float64(ms.Requests) / ms.UptimeSeconds
	}
	ms.Latency = latencyOf(ms.Buckets)
}

// snapshot renders the Metrics-owned sections of the JSON /metrics body.
func (ms *MetricsSample) snapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		UptimeSeconds:     ms.UptimeSeconds,
		Requests:          ms.Requests,
		Errors:            ms.Errors,
		Resp429:           ms.Resp429,
		QPS:               ms.QPS,
		Latency:           ms.Latency,
		Mutations:         ms.Mutations,
		WhatIf:            ms.WhatIf,
		ByEndpoint:        make(map[string]uint64, len(ms.Endpoints)),
		LatencyByEndpoint: make(map[string]EndpointLatency, len(ms.Endpoints)),
		endpoints:         ms.Endpoints,
	}
	for _, row := range ms.Endpoints {
		snap.ByEndpoint[row.Name] = row.Requests
		snap.LatencyByEndpoint[row.Name] = row.EndpointLatency
	}
	return snap
}

// windowLabel renders a burn window compactly for metric labels ("5m",
// "1h") instead of time.Duration's "5m0s"/"1h0m0s".
func windowLabel(d time.Duration) string {
	switch {
	case d >= time.Hour && d%time.Hour == 0:
		return fmt.Sprintf("%dh", d/time.Hour)
	case d >= time.Minute && d%time.Minute == 0:
		return fmt.Sprintf("%dm", d/time.Minute)
	default:
		return d.String()
	}
}

// WriteProm renders snap in Prometheus text exposition format (the
// /metrics.prom body). snap must come from the server's metricsView so
// the cache/pool/CPU/dataset sections are filled in. The first write
// error is returned.
func (snap *MetricsSnapshot) WriteProm(w io.Writer) error {
	p := obs.NewPromWriter(w)
	p.Gauge("kspr_uptime_seconds", "Seconds since the server started.", snap.UptimeSeconds)
	p.Counter("kspr_requests_total", "HTTP requests served across all endpoints.", float64(snap.Requests))
	p.Counter("kspr_errors_total", "Requests answered with status >= 400, plus per-item failures inside streamed batches.", float64(snap.Errors))
	p.Counter("kspr_responses_429_total", "Requests shed with 429 (CPU budget exhausted or queue full).", float64(snap.Resp429))
	p.Gauge("kspr_qps_1m", "Requests per second over the history ring's trailing minute (since start until the ring covers one).", snap.QPS)

	// Per-endpoint counters and histograms, in the sample's sorted order so
	// the exposition is deterministic.
	if len(snap.endpoints) > 0 {
		p.Header("kspr_endpoint_requests_total", "Requests per endpoint.", "counter")
		for _, row := range snap.endpoints {
			p.Sample("kspr_endpoint_requests_total", []obs.Label{{Name: "endpoint", Value: row.Name}}, float64(row.Requests))
		}
		p.Header("kspr_endpoint_errors_total", "Error responses per endpoint.", "counter")
		for _, row := range snap.endpoints {
			p.Sample("kspr_endpoint_errors_total", []obs.Label{{Name: "endpoint", Value: row.Name}}, float64(row.Errors))
		}
		p.Header("kspr_request_duration_seconds", "Request latency per endpoint.", "histogram")
		for _, row := range snap.endpoints {
			p.HistogramSeries("kspr_request_duration_seconds", []obs.Label{{Name: "endpoint", Value: row.Name}},
				obs.HistSnapshot{Bounds: obs.DefaultLatencyBuckets, Counts: row.Buckets, SumNs: row.SumNs})
		}
	}

	p.Counter("kspr_cache_hits_total", "Result cache hits.", float64(snap.Cache.Hits))
	p.Counter("kspr_cache_misses_total", "Result cache misses.", float64(snap.Cache.Misses))
	p.Gauge("kspr_cache_entries", "Entries currently cached.", float64(snap.Cache.Entries))
	p.Counter("kspr_cache_results_migrated_total", "Cached results carried across dataset generations.", float64(snap.Mutations.CacheMigrated))
	p.Counter("kspr_cache_results_dropped_total", "Cached results orphaned by dataset generations.", float64(snap.Mutations.CacheDropped))
	p.Gauge("kspr_pool_workers", "Worker pool size.", float64(snap.Pool.Workers))
	p.Gauge("kspr_pool_depth", "Queued plus running jobs in the worker pool.", float64(snap.Pool.Depth))
	p.Gauge("kspr_cpu_extra_slots", "Extra CPU slots in the parallelism budget.", float64(snap.CPU.ExtraSlots))
	p.Gauge("kspr_cpu_slots_in_use", "Extra CPU slots currently held by parallel queries.", float64(snap.CPU.InUse))
	p.Counter("kspr_mutation_batches_total", "Applied dataset mutation batches.", float64(snap.Mutations.Batches))
	p.Counter("kspr_mutations_total", "Individual mutations applied.", float64(snap.Mutations.Mutations))
	p.Counter("kspr_wal_recoveries_total", "Datasets restored by WAL replay at startup.", float64(snap.Mutations.Recoveries))
	p.Counter("kspr_whatif_probes_total", "What-if impact probes evaluated.", float64(snap.WhatIf.Probes))
	p.Counter("kspr_whatif_kept_total", "What-if probes answered from the engine's dominator count.", float64(snap.WhatIf.Kept))
	keepRate := 0.0
	if snap.WhatIf.Probes > 0 {
		keepRate = float64(snap.WhatIf.Kept) / float64(snap.WhatIf.Probes)
	}
	p.Gauge("kspr_whatif_keep_rate", "Fraction of what-if probes answered from the engine's dominator count.", keepRate)
	p.Gauge("kspr_datasets", "Datasets currently registered.", float64(len(snap.Datasets)))
	if len(snap.Datasets) > 0 {
		// 1 = the candidate index came from the persisted layout (warm
		// restart), 0 = it was rebuilt cold. Snapshot order is already
		// sorted by name.
		p.Header("ksprd_index_warm", "Whether the dataset's candidate index was restored warm (1) or rebuilt cold (0).", "gauge")
		for _, d := range snap.Datasets {
			v := 0.0
			if d.IndexWarm {
				v = 1.0
			}
			p.Sample("ksprd_index_warm", []obs.Label{{Name: "dataset", Value: d.Name}}, v)
		}
	}

	// Go runtime telemetry and binary identity.
	p.Gauge("ksprd_go_goroutines", "Live goroutines.", float64(snap.Runtime.Goroutines))
	p.Gauge("ksprd_go_heap_inuse_bytes", "Heap bytes in use (live objects plus unused span tails).", float64(snap.Runtime.HeapInuseBytes))
	p.Gauge("ksprd_go_gc_pause_p99_seconds", "p99 GC stop-the-world pause since process start.", snap.Runtime.GCPauseP99Ms/1000)
	p.Header("ksprd_build_info", "Binary identity; the value is always 1, the labels carry the facts.", "gauge")
	p.Sample("ksprd_build_info", []obs.Label{
		{Name: "version", Value: snap.Build.Version},
		{Name: "go", Value: snap.Build.Go},
		{Name: "goamd64", Value: snap.Build.GOAMD64},
	}, 1)

	// SLO burn rates and the rolled-up health verdict (absent when the SLO
	// engine is off).
	if snap.SLO != nil {
		healthy := 1.0
		if !snap.SLO.Healthy {
			healthy = 0
		}
		p.Gauge("ksprd_slo_healthy", "1 when no SLO is actively breaching its burn-rate thresholds.", healthy)
		p.Gauge("ksprd_health_score", "Overall health score in [0,1]: min over per-SLO scores.", snap.SLO.Score)
		if len(snap.SLO.Objectives) > 0 {
			p.Header("ksprd_slo_burn_rate", "Error-budget burn rate per SLO and window.", "gauge")
			for _, st := range snap.SLO.Objectives {
				for _, wb := range st.Windows {
					p.Sample("ksprd_slo_burn_rate", []obs.Label{
						{Name: "slo", Value: st.Name},
						{Name: "window", Value: windowLabel(wb.Short)},
					}, wb.BurnShort)
					p.Sample("ksprd_slo_burn_rate", []obs.Label{
						{Name: "slo", Value: st.Name},
						{Name: "window", Value: windowLabel(wb.Long)},
					}, wb.BurnLong)
				}
			}
		}
	}
	return p.Err()
}
