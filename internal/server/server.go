package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	kspr "repro"
	"repro/internal/obs"
)

// Config tunes the service. The zero value is usable: NewServer fills in
// the defaults below.
type Config struct {
	// Workers is the worker-pool size (default 4); Queue its backlog
	// (default 64). Together they bound the query concurrency and memory.
	Workers int
	Queue   int
	// CacheShards / CacheCapacity size the result cache (default 8 x 1024
	// total entries). CacheCapacity <= 0 keeps the default; use a
	// one-entry cache to effectively disable caching in tests.
	CacheShards   int
	CacheCapacity int
	// DefaultTimeout bounds queries that do not ask for a deadline;
	// MaxTimeout caps what they may ask for.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBatch caps the number of queries a single batch request may carry.
	MaxBatch int
	// MaxParallelism caps the engine parallelism a single request may ask
	// for via its "parallelism" field (default: GOMAXPROCS). Requests
	// never get more than the shared CPU budget has free, so raising this
	// does not unbound total CPU.
	MaxParallelism int
	// CPUSlots sizes the shared budget of extra CPU slots parallel queries
	// draw from; total expansion concurrency stays within Workers +
	// CPUSlots. Default: max(0, GOMAXPROCS - Workers), i.e. parallel
	// queries may use cores the worker pool leaves idle. Set -1 to force a
	// zero budget (every query serial).
	CPUSlots int
	// StoreDir, when non-empty, makes every dataset durable: each name
	// gets a WAL-backed store under StoreDir/<name>, mutations are
	// WAL-appended before they are acknowledged, and startup recovery
	// (Registry.Recover) restores the pre-crash generations. Empty keeps
	// datasets in memory (still mutable, not durable).
	StoreDir string
	// WALSync fsyncs the WAL on every mutation batch (see kspr.WithWALSync);
	// SnapshotEvery sets the store snapshot cadence in batches (0 =
	// library default, negative disables automatic snapshots).
	WALSync       bool
	SnapshotEvery int
	// Logger receives structured request logs (Debug per request) and the
	// slow-query log (Warn). nil disables request logging entirely — the
	// default, and what most tests want.
	Logger *slog.Logger
	// SlowQuery is the slow-query-log threshold: requests at least this
	// slow are logged at Warn with their engine phase breakdown (every
	// request gets a trace when the threshold is set, so the breakdown is
	// available without ?debug=trace). <= 0 disables the slow-query log.
	SlowQuery time.Duration
	// FlightCapacity sizes the flight recorder's wide-event ring (0 =
	// obs.DefaultFlightCapacity; negative disables the recorder entirely).
	// The recorder is otherwise always on: it keeps all errors and 429s,
	// everything at or past the slow-query threshold (or 500ms when no
	// threshold is set), and a per-endpoint sample of normal traffic, all
	// readable at GET /v1/debug:flight.
	FlightCapacity int
	// FlightSampleEvery captures one in this many ordinary (non-error,
	// non-slow) requests per endpoint (0 = obs.DefaultFlightSampleEvery;
	// negative disables normal-traffic sampling, keeping only errors and
	// slow requests).
	FlightSampleEvery int
	// BlackBoxDir, when non-empty, arms the crash black box: a handler
	// panic (and, in ksprd, SIGQUIT) dumps the flight ring, the event
	// journal, and a metrics snapshot to one JSON bundle under this
	// directory before the process dies.
	BlackBoxDir string
	// HistoryInterval is the telemetry sampler cadence (0 =
	// obs.DefaultHistoryInterval, 10s; negative disables the history ring
	// and the SLO engine, turning /v1/debug:history and /v1/debug:health
	// into 404s). HistoryRetention is how far back the ring reaches (0 =
	// obs.DefaultHistoryRetention, 1h).
	HistoryInterval  time.Duration
	HistoryRetention time.Duration
	// SLOAvailability is the availability objective's good-fraction
	// target (0 = 0.999; negative disables the availability SLO). SLOP99
	// bounds per-class p99 latency (0 = 500ms; negative disables the
	// latency SLOs). Burn rates use the standard fast 5m/1h + slow 30m/6h
	// multi-window pairs.
	SLOAvailability float64
	SLOP99          time.Duration
}

// defaultFlightSlow classifies requests as slow for flight capture when no
// slow-query threshold is configured.
const defaultFlightSlow = 500 * time.Millisecond

func (c *Config) normalize() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	if c.MaxParallelism <= 0 {
		c.MaxParallelism = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.CPUSlots < 0:
		c.CPUSlots = 0
	case c.CPUSlots == 0:
		if extra := runtime.GOMAXPROCS(0) - c.Workers; extra > 0 {
			c.CPUSlots = extra
		}
	}
}

// Server is the ksprd service: registry + pool + cache + metrics behind an
// http.Handler. Create with NewServer, serve via Handler, stop with Close.
type Server struct {
	cfg      Config
	registry *Registry
	pool     *Pool
	cache    *Cache
	cpu      *CPUBudget
	metrics  *Metrics
	mux      *http.ServeMux
	logger   *slog.Logger
	// flight is the always-on tail-sampling request recorder (nil when
	// Config.FlightCapacity < 0); journal the lifecycle event log both
	// debug endpoints and the black box read.
	flight  *obs.FlightRecorder
	journal *obs.Journal
	// sampler owns the telemetry history ring and the SLO engine (nil
	// when Config.HistoryInterval < 0).
	sampler *sampler
	// rtScrape reads Go runtime telemetry for /metrics scrapes; rtMu
	// serializes it (the sampler goroutine has its own reader).
	rtScrape *obs.RuntimeSampler
	rtMu     sync.Mutex
	// ready flips once startup WAL recovery finishes (or was never
	// needed); /readyz serves 503 until then.
	ready atomic.Bool
}

// NewServer wires the subsystem together.
func NewServer(cfg Config) *Server {
	cfg.normalize()
	registry := NewRegistry()
	if cfg.StoreDir != "" {
		registry = NewRegistryWithStore(cfg.StoreDir, cfg.WALSync, cfg.SnapshotEvery)
	}
	s := &Server{
		cfg:      cfg,
		registry: registry,
		pool:     NewPool(cfg.Workers, cfg.Queue),
		cache:    NewCache(cfg.CacheShards, cfg.CacheCapacity),
		cpu:      NewCPUBudget(cfg.CPUSlots),
		metrics:  NewMetrics(),
		logger:   cfg.Logger,
		journal:  obs.NewJournal(0),
		rtScrape: obs.NewRuntimeSampler(),
	}
	if cfg.FlightCapacity >= 0 {
		slow := cfg.SlowQuery
		if slow <= 0 {
			slow = defaultFlightSlow
		}
		s.flight = obs.NewFlightRecorder(cfg.FlightCapacity, slow, cfg.FlightSampleEvery)
	}
	// Durable stores report their lifecycle (WAL recovery, snapshot
	// writes and failures, index warm/cold) into the journal, tagged per
	// dataset — the hook must be installed before any Load/Recover opens
	// a store.
	registry.SetStoreEventHook(func(name string, ev kspr.StoreEvent) {
		detail := map[string]any{"records": ev.Records, "wal_frames": ev.WALFrames}
		if ev.Err != "" {
			detail["error"] = ev.Err
		}
		s.journal.Append(obs.JournalEvent{
			Type:            ev.Kind,
			Dataset:         name,
			StoreGeneration: ev.Gen,
			Detail:          detail,
		})
	})
	// A store-less server has nothing to recover; store-backed servers
	// become ready when RecoverDatasets finishes.
	s.ready.Store(cfg.StoreDir == "")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics.prom", s.handleMetricsProm)
	mux.HandleFunc("GET /v1/datasets", s.instrument("datasets.list", s.handleDatasetList))
	mux.HandleFunc("POST /v1/datasets", s.instrument("datasets.load", s.handleDatasetLoad))
	mux.HandleFunc("DELETE /v1/datasets/{name}", s.instrument("datasets.unload", s.handleDatasetUnload))
	// {action} carries the Google-style custom verb ("<name>:mutate"); the
	// handler rejects anything else, keeping the plain POST /v1/datasets
	// collection route unambiguous.
	mux.HandleFunc("POST /v1/datasets/{action}", s.instrument("datasets.mutate", s.handleDatasetMutate))
	mux.HandleFunc("POST /v1/kspr", s.instrument("kspr", s.handleKSPR))
	mux.HandleFunc("GET /v1/kspr", s.instrument("kspr", s.handleKSPRGet))
	mux.HandleFunc("POST /v1/kspr:batch", s.instrument("kspr.batch", s.handleBatch))
	mux.HandleFunc("POST /v1/topk", s.instrument("topk", s.handleTopK))
	mux.HandleFunc("GET /v1/skyline", s.instrument("skyline", s.handleSkyline))
	mux.HandleFunc("POST /v1/impact", s.instrument("impact", s.handleImpact))
	// The what-if layer: competitor attribution, repricing search, and
	// impact–price frontiers (Google-style custom verbs, like :mutate).
	mux.HandleFunc("GET /v1/impact:competitors", s.instrument("impact.competitors", s.handleCompetitors))
	mux.HandleFunc("POST /v1/whatif:price", s.instrument("whatif.price", s.handlePrice))
	mux.HandleFunc("POST /v1/whatif:frontier", s.instrument("whatif.frontier", s.handleFrontier))
	// Post-hoc forensics: the flight recorder's wide events and the
	// lifecycle event journal (same custom-verb style as :mutate).
	mux.HandleFunc("GET /v1/debug:flight", s.instrument("debug.flight", s.handleDebugFlight))
	mux.HandleFunc("GET /v1/debug:events", s.instrument("debug.events", s.handleDebugEvents))
	// The time dimension: the telemetry history ring and the scored SLO
	// health verdict it feeds.
	mux.HandleFunc("GET /v1/debug:history", s.instrument("debug.history", s.handleDebugHistory))
	mux.HandleFunc("GET /v1/debug:health", s.instrument("debug.health", s.handleDebugHealth))
	s.mux = mux
	if cfg.HistoryInterval >= 0 {
		s.sampler = newSampler(s)
		go s.sampler.run()
	}
	return s
}

// Registry exposes the dataset registry (e.g. for preloading at startup).
func (s *Server) Registry() *Registry { return s.registry }

// RecoverDatasets re-registers every dataset found in the store directory
// (snapshot load + WAL replay) and accounts the recoveries in /metrics.
// Call once at startup; it may run concurrently with serving — /readyz
// reports not-ready until it completes successfully, so load balancers
// keep traffic off a node that is still replaying.
func (s *Server) RecoverDatasets() ([]*Snapshot, error) {
	snaps, err := s.registry.Recover()
	s.metrics.AddRecoveries(len(snaps))
	if err == nil {
		s.ready.Store(true)
	}
	return snaps, err
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// errBodyCap bounds how much error-response body the flight recorder
// keeps per request — enough for the {"error": ...} envelope, never a
// payload.
const errBodyCap = 256

// statusRecorder captures the response status for metrics and, on error
// responses, the leading bytes of the body for the flight recorder.
type statusRecorder struct {
	http.ResponseWriter
	status  int
	errBody []byte
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Write tees the first errBodyCap bytes of error responses into errBody so
// captured wide events carry the error text without any handler changes.
func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status >= 400 && len(r.errBody) < errBodyCap {
		keep := errBodyCap - len(r.errBody)
		if keep > len(p) {
			keep = len(p)
		}
		r.errBody = append(r.errBody, p[:keep]...)
	}
	return r.ResponseWriter.Write(p)
}

// Flush forwards streaming flushes (the batch endpoint needs this through
// the recorder).
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with latency/error accounting, the
// per-request correlation id (accepted from, and echoed as, the
// X-Request-Id header), and — when EXPLAIN mode or the slow-query log
// asks for one — the engine trace handlers thread into query options.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		ri := &reqInfo{id: id, debug: wantTrace(r)}
		// The flight recorder needs a trace on EVERY request: whether one
		// turns out slow (and so capture-worthy) is only known at the end.
		if ri.debug || s.cfg.SlowQuery > 0 || s.flight.Enabled() {
			ri.trace = obs.NewTrace()
		}
		r = r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, ri))
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		if s.cfg.BlackBoxDir != "" {
			defer func() {
				p := recover()
				if p == nil {
					return
				}
				// Capture the panicking request itself, then dump the black
				// box; the re-panic preserves net/http's panic semantics.
				s.flight.Record(obs.WideEvent{
					Time: start, RequestID: id, Endpoint: name,
					Method: r.Method, Path: r.URL.Path,
					Dataset: ri.dataset, Generation: ri.generation,
					Status:    http.StatusInternalServerError,
					LatencyNs: int64(time.Since(start)), Kind: obs.CaptureError,
					Error: fmt.Sprintf("panic: %v", p),
				})
				if _, err := s.WriteBlackBox(fmt.Sprintf("panic in %s: %v", name, p)); err != nil && s.logger != nil {
					s.logger.Error("black box write failed", slog.String("error", err.Error()))
				}
				panic(p)
			}()
		}
		h(rec, r)
		elapsed := time.Since(start)
		s.metrics.Observe(name, elapsed, rec.status)
		s.logRequest(name, r, ri, rec.status, elapsed)
		if kind, ok := s.flight.ShouldCapture(name, rec.status, elapsed); ok {
			ev := obs.WideEvent{
				Time: start, RequestID: id, Endpoint: name,
				Method: r.Method, Path: r.URL.Path,
				Dataset: ri.dataset, Generation: ri.generation,
				Status: rec.status, LatencyNs: int64(elapsed), Kind: kind,
				Cached: ri.cached, Error: string(rec.errBody), Stats: ri.stats,
			}
			if ri.trace != nil {
				ev.Phases = ri.trace.Phases()
			}
			s.flight.Record(ev)
		}
	}
}

// Close drains the worker pool gracefully (queued queries finish, new
// submissions fail with ErrPoolClosed) and releases the registry's store
// handles. Call after the HTTP listener has stopped accepting requests
// (http.Server.Shutdown).
func (s *Server) Close() {
	s.sampler.close()
	s.pool.Close()
	s.registry.Close()
}

// ListenAndServe runs the service on addr until ctx is cancelled, then
// shuts down gracefully: the listener drains in-flight HTTP requests
// (bounded by grace), after which the pool is closed.
func (s *Server) ListenAndServe(ctx context.Context, addr string, grace time.Duration) error {
	httpSrv := &http.Server{Addr: addr, Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		s.Close()
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := httpSrv.Shutdown(shutdownCtx)
	s.Close()
	return err
}
