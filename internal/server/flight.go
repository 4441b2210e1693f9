package server

// This file is the flight-recorder surface: the two debug read endpoints
// (GET /v1/debug:flight, GET /v1/debug:events) and the crash black box —
// one JSON bundle of the wide-event ring, the lifecycle journal, and a
// metrics snapshot, written on panic (instrument's recover) or SIGQUIT
// (cmd/ksprd's signal handler) before the process dies.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Flight exposes the server's flight recorder (nil when disabled via
// Config.FlightCapacity < 0).
func (s *Server) Flight() *obs.FlightRecorder { return s.flight }

// Journal exposes the server's lifecycle event journal.
func (s *Server) Journal() *obs.Journal { return s.journal }

// flightResponse is the GET /v1/debug:flight payload.
type flightResponse struct {
	Events []obs.WideEvent `json:"events"`
	Stats  obs.FlightStats `json:"stats"`
	// JournalLastSeq is the journal's current high-water mark, so callers
	// can follow a flight read with a /v1/debug:events join immediately.
	JournalLastSeq uint64 `json:"journal_last_seq"`
}

// handleDebugFlight serves the retained wide events, oldest first,
// filterable by endpoint, dataset, min_latency_ms, errors_only, and limit
// (limit keeps the most recent matches).
func (s *Server) handleDebugFlight(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		writeError(w, http.StatusNotFound, "flight recorder disabled (FlightCapacity < 0)")
		return
	}
	var filter obs.FlightFilter
	if !parseQuery(w, r, func(name, raw string) (err error) {
		switch name {
		case "endpoint":
			filter.Endpoint = raw
		case "dataset":
			filter.Dataset = raw
		case "min_latency_ms":
			filter.MinLatency, err = durationParam(raw, time.Millisecond, false)
		case "errors_only":
			filter.ErrorsOnly, err = strconv.ParseBool(raw)
		case "limit":
			filter.Limit, err = limitParam(raw)
		default:
			return errUnknownParam
		}
		return err
	}) {
		return
	}
	events := s.flight.Events(filter)
	if events == nil {
		events = []obs.WideEvent{} // an empty ring is [], not null
	}
	writeJSON(w, http.StatusOK, flightResponse{
		Events:         events,
		Stats:          s.flight.Stats(),
		JournalLastSeq: s.journal.LastSeq(),
	})
}

// eventsResponse is the GET /v1/debug:events payload.
type eventsResponse struct {
	Events []obs.JournalEvent `json:"events"`
	// LastSeq is the journal's high-water mark — pass it back as ?since=
	// to resume the cursor.
	LastSeq uint64 `json:"last_seq"`
}

// handleDebugEvents serves the lifecycle journal with a since-sequence
// cursor: ?since=N returns events with seq > N (oldest retained first),
// ?limit=M caps the page.
func (s *Server) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	var since uint64
	limit := 0
	if !parseQuery(w, r, func(name, raw string) (err error) {
		switch name {
		case "since":
			since, err = strconv.ParseUint(raw, 10, 64)
		case "limit":
			limit, err = limitParam(raw)
		default:
			return errUnknownParam
		}
		return err
	}) {
		return
	}
	events := s.journal.Since(since, limit)
	if events == nil {
		events = []obs.JournalEvent{}
	}
	writeJSON(w, http.StatusOK, eventsResponse{Events: events, LastSeq: s.journal.LastSeq()})
}

// blackBoxBundle is the crash dump written to Config.BlackBoxDir: the
// whole flight ring, the whole journal, and a metrics snapshot — enough to
// reconstruct what the server was doing when it died.
type blackBoxBundle struct {
	Time        time.Time          `json:"time"`
	Reason      string             `json:"reason"`
	PID         int                `json:"pid"`
	Build       obs.BuildInfo      `json:"build"`
	Flight      []obs.WideEvent    `json:"flight"`
	FlightStats obs.FlightStats    `json:"flight_stats"`
	Journal     []obs.JournalEvent `json:"journal"`
	Metrics     MetricsSnapshot    `json:"metrics"`
}

// WriteBlackBox dumps the black-box bundle to Config.BlackBoxDir as
// blackbox-<pid>-<unixnano>.json (tmp + rename, so a half-written bundle
// is never left under the final name) and returns the bundle path. It
// errors when no BlackBoxDir is configured.
func (s *Server) WriteBlackBox(reason string) (string, error) {
	dir := s.cfg.BlackBoxDir
	if dir == "" {
		return "", fmt.Errorf("server: black box disabled (no BlackBoxDir)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("server: black box dir: %w", err)
	}
	s.journal.Append(obs.JournalEvent{Type: obs.EventBlackBox, Detail: map[string]any{"reason": reason}})
	bundle := blackBoxBundle{
		Time:        time.Now(),
		Reason:      reason,
		PID:         os.Getpid(),
		Build:       obs.ReadBuildInfo(),
		Flight:      s.flight.Events(obs.FlightFilter{}),
		FlightStats: s.flight.Stats(),
		Journal:     s.journal.Snapshot(),
		Metrics:     s.metricsView(),
	}
	if bundle.Flight == nil {
		bundle.Flight = []obs.WideEvent{}
	}
	raw, err := json.MarshalIndent(bundle, "", "  ")
	if err != nil {
		return "", fmt.Errorf("server: black box encode: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("blackbox-%d-%d.json", os.Getpid(), time.Now().UnixNano()))
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return "", fmt.Errorf("server: black box write: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", fmt.Errorf("server: black box rename: %w", err)
	}
	return path, nil
}
