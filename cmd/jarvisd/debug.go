package main

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"jarvis/internal/compiled"
	"jarvis/internal/health"
	"jarvis/internal/replay"
	"jarvis/internal/rl"
	"jarvis/internal/telemetry"
	"jarvis/internal/trace"
	"jarvis/internal/tsdb"
)

// The debug listener is a second, HTTP-speaking socket so observability
// traffic (scrapes, health probes, profilers) never competes with the
// JSON-lines protocol on the main listener:
//
//	/metrics      one JSON telemetry snapshot (counters, gauges,
//	              histograms with p50/p95/p99, recent events); with
//	              ?format=prom or an Accept header preferring text/plain,
//	              the same registry in Prometheus text exposition format
//	/healthz      200 while healthy, 503 once any recommendation has
//	              degraded to the safe NoOp; reports the violation count
//	              and the age of the last checkpoint
//	/debug/replay        verify-mode deterministic replay of the daemon's
//	                     own WAL against its own decision log (200 on a
//	                     bit-identical regeneration, 409 with the first
//	                     divergence otherwise; needs -wal and
//	                     -log-decisions)
//	/debug/traces        recent sampled request traces as JSON lines
//	                     (?n= caps the count, ?sort=slowest ranks by
//	                     duration); /debug/traces/chrome re-exports them
//	                     as Chrome trace_event JSON for chrome://tracing
//	                     and Perfetto
//	/debug/tsdb          range queries over the metric history
//	                     (?series=&fn=rate|delta|p50|p95|p99|raw with
//	                     from/to or window; no params = index; 404 when
//	                     alerting is off)
//	/debug/vars   expvar, including the same telemetry snapshot
//	/debug/pprof  the standard Go profiler endpoints

// startDebug binds the observability endpoints on addr and serves them
// until Close. The handlers live on a private mux — never the HTTP
// DefaultServeMux — so tests can run many daemons in one process.
func (s *server) startDebug(addr string) error {
	telemetry.PublishExpvar()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/replay", s.handleReplay)
	mux.HandleFunc("/debug/alerts", s.handleAlerts)
	mux.HandleFunc("/debug/slo", s.handleSLO)
	mux.HandleFunc("/debug/traces", s.handleTraces)
	mux.HandleFunc("/debug/traces/chrome", s.handleTracesChrome)
	mux.HandleFunc("/debug/tsdb", s.handleTSDB)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.debug = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	s.debugLn = ln
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := s.debug.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.cfg.Logf("jarvisd: debug server: %v", err)
		}
	}()
	return nil
}

// DebugAddr returns the bound debug address ("" when disabled).
func (s *server) DebugAddr() string {
	if s.debugLn == nil {
		return ""
	}
	return s.debugLn.Addr().String()
}

// handleMetrics serves the process-wide registry, negotiating between the
// native JSON snapshot (default) and Prometheus text exposition: either
// ?format=prom|json wins outright, else an Accept header that mentions
// text/plain without application/json selects the Prometheus form.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := telemetry.Default.WritePrometheus(w); err != nil {
			s.cfg.Logf("jarvisd: metrics write: %v", err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(telemetry.Default.Snapshot()); err != nil {
		s.cfg.Logf("jarvisd: metrics encode: %v", err)
	}
}

// wantsPrometheus decides the /metrics representation: explicit ?format=
// first, Accept header second, JSON as the fallback.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prom", "prometheus", "text":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json")
}

// handleTraces serves the sampled-trace ring as JSON lines, newest first.
// ?n= caps how many; ?sort=slowest ranks by duration instead of recency.
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n, _ := strconv.Atoi(r.URL.Query().Get("n"))
	var traces []*trace.TraceData
	if r.URL.Query().Get("sort") == "slowest" {
		traces = s.tracer.Ring().Slowest(n)
	} else {
		traces = s.tracer.Ring().Recent(n)
	}
	w.Header().Set("Content-Type", "application/json")
	if err := trace.WriteJSONL(w, traces); err != nil {
		s.cfg.Logf("jarvisd: traces write: %v", err)
	}
}

// handleTracesChrome re-exports the ring in Chrome trace_event format,
// loadable directly in chrome://tracing or https://ui.perfetto.dev.
func (s *server) handleTracesChrome(w http.ResponseWriter, r *http.Request) {
	n, _ := strconv.Atoi(r.URL.Query().Get("n"))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="jarvisd-trace.json"`)
	if err := trace.WriteChrome(w, s.tracer.Ring().Recent(n)); err != nil {
		s.cfg.Logf("jarvisd: chrome trace write: %v", err)
	}
}

// healthStatus is the /healthz body.
type healthStatus struct {
	Status string `json:"status"` // "ok" | "degraded"
	// Role is the replication role: "primary" (the default) or "follower"
	// (started with -follow and not yet promoted). Replication carries the
	// standby's stream position, lag, and promotion timing; absent on a
	// daemon never configured to follow.
	Role        string             `json:"role"`
	Replication *replicationStatus `json:"replication,omitempty"`
	// DegradedRecommendations counts recommendations that fell back to the
	// safe NoOp (non-finite Q values or a failed FSM transition check). Any
	// nonzero value flips the endpoint to 503: the optimizer is no longer
	// trustworthy and an operator should restore a checkpoint or retrain.
	DegradedRecommendations int  `json:"degradedRecommendations"`
	Violations              int  `json:"violations"`
	RestoredFromCheckpoint  bool `json:"restoredFromCheckpoint"`
	// CheckpointAgeSec reports how stale the on-disk checkpoint is (only
	// when checkpointing is enabled). Informational: the daemon checkpoints
	// on demand and on shutdown, so age alone is not a failure.
	CheckpointAgeSec float64 `json:"checkpointAgeSec,omitempty"`
	// Watchdog reports divergence trips and generation rollbacks. A
	// nonzero rollback count with zero degraded recommendations means the
	// self-healing path worked: the optimizer diverged and was restored
	// without ever serving from the broken Q function.
	Watchdog rl.WatchdogStats `json:"watchdog"`
	// Admission control, as seen at report time.
	QueueDepth     int64 `json:"queueDepth"`
	ShedEvents     int   `json:"shedEvents,omitempty"`
	ShedRecommends int   `json:"shedRecommends,omitempty"`
	// Online learning progression (events applied, transitions accepted,
	// learn steps run).
	Events      int `json:"events,omitempty"`
	OnlineSteps int `json:"onlineSteps,omitempty"`
	LearnSteps  int `json:"learnSteps,omitempty"`
	// WALSegments is the journal's current segment count (0 = disabled);
	// WALSizeBytes is the journal's on-disk size — with the default
	// retention this is exactly the bytes accumulated since the last
	// checkpoint barrier, i.e. how much a crash right now would replay.
	// WALRecordSpans maps each record kind ("evt", "txn", "rec") to the
	// first/last kind-local sequence number currently in the journal.
	WALSegments    int                `json:"walSegments,omitempty"`
	WALSizeBytes   int64              `json:"walSizeBytes,omitempty"`
	WALRecordSpans map[string]walSpan `json:"walRecordSpans,omitempty"`
	// TracesSampled is the number of completed traces currently retained
	// in the sampling ring (0 when tracing is disabled).
	TracesSampled int `json:"tracesSampled,omitempty"`
	// CompiledPolicy reports the compiled-table serving cache: readiness,
	// table shape, hit/miss/rebuild counters, and the staleness window of
	// the last rebuild. Absent when the daemon runs with -compiled=false.
	CompiledPolicy *compiled.CacheStats `json:"compiledPolicy,omitempty"`
	// Wire reports codec negotiation: connections that spoke the binary
	// protocol vs JSON lines, plus the binary loop's coalesced requests
	// and shared in-batch recommend evaluations.
	WireBinaryConns int64 `json:"wireBinaryConns,omitempty"`
	WireJSONConns   int64 `json:"wireJsonConns,omitempty"`
	WireCoalesced   int64 `json:"wireCoalesced,omitempty"`
	WireSharedEvals int64 `json:"wireSharedEvals,omitempty"`
	// AlertsFiring lists the alert engine's currently firing alerts (see
	// /debug/alerts for history and stats); SLOBurn maps each objective to
	// its current error-budget burn rate (> 1 = out of SLO); Shadow is the
	// latest shadow-evaluation report. All absent when alerting is off.
	AlertsFiring []health.Alert       `json:"alertsFiring,omitempty"`
	SLOBurn      map[string]float64   `json:"sloBurn,omitempty"`
	Shadow       *health.ShadowReport `json:"shadow,omitempty"`
	// TSDB is the metric history's footprint (absent when alerting is
	// off; 0 segments and bytes without -tsdb). TelemetrySeries counts
	// every series the registry currently exports, including labeled vec
	// children; TelemetryLabelsDropped counts writes lost to vec
	// cardinality caps — nonzero means a label blowup is being contained.
	TSDB                   *tsdb.Stats `json:"tsdb,omitempty"`
	TelemetrySeries        int         `json:"telemetrySeries"`
	TelemetryLabelsDropped int64       `json:"telemetryLabelsDropped,omitempty"`
}

// handleReplay runs a verify-mode deterministic replay of the daemon's own
// WAL against its own decision log: it rebuilds the serving state the way a
// restart would (newest checkpoint generation, else fresh training), streams
// the journal through the offline replay engine, and diffs the regenerated
// decision stream against what the daemon actually logged. 200 with the
// report means the daemon can reproduce its own history bit-for-bit; 409
// carries the first divergence. The daemon lock is held for the duration —
// this is an audit probe, not a serving-path endpoint — so the journal and
// the log are frozen and consistent while they are compared.
func (s *server) handleReplay(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.cfg.WALDir == "" || s.cfg.DecisionLogPath == "" {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]string{
			"error": "replay verification needs the daemon started with both -wal and -log-decisions",
		})
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Flush the buffered decision log so the comparison sees every line the
	// daemon has produced (the WAL is already durable per its sync policy).
	if s.decisions != nil {
		if err := s.decisions.Sync(); err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
			return
		}
	}
	rep, err := replay.Verify(replay.VerifyOptions{
		Config: replayConfig(s.cfg),
		Source: replay.Source{
			WALDir:           s.cfg.WALDir,
			CheckpointPath:   s.cfg.CheckpointPath,
			CheckpointRetain: s.cfg.CheckpointRetain,
		},
		DecisionLog: s.cfg.DecisionLogPath,
	})
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
		return
	}
	if !rep.Match {
		w.WriteHeader(http.StatusConflict)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		s.cfg.Logf("jarvisd: replay report encode: %v", err)
	}
}

// handleHealthz reports daemon health: 200 while every recommendation so
// far was served from a trusted Q function, 503 once any degraded to the
// safe NoOp. The system state is read under the daemon lock, so the report
// is consistent with concurrent client traffic.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := healthStatus{
		Status:                  "ok",
		DegradedRecommendations: s.sys.DegradedRecommendations(),
		Violations:              s.stream.Violations,
		RestoredFromCheckpoint:  s.restored,
		QueueDepth:              s.inflight.Load(),
		ShedEvents:              s.shedEvents,
		ShedRecommends:          s.shedRecommends,
		Events:                  s.stream.Events,
		OnlineSteps:             s.stream.OnlineSteps,
		LearnSteps:              s.stream.LearnSteps,
	}
	if s.watchdog != nil {
		h.Watchdog = s.watchdog.Stats()
	}
	if s.wal != nil {
		h.WALSegments = s.wal.Segments()
		h.WALSizeBytes = s.wal.SizeBytes()
		if len(s.walSpans) > 0 {
			h.WALRecordSpans = make(map[string]walSpan, len(s.walSpans))
			for k, sp := range s.walSpans {
				h.WALRecordSpans[k] = sp
			}
		}
	}
	s.mu.Unlock()
	h.Role = s.role()
	h.Replication = s.replicationHealth()
	h.TelemetrySeries = telemetry.Default.SeriesCount()
	h.TelemetryLabelsDropped = telemetry.Default.LabelsDropped()
	st := s.ts.Stats()
	h.TSDB = &st
	h.TracesSampled = s.tracer.Ring().Len()
	h.AlertsFiring = s.health.Active()
	rep := s.slo.Report()
	h.SLOBurn = make(map[string]float64, len(rep.Objectives))
	for _, o := range rep.Objectives {
		h.SLOBurn[o.Name] = o.BurnRate
	}
	if s.shadow != nil {
		h.Shadow = s.shadow.Last()
	}
	if c := s.sys.CompiledPolicy(); c != nil {
		st := c.Stats()
		h.CompiledPolicy = &st
	}
	h.WireBinaryConns = mWireBinary.Value()
	h.WireJSONConns = mWireJSON.Value()
	h.WireCoalesced = mWireCoalesced.Value()
	h.WireSharedEvals = mWireSharedEvals.Value()
	if s.cfg.CheckpointPath != "" {
		if last := s.lastCkpt.Load(); last > 0 {
			h.CheckpointAgeSec = time.Since(time.Unix(0, last)).Seconds()
		}
	}
	code := http.StatusOK
	if h.DegradedRecommendations > 0 {
		h.Status = "degraded"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(h); err != nil {
		s.cfg.Logf("jarvisd: healthz encode: %v", err)
	}
}
