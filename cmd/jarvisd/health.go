package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"sync"
	"time"

	"jarvis/internal/health"
	"jarvis/internal/replay"
	"jarvis/internal/telemetry"
	"jarvis/internal/tsdb"
	"jarvis/internal/version"
)

// The policy-health layer (DESIGN.md §14) runs on two cadences, both off
// the request path:
//
//   - the health tick (TSInterval) snapshots telemetry, appends the
//     snapshot to the metric history, re-scores the SLO tracker over that
//     history, and evaluates the alert rules against it;
//   - the shadow evaluator runs every ShadowEvery online learn steps:
//     the learn path captures the live Q under the state lock (cheap
//     serialization), then a goroutine replays the WAL window through
//     replay.WhatIf against the newest checkpoint generation while the
//     daemon keeps serving.
//
// A drift alert with Rollback set arms the same rl.Watchdog path an
// internal divergence detection would, closing the loop: poisoned live
// policy → divergent shadow replay → alert → checkpoint rollback →
// divergence disappears → alert resolves.

// processStart anchors jarvisd_uptime_seconds.
var processStart = time.Now()

var buildMetricsOnce sync.Once

// registerBuildMetrics publishes the build-info and uptime metrics on the
// Default registry (satellite: standard fleet-dashboard plumbing).
func registerBuildMetrics() {
	buildMetricsOnce.Do(func() {
		telemetry.Default.SetInfo("jarvisd.build.info", map[string]string{
			"goversion": runtime.Version(),
			"version":   buildVersion(),
		})
		telemetry.Default.GaugeFunc("jarvisd.uptime.seconds", func() float64 {
			return time.Since(processStart).Seconds()
		})
	})
}

// buildVersion derives a git-describe-style version from the embedded
// build info: the module version when released, else the VCS revision
// with a -dirty suffix, else "devel".
func buildVersion() string {
	return version.String()
}

// defaultObjectives is the daemon's built-in SLO set: the serve-path
// latency objective plus the three "is the policy still trustworthy"
// ratios the paper's enforcement discussion cares about.
func defaultObjectives() []health.Objective {
	return []health.Objective{
		{
			Name:      "recommend-p99",
			Histogram: "jarvisd.request.latency",
			// 10ms: two orders of magnitude above the compiled fast path, so
			// only real trouble (lock convoys, shed storms) burns it.
			ThresholdNs: 10 * time.Millisecond.Nanoseconds(),
			Target:      0.99,
		},
		{
			Name: "degraded-recommendations",
			Bad:  "rl.recommend.degraded",
			// Labeled series are addressed by their flat snapshot name.
			Total:  `jarvisd.requests{op="recommend"}`,
			Target: 0.999,
		},
		{
			Name:   "shed-recommends",
			Bad:    "jarvisd.shed.recommends",
			Total:  `jarvisd.requests{op="recommend"}`,
			Target: 0.99,
		},
		{
			Name:    "safety-violations",
			Counter: "jarvisd.events.unsafe",
			Budget:  5,
		},
	}
}

// initHealth wires the health subsystem onto the server: metric history,
// alert engine, SLO tracker, shadow evaluator, and the health tick.
// Called at the end of newServer, after every startup mutation has
// landed.
func (s *server) initHealth() error {
	registerBuildMetrics()
	// The trace ring size is registry-backed so jarvisctl stats can show it
	// without a /healthz round trip. Last daemon wins in multi-daemon test
	// processes, which is fine for a process-wide registry.
	tracer := s.tracer
	telemetry.Default.GaugeFunc("jarvisd.traces.sampled", func() float64 {
		return float64(tracer.Ring().Len())
	})

	// The baseline point carries everything boot counted (restored
	// counters, the replayed WAL), so the first SLO window and the first
	// alert deltas start when serving starts: boot replay never reads as
	// burn, and whatever is counted after it counts from the first tick.
	s.ts = s.openHistory()
	s.appendPoint()
	rules := s.cfg.AlertRules
	if rules == nil {
		rules = health.DefaultRules()
	}
	eng, err := health.NewEngine(s.ts, health.EngineConfig{
		Rules:    rules,
		LogPath:  s.cfg.AlertLogPath,
		OnFiring: s.onAlertFiring,
		Logf:     s.cfg.Logf,
	})
	if err != nil {
		s.ts.Close()
		return err
	}
	s.health = eng

	objectives := defaultObjectives()
	if s.cfg.FollowAddr != "" {
		// A hot standby tracks how far it trails the primary as an SLO: the
		// jarvisd.replica.lag.records gauge (registered when following
		// starts) against a 256-record budget. The default replication-lag
		// alert rule fires on this objective's burn gauge.
		objectives = append(objectives, health.Objective{
			Name:   "replication-lag",
			Gauge:  "jarvisd.replica.lag.records",
			Budget: 256,
		})
	}
	tr, err := health.NewTracker(s.ts, s.cfg.SLOWindow, objectives, telemetry.Default)
	if err != nil {
		eng.Close()
		s.ts.Close()
		return err
	}
	s.slo = tr

	// Shadow evaluation needs both a journal to replay and a checkpoint
	// generation to fork from; without either it stays off and the drift
	// gauges simply never move.
	if s.cfg.ShadowEvery > 0 && s.wal != nil && s.store != nil {
		s.shadow = health.NewShadow(health.ShadowConfig{
			Config: replayConfig(s.cfg),
			Source: replay.Source{
				WALDir:           s.cfg.WALDir,
				CheckpointPath:   s.cfg.CheckpointPath,
				CheckpointRetain: s.cfg.CheckpointRetain,
			},
			Devices: s.home.Env.K(),
			Logf:    s.cfg.Logf,
		})
	}

	s.wg.Add(1)
	go s.healthLoop()
	return nil
}

// healthLoop is the health tick: every TSInterval until shutdown it takes
// one snapshot, appends it to the metric history, re-scores the SLO
// tracker over that history, and evaluates the alert rules.
func (s *server) healthLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.TSInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.appendPoint()
			s.slo.Publish()
			s.health.Evaluate()
		}
	}
}

// appendPoint snapshots the registry into the metric history.
func (s *server) appendPoint() {
	if err := s.ts.Append(tsdb.FromSnapshot(telemetry.Default.Snapshot())); err != nil {
		s.cfg.Logf("jarvisd: tsdb append: %v", err)
	}
}

// onAlertFiring runs on each alert's firing edge (outside the engine
// lock). Rollback-armed alerts trip the watchdog, which restores the
// newest checkpoint generation under the state lock — the same path an
// internally detected divergence takes.
func (s *server) onAlertFiring(a health.Alert) {
	if !a.Rollback || s.watchdog == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.watchdog.Trip("alert " + a.Rule + ": " + a.Description)
}

// maybeShadowEval triggers a shadow evaluation every ShadowEvery learn
// steps. Caller holds s.mu — the Q serialization must be consistent with
// the learn step that just ran — but the replay itself runs on its own
// goroutine so the lock is released before any expensive work starts.
func (s *server) maybeShadowEval() {
	if s.shadow == nil || s.stream.LearnSteps%s.cfg.ShadowEvery != 0 {
		return
	}
	if !s.shadow.TryBegin() {
		return // previous evaluation still replaying; skip this cadence
	}
	var buf bytes.Buffer
	if err := s.sys.SaveQ(&buf); err != nil {
		// A Q function that cannot even serialize (non-finite values) is
		// drift by definition; FailCapture pegs the divergence gauge.
		s.shadow.FailCapture(err)
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.shadow.Run(buf.Bytes())
	}()
}

// alertsDocument is the /debug/alerts body.
type alertsDocument struct {
	Stats   health.EngineStats   `json:"stats"`
	Firing  []health.Alert       `json:"firing"`
	History []health.Transition  `json:"history"`
	Shadow  *health.ShadowReport `json:"shadow,omitempty"`
	Rules   []health.Rule        `json:"rules,omitempty"`
}

// handleAlerts serves the alert engine state: lifecycle stats, currently
// firing alerts, recent transitions, the latest shadow report, and (with
// ?rules=1) the active rule set.
func (s *server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	doc := alertsDocument{
		Stats:   s.health.Stats(),
		Firing:  s.health.Active(),
		History: s.health.History(64),
	}
	if s.shadow != nil {
		doc.Shadow = s.shadow.Last()
	}
	if r.URL.Query().Get("rules") != "" {
		doc.Rules = s.health.Rules()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		s.cfg.Logf("jarvisd: alerts encode: %v", err)
	}
}

// handleSLO serves the SLO tracker's windowed report.
func (s *server) handleSLO(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.slo.Report()); err != nil {
		s.cfg.Logf("jarvisd: slo encode: %v", err)
	}
}
