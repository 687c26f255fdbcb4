package health

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"jarvis/internal/telemetry"
	"jarvis/internal/tsdb"
)

// Alert is one currently-firing rule.
type Alert struct {
	Rule        string   `json:"rule"`
	Severity    Severity `json:"severity"`
	Value       float64  `json:"value"`
	Threshold   float64  `json:"threshold"`
	Op          string   `json:"op"`
	FiredUnixNs int64    `json:"firedUnixNs"`
	// Count is how many evaluations have breached since firing — repeated
	// breaches dedup into this counter instead of new alerts.
	Count       int64  `json:"count"`
	Rollback    bool   `json:"rollback,omitempty"`
	Description string `json:"description,omitempty"`
}

// Transition is one firing or resolved edge, kept in the bounded history
// ring and appended to the JSONL alert log.
type Transition struct {
	UnixNs      int64    `json:"unixNs"`
	Rule        string   `json:"rule"`
	State       string   `json:"state"` // "firing" | "resolved"
	Severity    Severity `json:"severity"`
	Value       float64  `json:"value"`
	Threshold   float64  `json:"threshold"`
	Op          string   `json:"op"`
	Rollback    bool     `json:"rollback,omitempty"`
	Description string   `json:"description,omitempty"`
}

// EngineConfig configures an alert engine.
type EngineConfig struct {
	Rules []Rule
	// RingSize bounds the transition history (default 256).
	RingSize int
	// LogPath appends one JSON line per transition (empty = disabled).
	LogPath string
	// OnFiring runs synchronously for each alert on its firing edge, after
	// the engine's own lock is released — it may take daemon locks.
	OnFiring func(Alert)
	// Registry receives the engine's own metrics (default telemetry.Default).
	Registry *telemetry.Registry
	// Now substitutes the clock in tests.
	Now  func() time.Time
	Logf func(format string, args ...any)
}

// ruleState is the per-rule half of the firing→resolved state machine.
type ruleState struct {
	rule         Rule
	firing       bool
	breachStreak int
	okStreak     int
	firedAt      int64
	count        int64
	lastValue    float64
}

// Engine evaluates threshold rules over the daemon's metric history and
// owns the alert lifecycle: fire after For consecutive breaches, dedup
// repeated breaches into the existing alert, resolve after ClearFor
// consecutive clean evaluations. Each evaluation reads the store's newest
// point; a delta rule reads the change since the point the previous
// evaluation read — at construction, the store's newest — so whatever
// was counted before the first evaluation still counts. Evaluate is
// driven by the daemon's health tick; readers (debug endpoints, healthz)
// use Active, History, and Stats concurrently.
type Engine struct {
	store *tsdb.DB

	mu    sync.Mutex
	rules []*ruleState
	// lastNs stamps the point the previous evaluation read.
	lastNs  int64
	ring    []Transition
	ringCap int
	log     *os.File
	cfg     EngineConfig

	evaluations int64
	fired       int64
	resolved    int64
	logFailures int64

	gFiring  *telemetry.Gauge
	gPerRule map[string]*telemetry.Gauge
	cEvals   *telemetry.Counter
	cFired   *telemetry.Counter
	cResolve *telemetry.Counter
}

// NewEngine builds an engine from validated rules over store. Metric
// handles are resolved once here, never during Evaluate.
func NewEngine(store *tsdb.DB, cfg EngineConfig) (*Engine, error) {
	if cfg.Registry == nil {
		cfg.Registry = telemetry.Default
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 256
	}
	e := &Engine{
		store:    store,
		ringCap:  cfg.RingSize,
		cfg:      cfg,
		gFiring:  cfg.Registry.Gauge("health.alerts.firing"),
		gPerRule: make(map[string]*telemetry.Gauge, len(cfg.Rules)),
		cEvals:   cfg.Registry.Counter("health.alerts.evaluations"),
		cFired:   cfg.Registry.Counter("health.alerts.fired"),
		cResolve: cfg.Registry.Counter("health.alerts.resolved"),
	}
	for _, r := range cfg.Rules {
		r = r.withDefaults()
		if err := r.validate(); err != nil {
			return nil, err
		}
		e.rules = append(e.rules, &ruleState{rule: r})
		e.gPerRule[r.Name] = cfg.Registry.Gauge("health.alert.firing." + r.Name)
	}
	if cfg.LogPath != "" {
		f, err := os.OpenFile(cfg.LogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		e.log = f
	}
	if p, ok := store.Latest(); ok {
		e.lastNs = p.TsNs
	}
	return e, nil
}

func (e *Engine) logf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.cfg.Logf(format, args...)
	}
}

// read extracts the rule's value at cur, a delta rule's across the
// points since the previous evaluation's. ok is false when the metric is
// unavailable — which the state machine treats as clean data for the
// breach streak. Caller holds e.mu.
func (e *Engine) read(r Rule, cur tsdb.Point) (v float64, ok bool) {
	switch {
	case r.Quantile > 0:
		h, found := cur.Histograms[r.Metric]
		if r.Delta {
			h, found = e.store.HistogramDelta(r.Metric, e.lastNs, cur.TsNs)
		}
		if !found {
			return 0, false
		}
		ns, qok := telemetry.Quantile(h, r.Quantile)
		return float64(ns), qok
	case r.Delta:
		return e.store.Delta(r.Metric, e.lastNs, cur.TsNs)
	}
	if c, found := cur.Counters[r.Metric]; found {
		return float64(c), true
	}
	v, ok = cur.Gauges[r.Metric]
	return v, ok
}

// Evaluate runs every rule against the store's newest point and advances
// the alert state machine.
func (e *Engine) Evaluate() {
	now := e.cfg.Now().UnixNano()
	// An empty store's zero point carries no series: every rule reads as
	// missing data.
	cur, _ := e.store.Latest()

	e.mu.Lock()
	e.evaluations++
	e.cEvals.Inc()
	var firedNow []Alert
	firing := 0
	for _, rs := range e.rules {
		v, ok := e.read(rs.rule, cur)
		breach := ok && rs.rule.compare(v)
		if ok {
			rs.lastValue = v
		}
		switch {
		case breach && !rs.firing:
			rs.breachStreak++
			rs.okStreak = 0
			if rs.breachStreak >= rs.rule.For {
				rs.firing = true
				rs.firedAt = now
				rs.count = 1
				e.fired++
				e.cFired.Inc()
				a := rs.alert()
				firedNow = append(firedNow, a)
				e.record(Transition{
					UnixNs: now, Rule: rs.rule.Name, State: "firing",
					Severity: rs.rule.Severity, Value: v, Threshold: rs.rule.Value,
					Op: rs.rule.Op, Rollback: rs.rule.Rollback, Description: rs.rule.Description,
				})
				e.logf("health: alert firing: %s (%s %v %s %v)", rs.rule.Name, rs.rule.Metric, v, rs.rule.Op, rs.rule.Value)
			}
		case breach && rs.firing:
			// Dedup: the alert stays firing; just account the repeat.
			rs.count++
			rs.okStreak = 0
		case !breach && rs.firing:
			if ok {
				rs.okStreak++
				if rs.okStreak >= rs.rule.ClearFor {
					rs.firing = false
					rs.breachStreak, rs.okStreak = 0, 0
					e.resolved++
					e.cResolve.Inc()
					e.record(Transition{
						UnixNs: now, Rule: rs.rule.Name, State: "resolved",
						Severity: rs.rule.Severity, Value: v, Threshold: rs.rule.Value,
						Op: rs.rule.Op, Rollback: rs.rule.Rollback, Description: rs.rule.Description,
					})
					e.logf("health: alert resolved: %s", rs.rule.Name)
				}
			}
			// Missing data neither confirms nor clears a firing alert.
		default: // !breach && !firing
			rs.breachStreak = 0
		}
		if rs.firing {
			firing++
			e.gPerRule[rs.rule.Name].Set(1)
		} else {
			e.gPerRule[rs.rule.Name].Set(0)
		}
	}
	e.gFiring.SetInt(int64(firing))
	e.lastNs = cur.TsNs
	e.mu.Unlock()

	// Firing callbacks run outside the engine lock: the daemon's handler
	// takes the server state mutex to arm the watchdog, and holding both
	// here would order the locks against the healthz reader.
	if e.cfg.OnFiring != nil {
		for _, a := range firedNow {
			e.cfg.OnFiring(a)
		}
	}
}

func (rs *ruleState) alert() Alert {
	return Alert{
		Rule:        rs.rule.Name,
		Severity:    rs.rule.Severity,
		Value:       rs.lastValue,
		Threshold:   rs.rule.Value,
		Op:          rs.rule.Op,
		FiredUnixNs: rs.firedAt,
		Count:       rs.count,
		Rollback:    rs.rule.Rollback,
		Description: rs.rule.Description,
	}
}

// record appends a transition to the bounded ring and the JSONL log.
// Caller holds e.mu.
func (e *Engine) record(t Transition) {
	if len(e.ring) >= e.ringCap {
		copy(e.ring, e.ring[1:])
		e.ring = e.ring[:len(e.ring)-1]
	}
	e.ring = append(e.ring, t)
	if e.log != nil {
		b, err := json.Marshal(t)
		if err == nil {
			b = append(b, '\n')
			_, err = e.log.Write(b)
		}
		if err != nil {
			e.logFailures++
			e.logf("health: alert log write failed: %v", err)
		}
	}
}

// Active returns the currently firing alerts, sorted by rule name.
func (e *Engine) Active() []Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []Alert
	for _, rs := range e.rules {
		if rs.firing {
			out = append(out, rs.alert())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rule < out[j].Rule })
	return out
}

// History returns up to n most recent transitions, newest first
// (n <= 0 returns everything retained).
func (e *Engine) History(n int) []Transition {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n <= 0 || n > len(e.ring) {
		n = len(e.ring)
	}
	out := make([]Transition, n)
	for i := 0; i < n; i++ {
		out[i] = e.ring[len(e.ring)-1-i]
	}
	return out
}

// EngineStats summarizes the engine for /debug/alerts.
type EngineStats struct {
	Rules       int   `json:"rules"`
	Evaluations int64 `json:"evaluations"`
	Fired       int64 `json:"fired"`
	Resolved    int64 `json:"resolved"`
	Firing      int   `json:"firing"`
	LogFailures int64 `json:"logFailures,omitempty"`
}

// Stats returns lifecycle totals.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := EngineStats{
		Rules:       len(e.rules),
		Evaluations: e.evaluations,
		Fired:       e.fired,
		Resolved:    e.resolved,
		LogFailures: e.logFailures,
	}
	for _, rs := range e.rules {
		if rs.firing {
			s.Firing++
		}
	}
	return s
}

// Rules returns the engine's rule set (defaults applied).
func (e *Engine) Rules() []Rule {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Rule, len(e.rules))
	for i, rs := range e.rules {
		out[i] = rs.rule
	}
	return out
}

// Close flushes and closes the JSONL alert log. The engine stays readable.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.log == nil {
		return nil
	}
	err := e.log.Close()
	e.log = nil
	return err
}
