package health

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"jarvis/internal/telemetry"
	"jarvis/internal/tsdb"
)

// The alert lifecycle — firing after For breaches, dedup while firing,
// resolving after ClearFor clean evaluations — is the contract the
// daemon's rollback arming and the CI smoke test depend on, so each edge
// gets its own test against a synthetic registry and a memory-only
// metric history.

func testClock() func() time.Time {
	var mu sync.Mutex
	t := time.Unix(1700000000, 0)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(time.Second)
		return t
	}
}

// harness drives an engine the way the daemon's health tick does: append
// one point to the store, then evaluate.
type harness struct {
	*Engine
	t     *testing.T
	reg   *telemetry.Registry
	store *tsdb.DB
	ts    int64
}

// newHarness builds an engine over a memory-only store whose points the
// test stamps one second apart, after appending any baseline points.
func newHarness(t *testing.T, cfg EngineConfig, baseline ...tsdb.Point) *harness {
	t.Helper()
	h := &harness{t: t, reg: telemetry.New()}
	h.store, _ = tsdb.Open("", tsdb.Options{}) // a memory-only store cannot fail to open
	for _, p := range baseline {
		h.append(p)
	}
	cfg.Registry, cfg.Now = h.reg, testClock()
	e, err := NewEngine(h.store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	h.Engine = e
	return h
}

func newTestEngine(t *testing.T, rules []Rule, logPath string) *harness {
	t.Helper()
	return newHarness(t, EngineConfig{Rules: rules, LogPath: logPath})
}

// append stores p one second after the previous point.
func (h *harness) append(p tsdb.Point) {
	h.ts += int64(time.Second)
	p.TsNs = h.ts
	if err := h.store.Append(p); err != nil {
		h.t.Fatal(err)
	}
}

// point appends p and evaluates.
func (h *harness) point(p tsdb.Point) {
	h.append(p)
	h.Evaluate()
}

// tick appends the registry's snapshot and evaluates.
func (h *harness) tick() { h.point(tsdb.FromSnapshot(h.reg.Snapshot())) }

// gauge sets a gauge on the registry and ticks.
func (h *harness) gauge(name string, v float64) {
	h.reg.Gauge(name).Set(v)
	h.tick()
}

func TestAlertFiringResolvedLifecycle(t *testing.T) {
	rule := Rule{Name: "hot", Metric: "temp", Op: ">", Value: 100, For: 2, ClearFor: 2}
	e := newTestEngine(t, []Rule{rule}, "")

	e.gauge("temp", 150)
	if len(e.Active()) != 0 {
		t.Fatal("fired after 1 breach, want For=2")
	}
	e.gauge("temp", 160)
	active := e.Active()
	if len(active) != 1 || active[0].Rule != "hot" {
		t.Fatalf("active after 2 breaches = %+v, want [hot]", active)
	}
	if active[0].Value != 160 || active[0].Threshold != 100 {
		t.Fatalf("alert value/threshold = %v/%v", active[0].Value, active[0].Threshold)
	}

	e.gauge("temp", 50)
	if len(e.Active()) != 1 {
		t.Fatal("resolved after 1 clean eval, want ClearFor=2")
	}
	e.gauge("temp", 50)
	if len(e.Active()) != 0 {
		t.Fatal("still firing after ClearFor clean evals")
	}

	hist := e.History(0)
	if len(hist) != 2 || hist[0].State != "resolved" || hist[1].State != "firing" {
		t.Fatalf("history = %+v, want [resolved, firing] newest-first", hist)
	}
	st := e.Stats()
	if st.Fired != 1 || st.Resolved != 1 || st.Firing != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if v := e.reg.Snapshot().Gauges["health.alerts.firing"]; v != 0 {
		t.Fatalf("firing gauge = %v after resolve", v)
	}
}

func TestAlertDedupWhileFiring(t *testing.T) {
	rule := Rule{Name: "hot", Metric: "temp", Op: ">", Value: 100, For: 1, ClearFor: 1}
	var firings int
	e := newHarness(t, EngineConfig{
		Rules:    []Rule{rule},
		OnFiring: func(Alert) { firings++ },
	})

	for i := 0; i < 5; i++ {
		e.gauge("temp", 200)
	}
	if firings != 1 {
		t.Fatalf("OnFiring ran %d times for a sustained breach, want 1", firings)
	}
	active := e.Active()
	if len(active) != 1 || active[0].Count != 5 {
		t.Fatalf("active = %+v, want one alert with Count=5", active)
	}
	if got := len(e.History(0)); got != 1 {
		t.Fatalf("history has %d transitions, want 1 (dedup)", got)
	}
}

func TestFlapDampingUnderOscillation(t *testing.T) {
	// A metric oscillating every evaluation never sustains For=2 breaches
	// nor ClearFor=2 clean evals, so the alert must never transition.
	rule := Rule{Name: "flappy", Metric: "temp", Op: ">", Value: 100, For: 2, ClearFor: 2}
	e := newTestEngine(t, []Rule{rule}, "")
	for i := 0; i < 20; i++ {
		v := 50.0
		if i%2 == 0 {
			v = 150
		}
		e.gauge("temp", v)
	}
	if st := e.Stats(); st.Fired != 0 || st.Resolved != 0 {
		t.Fatalf("oscillation produced transitions: %+v", st)
	}

	// The same oscillation against For=1/ClearFor=4 fires once and stays
	// firing: damping holds the alert up through the dips.
	rule2 := Rule{Name: "sticky", Metric: "temp", Op: ">", Value: 100, For: 1, ClearFor: 4}
	e2 := newTestEngine(t, []Rule{rule2}, "")
	for i := 0; i < 20; i++ {
		v := 50.0
		if i%2 == 0 {
			v = 150
		}
		e2.gauge("temp", v)
	}
	if st := e2.Stats(); st.Fired != 1 || st.Resolved != 0 || st.Firing != 1 {
		t.Fatalf("sticky rule stats = %+v, want fired=1 still firing", st)
	}
}

func TestDeltaRuleNeedsPreviousSnapshot(t *testing.T) {
	rule := Rule{Name: "new-errs", Metric: "errors", Delta: true, Op: ">", Value: 0, For: 1, ClearFor: 1}
	e := newTestEngine(t, []Rule{rule}, "")
	c := e.reg.Counter("errors")
	c.Add(100)

	// First point: cumulative 100, but the store was empty when the engine
	// was built, so the window starts at this point — no breach.
	e.tick()
	if len(e.Active()) != 0 {
		t.Fatal("delta rule fired on the first point")
	}
	// No movement: delta 0 — still no breach.
	e.tick()
	if len(e.Active()) != 0 {
		t.Fatal("delta rule fired without movement")
	}
	c.Add(1)
	e.tick()
	if len(e.Active()) != 1 {
		t.Fatal("delta rule missed a fresh increment")
	}
	// Movement stops: resolves.
	e.tick()
	if len(e.Active()) != 0 {
		t.Fatal("delta rule stayed firing after movement stopped")
	}
}

// TestDeltaRuleCountsSinceConstruction: the daemon builds its engine
// right after appending the boot baseline point, so whatever is counted
// before the first health tick — degraded recommendations from a
// restored checkpoint, say — must fire a delta rule on the first
// evaluation, for counters and histogram quantiles alike.
func TestDeltaRuleCountsSinceConstruction(t *testing.T) {
	rules := []Rule{
		{Name: "new-degraded", Metric: "degraded", Delta: true, Op: ">", Value: 0, For: 1, ClearFor: 1},
		{Name: "slow", Metric: "lat", Quantile: 0.99, Delta: true, Op: ">", Value: 1_000_000, For: 1, ClearFor: 1},
	}
	reg := telemetry.New()
	degraded, lat := reg.Counter("degraded"), reg.Histogram("lat")
	older := tsdb.FromSnapshot(reg.Snapshot())
	degraded.Add(40) // counted before the baseline point; not new
	for i := 0; i < 100; i++ {
		lat.ObserveNs(1000)
	}
	e := newHarness(t, EngineConfig{Rules: rules}, older, tsdb.FromSnapshot(reg.Snapshot()))

	degraded.Inc()
	for i := 0; i < 100; i++ {
		lat.ObserveNs(50_000_000)
	}
	e.point(tsdb.FromSnapshot(reg.Snapshot()))
	active := e.Active()
	if len(active) != 2 || active[0].Rule != "new-degraded" || active[0].Value != 1 || active[1].Rule != "slow" {
		t.Fatalf("first evaluation fired %+v, want new-degraded (1 new) and slow", active)
	}
}

func TestHistogramQuantileRule(t *testing.T) {
	rule := Rule{Name: "slow", Metric: "lat", Quantile: 0.99, Op: ">", Value: 1_000_000, For: 1, ClearFor: 1}
	e := newTestEngine(t, []Rule{rule}, "")
	h := e.reg.Histogram("lat")
	for i := 0; i < 100; i++ {
		h.ObserveNs(1000)
	}
	e.tick()
	if len(e.Active()) != 0 {
		t.Fatal("fast histogram breached the p99 rule")
	}
	for i := 0; i < 100; i++ {
		h.ObserveNs(50_000_000)
	}
	e.tick()
	if len(e.Active()) != 1 {
		t.Fatal("slow histogram did not breach the p99 rule")
	}
}

func TestMissingMetricResetsBreachStreak(t *testing.T) {
	rule := Rule{Name: "hot", Metric: "temp", Op: ">", Value: 100, For: 2, ClearFor: 1}
	e := newTestEngine(t, []Rule{rule}, "")
	e.gauge("temp", 150)
	// A point without the metric at all must reset the streak.
	e.point(tsdb.Point{})
	e.gauge("temp", 150)
	if len(e.Active()) != 0 {
		t.Fatal("breach streak survived a missing-metric snapshot")
	}
}

func TestAlertJSONLLog(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "alerts.jsonl")
	rule := Rule{Name: "hot", Metric: "temp", Op: ">", Value: 100, For: 1, ClearFor: 1}
	e := newTestEngine(t, []Rule{rule}, logPath)

	e.gauge("temp", 150)
	e.gauge("temp", 50)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var states []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var tr Transition
		if err := json.Unmarshal(sc.Bytes(), &tr); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if tr.Rule != "hot" || tr.UnixNs == 0 {
			t.Fatalf("bad transition %+v", tr)
		}
		states = append(states, tr.State)
	}
	if len(states) != 2 || states[0] != "firing" || states[1] != "resolved" {
		t.Fatalf("log states = %v, want [firing resolved]", states)
	}
}

func TestConcurrentSnapshotDuringEvaluation(t *testing.T) {
	// Readers (healthz, /debug/alerts) race Evaluate in the daemon; under
	// -race this test is the proof the engine's locking is sound.
	rules := []Rule{
		{Name: "a", Metric: "temp", Op: ">", Value: 100, For: 1, ClearFor: 1},
		{Name: "b", Metric: "temp", Delta: true, Op: ">", Value: 0, For: 1, ClearFor: 1},
	}
	e := newTestEngine(t, rules, "")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = e.Active()
				_ = e.History(8)
				_ = e.Stats()
			}
		}()
	}
	for i := 0; i < 500; i++ {
		v := float64(i % 300)
		e.reg.Counter("hits").Inc()
		e.gauge("temp", v)
	}
	close(stop)
	wg.Wait()
}

func TestHistoryRingBounded(t *testing.T) {
	rule := Rule{Name: "hot", Metric: "temp", Op: ">", Value: 100, For: 1, ClearFor: 1}
	e := newHarness(t, EngineConfig{Rules: []Rule{rule}, RingSize: 4})
	for i := 0; i < 20; i++ {
		e.gauge("temp", 150)
		e.gauge("temp", 50)
	}
	if got := len(e.History(0)); got != 4 {
		t.Fatalf("ring holds %d transitions, want 4", got)
	}
}
