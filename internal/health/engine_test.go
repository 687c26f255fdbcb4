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
)

// The alert lifecycle — firing after For breaches, dedup while firing,
// resolving after ClearFor clean evaluations — is the contract the
// daemon's rollback arming and the CI smoke test depend on, so each edge
// gets its own test against a synthetic registry.

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

func newTestEngine(t *testing.T, rules []Rule, logPath string) (*Engine, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.New()
	e, err := NewEngine(EngineConfig{
		Rules:    rules,
		LogPath:  logPath,
		Registry: reg,
		Now:      testClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, reg
}

func gaugeSnap(reg *telemetry.Registry, name string, v float64) telemetry.Snapshot {
	reg.Gauge(name).Set(v)
	return reg.Snapshot()
}

func TestAlertFiringResolvedLifecycle(t *testing.T) {
	rule := Rule{Name: "hot", Metric: "temp", Op: ">", Value: 100, For: 2, ClearFor: 2}
	e, reg := newTestEngine(t, []Rule{rule}, "")

	e.Evaluate(gaugeSnap(reg, "temp", 150))
	if len(e.Active()) != 0 {
		t.Fatal("fired after 1 breach, want For=2")
	}
	e.Evaluate(gaugeSnap(reg, "temp", 160))
	active := e.Active()
	if len(active) != 1 || active[0].Rule != "hot" {
		t.Fatalf("active after 2 breaches = %+v, want [hot]", active)
	}
	if active[0].Value != 160 || active[0].Threshold != 100 {
		t.Fatalf("alert value/threshold = %v/%v", active[0].Value, active[0].Threshold)
	}

	e.Evaluate(gaugeSnap(reg, "temp", 50))
	if len(e.Active()) != 1 {
		t.Fatal("resolved after 1 clean eval, want ClearFor=2")
	}
	e.Evaluate(gaugeSnap(reg, "temp", 50))
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
	if v := reg.Snapshot().Gauges["health.alerts.firing"]; v != 0 {
		t.Fatalf("firing gauge = %v after resolve", v)
	}
}

func TestAlertDedupWhileFiring(t *testing.T) {
	rule := Rule{Name: "hot", Metric: "temp", Op: ">", Value: 100, For: 1, ClearFor: 1}
	var firings int
	reg := telemetry.New()
	e, err := NewEngine(EngineConfig{
		Rules:    []Rule{rule},
		Registry: reg,
		Now:      testClock(),
		OnFiring: func(Alert) { firings++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	for i := 0; i < 5; i++ {
		e.Evaluate(gaugeSnap(reg, "temp", 200))
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
	e, reg := newTestEngine(t, []Rule{rule}, "")
	for i := 0; i < 20; i++ {
		v := 50.0
		if i%2 == 0 {
			v = 150
		}
		e.Evaluate(gaugeSnap(reg, "temp", v))
	}
	if st := e.Stats(); st.Fired != 0 || st.Resolved != 0 {
		t.Fatalf("oscillation produced transitions: %+v", st)
	}

	// The same oscillation against For=1/ClearFor=4 fires once and stays
	// firing: damping holds the alert up through the dips.
	rule2 := Rule{Name: "sticky", Metric: "temp", Op: ">", Value: 100, For: 1, ClearFor: 4}
	e2, reg2 := newTestEngine(t, []Rule{rule2}, "")
	for i := 0; i < 20; i++ {
		v := 50.0
		if i%2 == 0 {
			v = 150
		}
		e2.Evaluate(gaugeSnap(reg2, "temp", v))
	}
	if st := e2.Stats(); st.Fired != 1 || st.Resolved != 0 || st.Firing != 1 {
		t.Fatalf("sticky rule stats = %+v, want fired=1 still firing", st)
	}
}

func TestDeltaRuleNeedsPreviousSnapshot(t *testing.T) {
	rule := Rule{Name: "new-errs", Metric: "errors", Delta: true, Op: ">", Value: 0, For: 1, ClearFor: 1}
	e, reg := newTestEngine(t, []Rule{rule}, "")
	c := reg.Counter("errors")
	c.Add(100)

	// First snapshot: cumulative 100 but no previous snapshot — no breach.
	e.Evaluate(reg.Snapshot())
	if len(e.Active()) != 0 {
		t.Fatal("delta rule fired on the first snapshot")
	}
	// No movement: delta 0 — still no breach.
	e.Evaluate(reg.Snapshot())
	if len(e.Active()) != 0 {
		t.Fatal("delta rule fired without movement")
	}
	c.Add(1)
	e.Evaluate(reg.Snapshot())
	if len(e.Active()) != 1 {
		t.Fatal("delta rule missed a fresh increment")
	}
	// Movement stops: resolves.
	e.Evaluate(reg.Snapshot())
	if len(e.Active()) != 0 {
		t.Fatal("delta rule stayed firing after movement stopped")
	}
}

func TestHistogramQuantileRule(t *testing.T) {
	rule := Rule{Name: "slow", Metric: "lat", Quantile: 0.99, Op: ">", Value: 1_000_000, For: 1, ClearFor: 1}
	e, reg := newTestEngine(t, []Rule{rule}, "")
	h := reg.Histogram("lat")
	for i := 0; i < 100; i++ {
		h.ObserveNs(1000)
	}
	e.Evaluate(reg.Snapshot())
	if len(e.Active()) != 0 {
		t.Fatal("fast histogram breached the p99 rule")
	}
	for i := 0; i < 100; i++ {
		h.ObserveNs(50_000_000)
	}
	e.Evaluate(reg.Snapshot())
	if len(e.Active()) != 1 {
		t.Fatal("slow histogram did not breach the p99 rule")
	}
}

func TestMissingMetricResetsBreachStreak(t *testing.T) {
	rule := Rule{Name: "hot", Metric: "temp", Op: ">", Value: 100, For: 2, ClearFor: 1}
	e, reg := newTestEngine(t, []Rule{rule}, "")
	e.Evaluate(gaugeSnap(reg, "temp", 150))
	// A snapshot without the metric at all must reset the streak.
	e.Evaluate(telemetry.Snapshot{})
	e.Evaluate(gaugeSnap(reg, "temp", 150))
	if len(e.Active()) != 0 {
		t.Fatal("breach streak survived a missing-metric snapshot")
	}
}

func TestAlertJSONLLog(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "alerts.jsonl")
	rule := Rule{Name: "hot", Metric: "temp", Op: ">", Value: 100, For: 1, ClearFor: 1}
	e, reg := newTestEngine(t, []Rule{rule}, logPath)

	e.Evaluate(gaugeSnap(reg, "temp", 150))
	e.Evaluate(gaugeSnap(reg, "temp", 50))
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
	e, reg := newTestEngine(t, rules, "")
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
		reg.Gauge("temp").Set(v)
		reg.Counter("hits").Inc()
		e.Evaluate(reg.Snapshot())
	}
	close(stop)
	wg.Wait()
}

func TestHistoryRingBounded(t *testing.T) {
	rule := Rule{Name: "hot", Metric: "temp", Op: ">", Value: 100, For: 1, ClearFor: 1}
	reg := telemetry.New()
	e, err := NewEngine(EngineConfig{Rules: []Rule{rule}, RingSize: 4, Registry: reg, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 20; i++ {
		e.Evaluate(gaugeSnap(reg, "temp", 150))
		e.Evaluate(gaugeSnap(reg, "temp", 50))
	}
	if got := len(e.History(0)); got != 4 {
		t.Fatalf("ring holds %d transitions, want 4", got)
	}
}
