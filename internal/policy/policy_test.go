package policy

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"jarvis/internal/device"
	"jarvis/internal/env"
)

func testEnv(t *testing.T) *env.Environment {
	t.Helper()
	light := device.NewBuilder("light", device.TypeLight).
		States("off", "on").
		Actions("power_off", "power_on").
		Transition("on", "power_off", "off").
		Transition("off", "power_on", "on").
		MustBuild()
	lock := device.NewBuilder("lock", device.TypeLock).
		States("locked", "unlocked").
		Actions("lock", "unlock").
		Transition("unlocked", "lock", "locked").
		Transition("locked", "unlock", "unlocked").
		MustBuild()
	b := env.NewBuilder()
	b.AddDevice(light, env.Placement{})
	b.AddDevice(lock, env.Placement{})
	b.AddApp("manual", 0, 1)
	b.AddUser("u", 0)
	return b.MustBuild()
}

// episode builds a short episode from a sequence of composite actions.
func episode(t *testing.T, e *env.Environment, s0 env.State, acts ...env.Action) env.Episode {
	t.Helper()
	rec := env.NewRecorder(e, s0, time.Date(2020, 1, 6, 0, 0, 0, 0, time.UTC),
		time.Duration(len(acts))*time.Minute, time.Minute)
	for _, a := range acts {
		if err := rec.Step(a); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	return rec.Episode()
}

func TestTableBasics(t *testing.T) {
	tab := NewTable(false)
	if tab.Safe(1, 2) {
		t.Error("empty table should deny")
	}
	tab.Allow(1, 2)
	tab.Allow(1, 3)
	if !tab.Safe(1, 2) || !tab.Safe(1, 3) {
		t.Error("whitelisted transitions should be safe")
	}
	if tab.Safe(2, 1) {
		t.Error("reverse transition should be denied")
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d, want 2", tab.Len())
	}
	succ := tab.SafeSuccessors(1)
	if len(succ) != 2 || succ[0] != 2 || succ[1] != 3 {
		t.Errorf("SafeSuccessors = %v", succ)
	}
	if tab.SafeSuccessors(9) != nil && len(tab.SafeSuccessors(9)) != 0 {
		t.Error("unknown state should have no successors")
	}
}

func TestTableAllowIdle(t *testing.T) {
	strict := NewTable(false)
	lapse := NewTable(true)
	if strict.Safe(5, 5) {
		t.Error("strict table: idle not safe")
	}
	if !lapse.Safe(5, 5) {
		t.Error("idle-allowing table: idle safe")
	}
	if !lapse.AllowIdle() || strict.AllowIdle() {
		t.Error("AllowIdle accessor wrong")
	}
}

func TestTableSaveLoad(t *testing.T) {
	tab := NewTable(true)
	tab.Allow(1, 2)
	tab.Allow(7, 9)
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := LoadTable(&buf)
	if err != nil {
		t.Fatalf("LoadTable: %v", err)
	}
	if !got.Safe(1, 2) || !got.Safe(7, 9) || got.Safe(2, 1) {
		t.Error("round trip lost transitions")
	}
	if !got.AllowIdle() {
		t.Error("round trip lost allowIdle")
	}
	if _, err := LoadTable(strings.NewReader("junk")); err == nil {
		t.Error("junk should fail to load")
	}
	if _, err := LoadTable(strings.NewReader(`{"safe":{"abc":[1]}}`)); err == nil {
		t.Error("non-numeric key should fail to load")
	}
}

// TestTableSaveLoadKeepsManual: a saved table carries its manual
// allowances, so the loaded one sanctions the same device actions, and a
// negative device or action does not load.
func TestTableSaveLoadKeepsManual(t *testing.T) {
	tab := NewTable(true)
	tab.Allow(1, 2)
	tab.AllowManual(4, 2)
	tab.AllowManual(0, 1)
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if !strings.Contains(buf.String(), `"manual":[[0,1],[4,2]]`) {
		t.Errorf("saved table lists manual allowances unsorted or not at all: %s", buf.String())
	}
	got, err := LoadTable(&buf)
	if err != nil {
		t.Fatalf("LoadTable: %v", err)
	}
	for _, c := range []struct {
		dev  int
		act  device.ActionID
		want bool
	}{{4, 2, true}, {0, 1, true}, {4, 1, false}, {1, 2, false}} {
		a := env.NoOp(5)
		a[c.dev] = c.act
		if got.ManualAllowed(a) != c.want {
			t.Errorf("loaded ManualAllowed(device %d, action %d) = %v, want %v", c.dev, c.act, !c.want, c.want)
		}
	}
	if !got.Safe(1, 2) {
		t.Error("round trip lost the learned transition")
	}
	want, _ := tab.Fingerprint()
	if fp, _ := got.Fingerprint(); fp != want {
		t.Errorf("loaded fingerprint %s, saved %s", fp, want)
	}
	for _, bad := range []string{`{"safe":{},"manual":[[-1,0]]}`, `{"safe":{},"manual":[[0,-1]]}`} {
		if _, err := LoadTable(strings.NewReader(bad)); err == nil {
			t.Errorf("LoadTable(%s) accepted a negative allowance", bad)
		}
	}
}

func TestLearnerWhitelistsObservedTransitions(t *testing.T) {
	e := testEnv(t)
	l := NewLearner(e, Config{ThreshEnv: 0, AllowIdle: true})

	on := env.Action{1, device.NoAction}
	off := env.Action{0, device.NoAction}
	idle := env.NoOp(2)
	ep := episode(t, e, env.State{0, 0}, on, idle, off)
	l.Observe(ep)

	total, filtered := l.Observed()
	if total != 3 || filtered != 0 {
		t.Errorf("Observed = %d,%d", total, filtered)
	}

	tab := l.Table()
	s00 := e.StateKey(env.State{0, 0})
	s10 := e.StateKey(env.State{1, 0})
	if !tab.Safe(s00, s10) {
		t.Error("observed on-transition should be safe")
	}
	if !tab.Safe(s10, s00) {
		t.Error("observed off-transition should be safe")
	}
	// never observed: unlocking the lock
	s01 := e.StateKey(env.State{0, 1})
	if tab.Safe(s00, s01) {
		t.Error("unobserved transition must be unsafe")
	}
}

func TestLearnerThreshold(t *testing.T) {
	e := testEnv(t)
	l := NewLearner(e, Config{ThreshEnv: 2})
	on := env.Action{1, device.NoAction}
	off := env.Action{0, device.NoAction}
	// The on-transition from {0,0} occurs 3 times (> 2), off from {1,0}
	// twice (== 2, not >), so only "on" is whitelisted.
	l.Observe(episode(t, e, env.State{0, 0}, on, off, on, off, on))
	tab := l.Table()
	s00 := e.StateKey(env.State{0, 0})
	s10 := e.StateKey(env.State{1, 0})
	if !tab.Safe(s00, s10) {
		t.Error("3x observed transition should pass Thresh=2")
	}
	if tab.Safe(s10, s00) {
		t.Error("2x observed transition must not pass Thresh=2")
	}
}

func TestLearnerFilter(t *testing.T) {
	e := testEnv(t)
	// Filter everything touching the lock as a benign anomaly.
	filter := FilterFunc(func(tr env.Transition) bool {
		return tr.Act[1] != device.NoAction
	})
	l := NewLearner(e, Config{Filter: filter})
	unlock := env.Action{device.NoAction, 1}
	on := env.Action{1, device.NoAction}
	l.Observe(episode(t, e, env.State{0, 0}, unlock, on))
	total, filtered := l.Observed()
	if total != 2 || filtered != 1 {
		t.Errorf("Observed = %d,%d want 2,1", total, filtered)
	}
	tab := l.Table()
	if tab.Safe(e.StateKey(env.State{0, 0}), e.StateKey(env.State{0, 1})) {
		t.Error("filtered transition must not be whitelisted")
	}
	if !tab.Safe(e.StateKey(env.State{0, 1}), e.StateKey(env.State{1, 1})) {
		t.Error("unfiltered transition should be whitelisted")
	}
}

func TestObserveAll(t *testing.T) {
	e := testEnv(t)
	l := NewLearner(e, Config{})
	on := env.Action{1, device.NoAction}
	eps := []env.Episode{
		episode(t, e, env.State{0, 0}, on),
		episode(t, e, env.State{1, 0}, env.Action{0, device.NoAction}),
	}
	l.ObserveAll(eps)
	if total, _ := l.Observed(); total != 2 {
		t.Errorf("total = %d, want 2", total)
	}
}

func TestFlagEpisodes(t *testing.T) {
	e := testEnv(t)
	l := NewLearner(e, Config{AllowIdle: true})
	on := env.Action{1, device.NoAction}
	off := env.Action{0, device.NoAction}
	l.Observe(episode(t, e, env.State{0, 0}, on, off))
	tab := l.Table()

	// A malicious episode: unlock the lock (never seen in learning).
	mal := episode(t, e, env.State{0, 0}, env.Action{device.NoAction, 1}, env.NoOp(2))
	violations := FlagEpisodes(e, tab, []env.Episode{mal})
	if len(violations) != 1 {
		t.Fatalf("violations = %d, want 1", len(violations))
	}
	v := violations[0]
	if v.Episode != 0 || v.Instance != 0 {
		t.Errorf("violation location = %d/%d", v.Episode, v.Instance)
	}
	if !strings.Contains(v.String(), "unsafe") {
		t.Errorf("String = %q", v.String())
	}

	// A benign episode replaying learned behavior: no violations.
	ben := episode(t, e, env.State{0, 0}, on, env.NoOp(2), off)
	if got := FlagEpisodes(e, tab, []env.Episode{ben}); len(got) != 0 {
		t.Errorf("benign episode flagged: %v", got)
	}
}

func TestFlagEpisodesStrictIdle(t *testing.T) {
	e := testEnv(t)
	tab := NewTable(false) // nothing whitelisted, idle not allowed
	ep := episode(t, e, env.State{0, 0}, env.NoOp(2))
	if got := FlagEpisodes(e, tab, []env.Episode{ep}); len(got) != 1 {
		t.Errorf("strict table should flag idle: %v", got)
	}
}

func TestActionKeyRoundTrip(t *testing.T) {
	e := testEnv(t)
	acts := []env.Action{
		env.NoOp(2),
		{0, device.NoAction},
		{device.NoAction, 1},
		{1, 0},
	}
	seen := make(map[uint64]bool)
	for _, a := range acts {
		k := e.ActionKey(a)
		if seen[k] {
			t.Fatalf("duplicate action key %d", k)
		}
		seen[k] = true
		got := e.DecodeAction(k)
		for i := range a {
			if got[i] != a[i] {
				t.Errorf("DecodeAction(%d) = %v, want %v", k, got, a)
			}
		}
	}
}
