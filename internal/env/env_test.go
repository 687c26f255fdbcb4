package env

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"jarvis/internal/device"
)

// testEnv builds a 3-device environment: a lock, a light, and a sensor,
// with one user, the manual pseudo-app, and one automation app.
func testEnv(t *testing.T) *Environment {
	t.Helper()
	lock := device.NewBuilder("lock", device.TypeLock).
		States("locked", "unlocked").
		Actions("lock", "unlock").
		Transition("unlocked", "lock", "locked").
		Transition("locked", "unlock", "unlocked").
		MustBuild()
	light := device.NewBuilder("light", device.TypeLight).
		States("off", "on").
		Actions("power_off", "power_on").
		Transition("on", "power_off", "off").
		Transition("off", "power_on", "on").
		PowerW("on", 60).
		MustBuild()
	sensor := device.NewBuilder("sensor", device.TypeTempSensor).
		States("sensing", "off", "alarm").
		Actions("power_off", "power_on").
		TransitionAll("power_off", "off").
		Transition("off", "power_on", "sensing").
		MustBuild()

	b := NewBuilder()
	b.AddDevice(lock, Placement{Location: "home", Group: "entrance"})
	b.AddDevice(light, Placement{Location: "home", Group: "living"})
	b.AddDevice(sensor, Placement{Location: "home", Group: "living"})
	manual := b.AddApp("manual", 0, 1, 2)
	auto := b.AddApp("auto-light", 1)
	b.AddUser("alice", manual, auto)
	b.AddUser("bob") // not authorized for anything
	return b.MustBuild()
}

func TestBuilderAndAccessors(t *testing.T) {
	e := testEnv(t)
	if e.K() != 3 {
		t.Fatalf("K = %d, want 3", e.K())
	}
	if i, ok := e.DeviceIndex("light"); !ok || i != 1 {
		t.Errorf("DeviceIndex(light) = %d,%v", i, ok)
	}
	if _, ok := e.DeviceIndex("ghost"); ok {
		t.Error("DeviceIndex(ghost) should not exist")
	}
	if got := e.Placement(1).Group; got != "living" {
		t.Errorf("Placement(1).Group = %q", got)
	}
	if got := e.Placement(-1); got != (Placement{}) {
		t.Errorf("Placement(-1) = %+v, want zero", got)
	}
	if n := e.NumStateCombinations(); n != 2*2*3 {
		t.Errorf("NumStateCombinations = %d, want 12", n)
	}
	if u, ok := e.User(0); !ok || u.Name != "alice" {
		t.Errorf("User(0) = %+v,%v", u, ok)
	}
	if _, ok := e.User(99); ok {
		t.Error("User(99) should not exist")
	}
	if a, ok := e.App(1); !ok || a.Name != "auto-light" {
		t.Errorf("App(1) = %+v,%v", a, ok)
	}
}

func TestStateKeyRoundTrip(t *testing.T) {
	e := testEnv(t)
	f := func(a, b, c uint8) bool {
		s := State{
			device.StateID(int(a) % 2),
			device.StateID(int(b) % 2),
			device.StateID(int(c) % 3),
		}
		return e.DecodeState(e.StateKey(s)).Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStateKeyUnique(t *testing.T) {
	e := testEnv(t)
	seen := make(map[uint64]bool)
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			for c := 0; c < 3; c++ {
				k := e.StateKey(State{device.StateID(a), device.StateID(b), device.StateID(c)})
				if seen[k] {
					t.Fatalf("duplicate key %d", k)
				}
				seen[k] = true
			}
		}
	}
	if len(seen) != 12 {
		t.Fatalf("got %d distinct keys, want 12", len(seen))
	}
}

func TestTransition(t *testing.T) {
	e := testEnv(t)
	s := State{1, 0, 0} // unlocked, light off, sensing
	a := Action{0, 1, device.NoAction}
	next, err := e.Transition(s, a)
	if err != nil {
		t.Fatalf("Transition: %v", err)
	}
	want := State{0, 1, 0}
	if !next.Equal(want) {
		t.Errorf("next = %v, want %v", next, want)
	}
	// invalid action (lock while locked)
	if _, err := e.Transition(State{0, 0, 0}, Action{0, device.NoAction, device.NoAction}); err == nil {
		t.Error("invalid action should error")
	}
	// arity mismatch
	if _, err := e.Transition(State{0}, a); err == nil {
		t.Error("arity mismatch should error")
	}
}

// TestTransitionOKMatchesTransitionInto: the boolean form agrees with the
// error form on valid, invalid and mis-sized transitions, and the error
// texts name the first rejecting device.
func TestTransitionOKMatchesTransitionInto(t *testing.T) {
	e := testEnv(t)
	dst := make(State, 3)
	for _, c := range []struct {
		s    State
		a    Action
		want string
	}{
		{State{1, 0, 0}, Action{0, 1, device.NoAction}, ""},
		{State{0, 0, 0}, Action{0, 1, device.NoAction}, "env: device lock: action lock invalid in state locked"},
		{State{1, 1, 0}, Action{0, 1, device.NoAction}, "env: device light: action power_on invalid in state on"},
		{State{0}, Action{0, 1, device.NoAction}, "env: transition arity mismatch: 3 devices, state 1, action 3, dst 3"},
	} {
		err := e.TransitionInto(dst, c.s, c.a)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("TransitionInto(%v, %v) = %q, want %q", c.s, c.a, got, c.want)
		}
		if ok := e.TransitionOK(dst, c.s, c.a); ok != (c.want == "") {
			t.Errorf("TransitionOK(%v, %v) = %v, want %v", c.s, c.a, ok, c.want == "")
		}
	}
}

func TestApplyConstraints(t *testing.T) {
	e := testEnv(t)
	s := State{1, 0, 0}

	t.Run("authorized manual request succeeds", func(t *testing.T) {
		act, next, den := e.Apply(s, []Request{{User: 0, App: ManualAppID, Device: 0, Action: 0}})
		if len(den) != 0 {
			t.Fatalf("denials: %v", den)
		}
		if act[0] != 0 || !next.Equal(State{0, 0, 0}) {
			t.Errorf("act=%v next=%v", act, next)
		}
	})

	t.Run("unauthorized user denied", func(t *testing.T) {
		_, next, den := e.Apply(s, []Request{{User: 1, App: ManualAppID, Device: 0, Action: 0}})
		if len(den) != 1 || !strings.Contains(den[0].Reason, "not authorized") {
			t.Fatalf("denials = %v", den)
		}
		if !next.Equal(s) {
			t.Errorf("state should be unchanged, got %v", next)
		}
	})

	t.Run("app not subscribed to device denied", func(t *testing.T) {
		_, _, den := e.Apply(s, []Request{{User: 0, App: 1, Device: 0, Action: 0}})
		if len(den) != 1 || !strings.Contains(den[0].Reason, "not subscribed") {
			t.Fatalf("denials = %v", den)
		}
	})

	t.Run("fcfs conflict resolution", func(t *testing.T) {
		act, next, den := e.Apply(s, []Request{
			{User: 0, App: 1, Device: 1, Action: 1},           // auto app turns light on
			{User: 0, App: ManualAppID, Device: 1, Action: 1}, // manual loses FCFS
		})
		if len(den) != 1 || !strings.Contains(den[0].Reason, "claimed") {
			t.Fatalf("denials = %v", den)
		}
		if act[1] != 1 || next[1] != 1 {
			t.Errorf("light should be on: act=%v next=%v", act, next)
		}
	})

	t.Run("unknown identifiers denied", func(t *testing.T) {
		_, _, den := e.Apply(s, []Request{
			{User: 9, App: ManualAppID, Device: 0, Action: 0},
			{User: 0, App: 9, Device: 0, Action: 0},
			{User: 0, App: ManualAppID, Device: 9, Action: 0},
		})
		if len(den) != 3 {
			t.Fatalf("denials = %v, want 3", den)
		}
	})

	t.Run("invalid device action denied", func(t *testing.T) {
		_, _, den := e.Apply(State{0, 0, 0}, []Request{{User: 0, App: ManualAppID, Device: 0, Action: 0}})
		if len(den) != 1 || !strings.Contains(den[0].Reason, "invalid") {
			t.Fatalf("denials = %v", den)
		}
		if den[0].String() == "" {
			t.Error("Denial.String should be non-empty")
		}
	})
}

func TestFormatters(t *testing.T) {
	e := testEnv(t)
	s := State{0, 1, 2}
	if got := e.FormatState(s); got != "(locked, on, alarm)" {
		t.Errorf("FormatState = %q", got)
	}
	a := Action{device.NoAction, 0, device.NoAction}
	if got := e.FormatAction(a); got != "(O, power_off, O)" {
		t.Errorf("FormatAction = %q", got)
	}
}

func TestNoOpAndClones(t *testing.T) {
	a := NoOp(3)
	if !a.IsNoOp() {
		t.Error("NoOp should be a no-op")
	}
	a2 := a.Clone()
	a2[0] = 1
	if a.IsNoOp() == false {
		t.Error("Clone must not alias")
	}
	s := State{1, 2}
	s2 := s.Clone()
	s2[0] = 9
	if s[0] == 9 {
		t.Error("State clone must not alias")
	}
	if s.Equal(State{1}) {
		t.Error("Equal should compare lengths")
	}
}

func TestBuilderErrors(t *testing.T) {
	d := device.NewBuilder("d", "t").States("a").MustBuild()

	if _, err := NewBuilder().Build(); err == nil {
		t.Error("empty env should fail")
	}

	b := NewBuilder()
	b.AddDevice(d, Placement{})
	b.AddDevice(d, Placement{}) // duplicate label
	if _, err := b.Build(); err == nil {
		t.Error("duplicate labels should fail")
	}

	b = NewBuilder()
	b.AddDevice(d, Placement{})
	b.AddApp("bad", 7) // unknown device index
	if _, err := b.Build(); err == nil {
		t.Error("bad app subscription should fail")
	}

	b = NewBuilder()
	b.AddDevice(d, Placement{})
	b.AuthorizeUser(4, 0)
	if _, err := b.Build(); err == nil {
		t.Error("authorizing unknown user should fail")
	}
}

func TestAuthorizeUser(t *testing.T) {
	d := device.NewBuilder("d", "t").
		States("a", "b").Actions("go").
		Transition("a", "go", "b").MustBuild()
	b := NewBuilder()
	b.AddDevice(d, Placement{})
	app := b.AddApp("app", 0)
	u := b.AddUser("u")
	b.AuthorizeUser(u, app)
	e := b.MustBuild()
	_, _, den := e.Apply(State{0}, []Request{{User: u, App: app, Device: 0, Action: 0}})
	if len(den) != 0 {
		t.Fatalf("denials = %v", den)
	}
}

func TestNumInstances(t *testing.T) {
	tests := []struct {
		T, I time.Duration
		want int
	}{
		{time.Hour, time.Minute, 60},
		{24 * time.Hour, time.Minute, 1440},
		{90 * time.Second, time.Minute, 2}, // ceil
		{0, time.Minute, 0},
		{time.Minute, 0, 0},
	}
	for _, tt := range tests {
		if got := NumInstances(tt.T, tt.I); got != tt.want {
			t.Errorf("NumInstances(%v,%v) = %d, want %d", tt.T, tt.I, got, tt.want)
		}
	}
}

func TestRecorderAndEpisode(t *testing.T) {
	e := testEnv(t)
	start := time.Date(2020, 1, 6, 0, 0, 0, 0, time.UTC)
	r := NewRecorder(e, State{1, 0, 0}, start, 3*time.Minute, time.Minute)

	if r.Done() {
		t.Fatal("fresh recorder should not be done")
	}
	if err := r.Step(Action{0, device.NoAction, device.NoAction}); err != nil {
		t.Fatalf("Step: %v", err)
	}
	den, err := r.StepRequests([]Request{{User: 0, App: 1, Device: 1, Action: 1}})
	if err != nil || len(den) != 0 {
		t.Fatalf("StepRequests: %v %v", den, err)
	}
	if err := r.Step(NoOp(3)); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if !r.Done() {
		t.Error("recorder should be done after n steps")
	}
	if err := r.Step(NoOp(3)); err == nil {
		t.Error("stepping a complete episode should error")
	}
	if _, err := r.StepRequests(nil); err == nil {
		t.Error("StepRequests on a complete episode should error")
	}

	ep := r.Episode()
	if ep.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ep.Len())
	}
	if err := ep.Validate(e); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := ep.At(2); !got.Equal(start.Add(2 * time.Minute)) {
		t.Errorf("At(2) = %v", got)
	}
	trs := ep.Transitions()
	if len(trs) != 3 {
		t.Fatalf("Transitions = %d", len(trs))
	}
	if trs[1].Instance != 1 || !trs[1].To.Equal(State{0, 1, 0}) {
		t.Errorf("transition[1] = %+v", trs[1])
	}

	// invalid step is rejected and does not corrupt the recorder
	r2 := NewRecorder(e, State{0, 0, 0}, start, time.Minute, time.Minute)
	if err := r2.Step(Action{0, device.NoAction, device.NoAction}); err == nil {
		t.Error("invalid step should error")
	}
	if r2.Instance() != 0 {
		t.Error("failed step must not advance the episode")
	}
}

func TestEpisodeValidateErrors(t *testing.T) {
	e := testEnv(t)
	ok := Episode{
		T: 2 * time.Minute, I: time.Minute,
		States:  []State{{1, 0, 0}, {0, 0, 0}},
		Actions: []Action{{0, device.NoAction, device.NoAction}},
	}
	if err := ok.Validate(e); err != nil {
		t.Fatalf("valid episode rejected: %v", err)
	}

	bad := ok
	bad.States = []State{{1, 0, 0}}
	if err := bad.Validate(e); err == nil {
		t.Error("length mismatch should fail")
	}

	bad = ok
	bad.States = []State{{1, 0, 0}, {1, 1, 1}} // disagrees with Δ
	if err := bad.Validate(e); err == nil {
		t.Error("Δ disagreement should fail")
	}

	bad = ok
	bad.States = []State{{9, 0, 0}, {0, 0, 0}}
	if err := bad.Validate(e); err == nil {
		t.Error("invalid state should fail")
	}

	bad = ok
	bad.Actions = []Action{{1, device.NoAction, device.NoAction}} // unlock while unlocked: invalid
	if err := bad.Validate(e); err == nil {
		t.Error("invalid action should fail")
	}
}

// Property: Apply never yields a state that disagrees with Δ on the
// composite action it reports, and never changes a device that was denied.
func TestApplyConsistencyProperty(t *testing.T) {
	e := testEnv(t)
	f := func(u, ap, dev, act uint8) bool {
		s := State{1, 0, 0}
		req := Request{
			User:   int(u % 3),
			App:    int(ap % 3),
			Device: int(dev % 4),
			Action: device.ActionID(int(act%3)) - 1,
		}
		a, next, _ := e.Apply(s, []Request{req})
		want, err := e.Transition(s, a)
		return err == nil && next.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
