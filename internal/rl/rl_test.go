package rl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"jarvis/internal/device"
	"jarvis/internal/env"
	"jarvis/internal/policy"
	"jarvis/internal/reward"
)

// testEnv: a lamp (2 states, 2 actions) and a heater (2 states, 2 actions).
func testEnv(t testing.TB) *env.Environment {
	t.Helper()
	lamp := device.NewBuilder("lamp", device.TypeLight).
		States("off", "on").
		Actions("power_off", "power_on").
		Transition("on", "power_off", "off").
		Transition("off", "power_on", "on").
		PowerW("on", 60).
		MustBuild()
	heater := device.NewBuilder("heater", device.TypeThermostat).
		States("off", "on").
		Actions("power_off", "power_on").
		Transition("on", "power_off", "off").
		Transition("off", "power_on", "on").
		PowerW("on", 2000).
		MustBuild()
	b := env.NewBuilder()
	b.AddDevice(lamp, env.Placement{})
	b.AddDevice(heater, env.Placement{})
	b.AddApp("manual", 0, 1)
	b.AddUser("u", 0)
	return b.MustBuild()
}

// energySaving rewards low power draw of the next state.
func energySaving(e *env.Environment) reward.Func {
	maxW := 2060.0
	return func(s env.State, a env.Action, t int) float64 {
		next, err := e.Transition(s, a)
		if err != nil {
			return 0
		}
		var w float64
		for i := range next {
			w += e.Device(i).PowerW(next[i])
		}
		return 1 - w/maxW
	}
}

func testReward(t testing.TB, e *env.Environment, n int) *reward.Smart {
	t.Helper()
	r, err := reward.New(e, reward.Config{
		Functionalities: []reward.Functionality{
			{Name: "energy", Weight: 1, F: energySaving(e)},
		},
		Instances: n,
	})
	if err != nil {
		t.Fatalf("reward.New: %v", err)
	}
	return r
}

func TestMiniActionsRoundTrip(t *testing.T) {
	e := testEnv(t)
	m := NewMiniActions(e)
	if m.Total() != 1+2+2 {
		t.Fatalf("Total = %d, want 5", m.Total())
	}
	if dev, act := m.Decode(m.NoOpIndex()); dev != -1 || act != device.NoAction {
		t.Errorf("Decode(noop) = %d,%d", dev, act)
	}
	for dev := 0; dev < e.K(); dev++ {
		for a := 0; a < e.Device(dev).NumActions(); a++ {
			idx, err := m.Encode(dev, device.ActionID(a))
			if err != nil {
				t.Fatalf("Encode(%d,%d): %v", dev, a, err)
			}
			gd, ga := m.Decode(idx)
			if gd != dev || ga != device.ActionID(a) {
				t.Errorf("round trip (%d,%d) -> %d -> (%d,%d)", dev, a, idx, gd, ga)
			}
		}
	}
	if idx, err := m.Encode(0, device.NoAction); err != nil || idx != 0 {
		t.Errorf("Encode(NoAction) = %d,%v", idx, err)
	}
	if _, err := m.Encode(9, 0); err == nil {
		t.Error("Encode(unknown device) should error")
	}
	if _, err := m.Encode(0, 9); err == nil {
		t.Error("Encode(unknown action) should error")
	}
	if dev, act := m.Decode(99); dev != -1 || act != device.NoAction {
		t.Errorf("Decode(out of range) = %d,%d", dev, act)
	}
}

func TestMiniActionsOf(t *testing.T) {
	e := testEnv(t)
	m := NewMiniActions(e)
	if got := m.Of(env.NoOp(2)); len(got) != 1 || got[0] != 0 {
		t.Errorf("Of(noop) = %v", got)
	}
	got := m.Of(env.Action{1, 0})
	if len(got) != 2 {
		t.Fatalf("Of = %v", got)
	}
	d0, a0 := m.Decode(got[0])
	d1, a1 := m.Decode(got[1])
	if d0 != 0 || a0 != 1 || d1 != 1 || a1 != 0 {
		t.Errorf("Of decoded to (%d,%d),(%d,%d)", d0, a0, d1, a1)
	}
}

func TestFeatures(t *testing.T) {
	e := testEnv(t)
	f := NewFeatures(e, 10)
	if f.Dim() != 2+2+3 {
		t.Fatalf("Dim = %d, want 7", f.Dim())
	}
	x := f.Encode(env.State{1, 0}, 5)
	if x[0] != 0 || x[1] != 1 || x[2] != 1 || x[3] != 0 {
		t.Errorf("one-hot = %v", x[:4])
	}
	if x[4] != 0.5 {
		t.Errorf("phase = %g, want 0.5", x[4])
	}
	if math.Abs(x[5]) > 1e-9 || math.Abs(x[6]+1) > 1e-9 {
		t.Errorf("sin/cos = %g,%g", x[5], x[6])
	}
}

func TestSimEnvBasics(t *testing.T) {
	e := testEnv(t)
	rs := testReward(t, e, 3)
	sim, err := NewSimEnv(e, SimConfig{Initial: env.State{1, 1}, Reward: rs})
	if err != nil {
		t.Fatalf("NewSimEnv: %v", err)
	}
	if sim.Instances() != 3 || sim.Instance() != 0 {
		t.Fatalf("Instances/Instance = %d/%d", sim.Instances(), sim.Instance())
	}
	s := sim.State()
	if !s.Equal(env.State{1, 1}) {
		t.Fatalf("State = %v", s)
	}
	next, r, done, err := sim.Step(env.Action{0, device.NoAction}) // lamp off
	if err != nil || done {
		t.Fatalf("Step: %v done=%v", err, done)
	}
	if !next.Equal(env.State{0, 1}) {
		t.Errorf("next = %v", next)
	}
	if want := 1 - 2000.0/2060.0; math.Abs(r-want) > 1e-9 {
		t.Errorf("r = %g, want %g", r, want)
	}
	// step to completion
	if _, _, done, _ := sim.Step(env.NoOp(2)); done {
		t.Fatal("done too early")
	}
	if _, _, done, err := sim.Step(env.NoOp(2)); err != nil || !done {
		t.Fatalf("final step: done=%v err=%v", done, err)
	}
	if _, _, _, err := sim.Step(env.NoOp(2)); err == nil {
		t.Error("stepping past the end should error")
	}
	sim.Reset()
	if sim.Instance() != 0 || !sim.State().Equal(env.State{1, 1}) {
		t.Error("Reset did not restore S_0")
	}
	// invalid action
	if _, _, _, err := sim.Step(env.Action{1, device.NoAction}); err == nil {
		t.Error("invalid action should error")
	}
}

func TestSimEnvValidation(t *testing.T) {
	e := testEnv(t)
	if _, err := NewSimEnv(e, SimConfig{Initial: env.State{0, 0}}); err == nil {
		t.Error("missing reward should error")
	}
	rs := testReward(t, e, 3)
	if _, err := NewSimEnv(e, SimConfig{Initial: env.State{9, 9}, Reward: rs}); err == nil {
		t.Error("invalid initial state should error")
	}
}

func TestSimEnvExo(t *testing.T) {
	e := testEnv(t)
	rs := testReward(t, e, 3)
	sim, err := NewSimEnv(e, SimConfig{
		Initial: env.State{0, 0},
		Reward:  rs,
		Exo: func(s env.State, t int) env.State {
			s = s.Clone()
			s[1] = 1 // heater flips on by itself
			return s
		},
	})
	if err != nil {
		t.Fatalf("NewSimEnv: %v", err)
	}
	next, _, _, err := sim.Step(env.NoOp(2))
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	if next[1] != 1 {
		t.Errorf("exo hook not applied: %v", next)
	}

	bad, err := NewSimEnv(e, SimConfig{
		Initial: env.State{0, 0},
		Reward:  rs,
		Exo:     func(s env.State, t int) env.State { return env.State{9, 9} },
	})
	if err != nil {
		t.Fatalf("NewSimEnv: %v", err)
	}
	if _, _, _, err := bad.Step(env.NoOp(2)); err == nil {
		t.Error("invalid exo state should error")
	}
}

func TestSimEnvSafetyAndViolations(t *testing.T) {
	e := testEnv(t)
	rs := testReward(t, e, 4)
	tab := policy.NewTable(true)
	s00 := e.StateKey(env.State{0, 0})
	s10 := e.StateKey(env.State{1, 0})
	tab.Allow(s00, s10) // only lamp-on is sanctioned

	sim, err := NewSimEnv(e, SimConfig{Initial: env.State{0, 0}, Reward: rs, Safe: tab})
	if err != nil {
		t.Fatalf("NewSimEnv: %v", err)
	}
	if !sim.Safe(env.State{0, 0}, env.Action{1, device.NoAction}) {
		t.Error("sanctioned transition should be safe")
	}
	if sim.Safe(env.State{0, 0}, env.Action{device.NoAction, 1}) {
		t.Error("unsanctioned transition should be unsafe")
	}
	if !sim.Safe(env.State{0, 0}, env.NoOp(2)) {
		t.Error("idle should be safe under allowIdle")
	}
	if sim.Safe(env.State{0, 0}, env.Action{0, device.NoAction}) {
		t.Error("FSM-invalid action should be unsafe")
	}

	// Stepping an unsafe transition is counted.
	if _, _, _, err := sim.Step(env.Action{device.NoAction, 1}); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if sim.Violations() != 1 {
		t.Errorf("Violations = %d, want 1", sim.Violations())
	}
	sim.ResetViolations()
	if sim.Violations() != 0 {
		t.Error("ResetViolations failed")
	}
}

func TestSimEnvAudit(t *testing.T) {
	e := testEnv(t)
	rs := testReward(t, e, 2)
	tab := policy.NewTable(true) // empty: everything non-idle is a violation
	sim, err := NewSimEnv(e, SimConfig{Initial: env.State{0, 0}, Reward: rs})
	if err != nil {
		t.Fatalf("NewSimEnv: %v", err)
	}
	sim.SetAudit(tab)
	if !sim.Safe(env.State{0, 0}, env.Action{1, device.NoAction}) {
		t.Error("audit table must not constrain Safe()")
	}
	if _, _, _, err := sim.Step(env.Action{1, device.NoAction}); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if sim.Violations() != 1 {
		t.Errorf("audited violations = %d, want 1", sim.Violations())
	}
}

func TestReplayBuffer(t *testing.T) {
	r := NewReplay(3)
	for i := 0; i < 5; i++ {
		r.Add(Experience{T: i})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	rng := rand.New(rand.NewSource(1))
	batch := r.Sample(10, rng)
	if len(batch) != 3 {
		t.Fatalf("Sample clamps to Len: got %d", len(batch))
	}
	seen := map[int]bool{}
	for _, e := range batch {
		if e.T < 2 { // 0 and 1 were evicted
			t.Errorf("evicted experience %d still present", e.T)
		}
		seen[e.T] = true
	}
	if len(seen) != 3 {
		t.Errorf("sample without replacement should cover all 3: %v", seen)
	}
	if cap(NewReplay(0).slots) != 1 {
		t.Error("zero capacity should clamp to 1")
	}
}

func TestTableQUpdate(t *testing.T) {
	e := testEnv(t)
	q := NewTableQ(e, 10, 2, 0.5)
	s := env.State{0, 0}
	exp := Experience{S: s, T: 1, Minis: []int{1}}
	if _, err := q.Update([]Experience{exp}, []float64{1}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if got := q.Q(s, 1)[1]; got != 0.5 {
		t.Errorf("Q after one update = %g, want 0.5 (α=0.5)", got)
	}
	// time buckets: instance 1 and 9 fall into different buckets
	if got := q.Q(s, 9)[1]; got != 0 {
		t.Errorf("Q in other bucket = %g, want 0", got)
	}
	// same bucket: instances 1 and 4
	if got := q.Q(s, 4)[1]; got != 0.5 {
		t.Errorf("Q in same bucket = %g, want 0.5", got)
	}
	if q.Size() != 1 {
		t.Errorf("Size = %d", q.Size())
	}
	if _, err := q.Update([]Experience{exp}, []float64{1, 2}); err == nil {
		t.Error("target/batch mismatch should error")
	}
}

func TestDQNUpdateReducesLoss(t *testing.T) {
	e := testEnv(t)
	rng := rand.New(rand.NewSource(5))
	q, err := NewDQN(e, 10, DQNConfig{Hidden: []int{16}, LR: 0.01}, rng)
	if err != nil {
		t.Fatalf("NewDQN: %v", err)
	}
	if got := len(q.Q(env.State{0, 0}, 0)); got != 5 {
		t.Fatalf("Q width = %d, want 5", got)
	}
	batch := []Experience{
		{S: env.State{0, 0}, T: 0, Minis: []int{1}},
		{S: env.State{1, 1}, T: 5, Minis: []int{3}},
	}
	targets := []float64{1, -1}
	var first, last float64
	for i := 0; i < 200; i++ {
		loss, err := q.Update(batch, targets)
		if err != nil {
			t.Fatalf("Update: %v", err)
		}
		if i == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Errorf("loss did not decrease: first %g last %g", first, last)
	}
	if got := q.Q(env.State{0, 0}, 0)[1]; math.Abs(got-1) > 0.2 {
		t.Errorf("Q converged to %g, want ≈1", got)
	}
	if _, err := q.Update(batch, []float64{1}); err == nil {
		t.Error("target/batch mismatch should error")
	}
	if q.Net() == nil {
		t.Error("Net accessor should expose the network")
	}
}

func TestAgentValidation(t *testing.T) {
	e := testEnv(t)
	rs := testReward(t, e, 5)
	sim, _ := NewSimEnv(e, SimConfig{Initial: env.State{0, 0}, Reward: rs})
	q := NewTableQ(e, 5, 1, 0.5)
	if _, err := NewAgent(nil, q, AgentConfig{Rng: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("nil sim should error")
	}
	if _, err := NewAgent(sim, nil, AgentConfig{Rng: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("nil q should error")
	}
	if _, err := NewAgent(sim, q, AgentConfig{}); err == nil {
		t.Error("nil rng should error")
	}
}

// TestAgentLearnsToSaveEnergy: unconstrained, the agent should learn to
// turn both devices (initially on) off to maximize the energy reward.
func TestAgentLearnsToSaveEnergy(t *testing.T) {
	e := testEnv(t)
	n := 8
	rs := testReward(t, e, n)
	sim, err := NewSimEnv(e, SimConfig{Initial: env.State{1, 1}, Reward: rs})
	if err != nil {
		t.Fatalf("NewSimEnv: %v", err)
	}
	// Time-dependent table (buckets = n) makes the finite-horizon MDP exact.
	q := NewTableQ(e, n, n, 0.3)
	ag, err := NewAgent(sim, q, AgentConfig{
		Episodes: 600, Gamma: 0.9, BatchSize: 16,
		Epsilon: 1, EpsilonMin: 0.05, EpsilonDecay: 0.99,
		Rng: rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	stats, err := ag.Train()
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if len(stats.EpisodeRewards) != 600 {
		t.Fatalf("episode rewards = %d", len(stats.EpisodeRewards))
	}
	if stats.FinalEpsilon >= 1 {
		t.Error("epsilon should have decayed")
	}

	total, acts, err := ag.Evaluate()
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if len(acts) != n {
		t.Fatalf("acts = %d", len(acts))
	}
	// Optimal: turn both off at t=0 (reward ~1 each step after).
	if total < float64(n)*0.8 {
		t.Errorf("greedy reward %g too low; agent did not learn to power off", total)
	}
}

// TestConstrainedAgentRespectsPolicy: P_safe forbids touching the heater;
// the greedy agent must never do it even though it pays.
func TestConstrainedAgentRespectsPolicy(t *testing.T) {
	e := testEnv(t)
	n := 6
	rs := testReward(t, e, n)
	tab := policy.NewTable(true)
	// Only lamp transitions are sanctioned (from every lamp/heater combo).
	for _, heater := range []device.StateID{0, 1} {
		for _, lamp := range []device.StateID{0, 1} {
			from := env.State{lamp, heater}
			to := env.State{1 - lamp, heater}
			tab.Allow(e.StateKey(from), e.StateKey(to))
		}
	}
	sim, err := NewSimEnv(e, SimConfig{Initial: env.State{1, 1}, Reward: rs, Safe: tab})
	if err != nil {
		t.Fatalf("NewSimEnv: %v", err)
	}
	q := NewTableQ(e, n, n, 0.3)
	ag, err := NewAgent(sim, q, AgentConfig{
		Episodes: 200, Gamma: 0.9, BatchSize: 8,
		Rng: rand.New(rand.NewSource(3)),
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	stats, err := ag.Train()
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if stats.Violations != 0 {
		t.Errorf("constrained training committed %d violations", stats.Violations)
	}
	sim.ResetViolations()
	_, acts, err := ag.Evaluate()
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	for _, a := range acts {
		if a[1] != device.NoAction {
			t.Fatalf("agent touched the forbidden heater: %v", acts)
		}
	}
	if sim.Violations() != 0 {
		t.Errorf("greedy evaluation committed %d violations", sim.Violations())
	}
}

// Property: Greedy always returns an action that is FSM-valid and safe.
func TestGreedyAlwaysSafeProperty(t *testing.T) {
	e := testEnv(t)
	n := 10
	rs := testReward(t, e, n)
	tab := policy.NewTable(true)
	tab.Allow(e.StateKey(env.State{1, 0}), e.StateKey(env.State{0, 0})) // lamp off only
	sim, err := NewSimEnv(e, SimConfig{Initial: env.State{0, 0}, Reward: rs, Safe: tab})
	if err != nil {
		t.Fatalf("NewSimEnv: %v", err)
	}
	q := NewTableQ(e, n, 1, 0.5)
	ag, err := NewAgent(sim, q, AgentConfig{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	// Seed the table with random optimistic values so greedy wants to act.
	rng := rand.New(rand.NewSource(2))
	f := func(lamp, heater bool, tRaw uint8) bool {
		s := env.State{0, 0}
		if lamp {
			s[0] = 1
		}
		if heater {
			s[1] = 1
		}
		// random Q values
		exp := Experience{S: s, T: int(tRaw) % n, Minis: []int{1 + rng.Intn(4)}}
		if _, err := q.Update([]Experience{exp}, []float64{rng.Float64() * 10}); err != nil {
			return false
		}
		act := ag.Greedy(s, int(tRaw)%n)
		return sim.Safe(s, act)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestExploreReturnsSafeActions(t *testing.T) {
	e := testEnv(t)
	n := 5
	rs := testReward(t, e, n)
	tab := policy.NewTable(true) // nothing sanctioned: only idle is safe
	sim, err := NewSimEnv(e, SimConfig{Initial: env.State{0, 0}, Reward: rs, Safe: tab})
	if err != nil {
		t.Fatalf("NewSimEnv: %v", err)
	}
	ag, err := NewAgent(sim, NewTableQ(e, n, 1, 0.5), AgentConfig{Rng: rand.New(rand.NewSource(4))})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	for i := 0; i < 50; i++ {
		act := ag.explore(env.State{0, 0})
		if !sim.Safe(env.State{0, 0}, act) {
			t.Fatalf("explore returned unsafe action %v", act)
		}
	}
}

// testEnv3 is a 3-device variant for shape-mismatch tests.
func testEnv3(t *testing.T) *env.Environment {
	t.Helper()
	mk := func(name string) *device.Device {
		return device.NewBuilder(name, device.TypeLight).
			States("off", "on").
			Actions("power_off", "power_on").
			Transition("on", "power_off", "off").
			Transition("off", "power_on", "on").
			MustBuild()
	}
	b := env.NewBuilder()
	b.AddDevice(mk("a"), env.Placement{})
	b.AddDevice(mk("b"), env.Placement{})
	b.AddDevice(mk("c"), env.Placement{})
	b.AddApp("manual", 0, 1, 2)
	b.AddUser("u", 0)
	return b.MustBuild()
}
