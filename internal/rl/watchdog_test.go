package rl

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"jarvis/internal/device"
	"jarvis/internal/env"
	"jarvis/internal/nn"
)

// watchdogFixture builds a TableQ agent with some learned state, snapshots
// the healthy Q table, and returns everything a watchdog test needs.
type watchdogFixture struct {
	ag    *Agent
	q     *TableQ
	good  []byte // healthy table snapshot (Save output)
	state env.State
}

func newWatchdogFixture(t *testing.T) *watchdogFixture {
	t.Helper()
	e := testEnv(t)
	n := 8
	rs := testReward(t, e, n)
	sim, err := NewSimEnv(e, SimConfig{Initial: env.State{1, 1}, Reward: rs})
	if err != nil {
		t.Fatalf("NewSimEnv: %v", err)
	}
	q := NewTableQ(e, n, n, 0.3)
	ag, err := NewAgent(sim, q, AgentConfig{
		Episodes: 20, Gamma: 0.9, BatchSize: 8,
		Rng: rand.New(rand.NewSource(11)),
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	if _, err := ag.Train(); err != nil {
		t.Fatalf("Train: %v", err)
	}
	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return &watchdogFixture{ag: ag, q: q, good: buf.Bytes(), state: env.State{1, 1}}
}

// poison writes v into every entry of the Q rows for the fixture state
// across all time buckets, so the next greedy evaluation sees it.
func (f *watchdogFixture) poison(v float64) {
	for inst := 0; inst < f.q.n; inst++ {
		row := f.q.row(f.state, inst)
		for i := range row {
			row[i] = v
		}
	}
}

func (f *watchdogFixture) restoreGood() error {
	return f.q.Load(bytes.NewReader(f.good))
}

func TestWatchdogHealsNaNInGreedyPath(t *testing.T) {
	f := newWatchdogFixture(t)
	wd := f.ag.AttachWatchdog(WatchdogConfig{Restore: f.restoreGood})
	f.poison(math.NaN())

	act := f.ag.Greedy(f.state, 0)
	if act == nil {
		t.Fatal("Greedy returned nil action")
	}
	st := wd.Stats()
	if st.Trips != 1 || st.Rollbacks != 1 || st.RestoreFailures != 0 {
		t.Errorf("stats = %+v, want 1 trip, 1 rollback", st)
	}
	if f.ag.Degraded() != 0 {
		t.Errorf("healed evaluation still degraded %d times", f.ag.Degraded())
	}
	if got, _ := scanQ(f.q.Q(f.state, 0)); math.IsNaN(got) {
		t.Error("Q table still poisoned after rollback")
	}
	if f.ag.Epsilon() < 0.5 {
		t.Errorf("epsilon = %v, want re-seeded to >= 0.5", f.ag.Epsilon())
	}
	if !math.IsInf(f.ag.Loss(), 1) {
		t.Errorf("loss = %v, want reset to +Inf", f.ag.Loss())
	}
}

func TestWatchdogRunawayStreakRollsBack(t *testing.T) {
	f := newWatchdogFixture(t)
	wd := f.ag.AttachWatchdog(WatchdogConfig{
		MaxAbsQ: 100, Patience: 3, Restore: f.restoreGood,
	})
	f.poison(1e7) // finite but absurd

	// Two runaway evaluations build the streak without tripping.
	f.ag.Greedy(f.state, 0)
	f.ag.Greedy(f.state, 0)
	if st := wd.Stats(); st.Trips != 0 {
		t.Fatalf("tripped before patience exhausted: %+v", st)
	}
	// Third consecutive runaway trips and rolls back.
	f.ag.Greedy(f.state, 0)
	st := wd.Stats()
	if st.Trips != 1 || st.Rollbacks != 1 {
		t.Fatalf("stats = %+v, want 1 trip, 1 rollback", st)
	}
	if maxAbs, finite := scanQ(f.q.Q(f.state, 0)); !finite || maxAbs > 100 {
		t.Errorf("table not restored: maxAbs %v finite %v", maxAbs, finite)
	}
	// A healthy evaluation resets the streak.
	f.ag.Greedy(f.state, 0)
	if st := wd.Stats(); st.Trips != 1 {
		t.Errorf("healthy evaluation tripped: %+v", st)
	}
}

func TestWatchdogRunawayStreakResetsOnHealthy(t *testing.T) {
	f := newWatchdogFixture(t)
	wd := f.ag.AttachWatchdog(WatchdogConfig{
		MaxAbsQ: 100, Patience: 2, Restore: f.restoreGood,
	})
	f.poison(1e7)
	f.ag.Greedy(f.state, 0) // streak 1
	f.restoreGood()
	f.ag.Greedy(f.state, 0) // healthy: streak back to 0
	f.poison(1e7)
	f.ag.Greedy(f.state, 0) // streak 1 again — no trip
	if st := wd.Stats(); st.Trips != 0 {
		t.Errorf("streak did not reset across healthy evaluation: %+v", st)
	}
}

func TestWatchdogRestoreFailureDegrades(t *testing.T) {
	f := newWatchdogFixture(t)
	boom := errors.New("no valid generation")
	wd := f.ag.AttachWatchdog(WatchdogConfig{Restore: func() error { return boom }})
	f.poison(math.NaN())

	act := f.ag.Greedy(f.state, 0)
	for i, a := range act {
		if a != device.NoAction {
			t.Errorf("degraded recommendation acts on device %d (action %d), want NoOp", i, a)
		}
	}
	st := wd.Stats()
	if st.Trips != 1 || st.Rollbacks != 0 || st.RestoreFailures != 1 {
		t.Errorf("stats = %+v, want 1 trip, 0 rollbacks, 1 restore failure", st)
	}
	if f.ag.Degraded() != 1 {
		t.Errorf("Degraded = %d, want 1 (NoOp fallback after failed restore)", f.ag.Degraded())
	}
}

func TestWatchdogWithoutRestoreOnlyCounts(t *testing.T) {
	f := newWatchdogFixture(t)
	wd := f.ag.AttachWatchdog(WatchdogConfig{})
	f.poison(math.NaN())
	f.ag.Greedy(f.state, 0)
	st := wd.Stats()
	if st.Trips != 1 || st.Rollbacks != 0 || st.RestoreFailures != 0 {
		t.Errorf("stats = %+v, want trip only", st)
	}
	if f.ag.Degraded() != 1 {
		t.Errorf("Degraded = %d, want 1", f.ag.Degraded())
	}
}

func TestWatchdogLossObservations(t *testing.T) {
	f := newWatchdogFixture(t)
	wd := f.ag.AttachWatchdog(WatchdogConfig{MaxLoss: 10, Patience: 2, Restore: f.restoreGood})

	if wd.observeLoss(1.5) {
		t.Error("healthy loss tripped")
	}
	if wd.observeLoss(50) {
		t.Error("first runaway loss tripped before patience")
	}
	if !wd.observeLoss(50) {
		t.Error("second consecutive runaway loss should trip")
	}
	if !wd.observeLoss(math.NaN()) {
		t.Error("non-finite loss should trip immediately")
	}
	st := wd.Stats()
	if st.Trips != 2 || st.Rollbacks != 2 {
		t.Errorf("stats = %+v, want 2 trips, 2 rollbacks", st)
	}
}

func TestLearnFailureRoutesDivergenceToWatchdog(t *testing.T) {
	f := newWatchdogFixture(t)
	wd := f.ag.AttachWatchdog(WatchdogConfig{Restore: f.restoreGood})

	div := &nn.DivergenceError{Loss: math.NaN()}
	if err := f.ag.learnFailure(div); err != nil {
		t.Errorf("divergence not swallowed: %v", err)
	}
	if st := wd.Stats(); st.Trips != 1 || st.Rollbacks != 1 {
		t.Errorf("stats = %+v, want 1 trip, 1 rollback", st)
	}
	other := errors.New("disk on fire")
	if err := f.ag.learnFailure(other); !errors.Is(err, other) {
		t.Errorf("non-divergence error swallowed: %v", err)
	}
}

func TestLearnStepRunsOnlyWithFullBatch(t *testing.T) {
	f := newWatchdogFixture(t)
	// Fresh agent with an empty buffer.
	e := testEnv(t)
	rs := testReward(t, e, 8)
	sim, err := NewSimEnv(e, SimConfig{Initial: env.State{1, 1}, Reward: rs})
	if err != nil {
		t.Fatal(err)
	}
	ag, err := NewAgent(sim, NewTableQ(e, 8, 8, 0.3), AgentConfig{
		BatchSize: 4, Rng: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	if ran, err := ag.LearnStep(rng); err != nil || ran {
		t.Fatalf("LearnStep on empty buffer = (%v, %v), want (false, nil)", ran, err)
	}
	exp := Experience{S: env.State{1, 1}, T: 0, Minis: []int{0}, R: 0.5, Next: env.State{1, 1}, NextT: 1}
	for i := 0; i < 4; i++ {
		ag.Observe(exp)
	}
	if ag.ReplayBuffer().Len() != 4 {
		t.Fatalf("replay len = %d", ag.ReplayBuffer().Len())
	}
	ran, err := ag.LearnStep(rng)
	if err != nil || !ran {
		t.Fatalf("LearnStep with full batch = (%v, %v), want (true, nil)", ran, err)
	}
	if math.IsInf(ag.Loss(), 1) {
		t.Error("loss not updated by LearnStep")
	}
	_ = f
}

func TestObserveClonesState(t *testing.T) {
	e := testEnv(t)
	rs := testReward(t, e, 8)
	sim, err := NewSimEnv(e, SimConfig{Initial: env.State{1, 1}, Reward: rs})
	if err != nil {
		t.Fatal(err)
	}
	ag, err := NewAgent(sim, NewTableQ(e, 8, 8, 0.3), AgentConfig{
		BatchSize: 4, Rng: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := env.State{1, 1}
	next := env.State{0, 1}
	minis := []int{1}
	ag.Observe(Experience{S: s, Next: next, Minis: minis})
	s[0], next[0], minis[0] = 9, 9, 9
	got := ag.ReplayBuffer().at(0)
	if got.S[0] == 9 || got.Next[0] == 9 || got.Minis[0] == 9 {
		t.Errorf("Observe aliased caller buffers: %+v", got)
	}
}

func TestSetEpsilonClamps(t *testing.T) {
	e := testEnv(t)
	rs := testReward(t, e, 8)
	sim, err := NewSimEnv(e, SimConfig{Initial: env.State{1, 1}, Reward: rs})
	if err != nil {
		t.Fatal(err)
	}
	ag, err := NewAgent(sim, NewTableQ(e, 8, 8, 0.3), AgentConfig{
		EpsilonMin: 0.05, Rng: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ag.SetEpsilon(2)
	if ag.Epsilon() != 1 {
		t.Errorf("SetEpsilon(2) -> %v, want 1", ag.Epsilon())
	}
	ag.SetEpsilon(0.001)
	if ag.Epsilon() != 0.05 {
		t.Errorf("SetEpsilon(0.001) -> %v, want EpsilonMin 0.05", ag.Epsilon())
	}
	ag.SetEpsilon(0.5)
	if ag.Epsilon() != 0.5 {
		t.Errorf("SetEpsilon(0.5) -> %v", ag.Epsilon())
	}
}
