package rl

import (
	"math/rand"
	"testing"

	"jarvis/internal/device"
	"jarvis/internal/env"
)

// TestDecideEverySemantics: with DecideEvery = 3 on a 9-instance episode,
// the agent takes exactly 3 decisions; rewards accumulate over each
// window; idle instances step NoOp.
func TestDecideEverySemantics(t *testing.T) {
	e := testEnv(t)
	n := 9
	rs := testReward(t, e, n)
	sim, err := NewSimEnv(e, SimConfig{Initial: env.State{1, 1}, Reward: rs})
	if err != nil {
		t.Fatalf("NewSimEnv: %v", err)
	}
	q := NewTableQ(e, n, 3, 0.5)
	ag, err := NewAgent(sim, q, AgentConfig{
		Episodes: 1, DecideEvery: 3, Epsilon: 1, // all exploration
		Rng: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	if ag.DecideEvery() != 3 {
		t.Fatalf("DecideEvery = %d", ag.DecideEvery())
	}
	stats, err := ag.Train()
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if len(stats.EpisodeRewards) != 1 {
		t.Fatalf("episodes = %d", len(stats.EpisodeRewards))
	}
	// The replay buffer holds one experience per decision.
	if ag.replay.Len() != 3 {
		t.Errorf("replay entries = %d, want 3 decisions", ag.replay.Len())
	}
	for i := 0; i < ag.replay.Len(); i++ {
		exp := ag.replay.at(i)
		if exp.T%3 != 0 {
			t.Errorf("decision at non-multiple instance %d", exp.T)
		}
		if exp.NextT != exp.T+3 {
			t.Errorf("NextT = %d, want %d", exp.NextT, exp.T+3)
		}
	}
	// The last decision window is marked done.
	if !ag.replay.at(ag.replay.Len() - 1).Done {
		t.Error("final decision should be done")
	}
}

// TestDecideEveryEvaluate: Evaluate emits one action per instance with
// NoOps between decisions.
func TestDecideEveryEvaluate(t *testing.T) {
	e := testEnv(t)
	n := 8
	rs := testReward(t, e, n)
	sim, err := NewSimEnv(e, SimConfig{Initial: env.State{1, 1}, Reward: rs})
	if err != nil {
		t.Fatalf("NewSimEnv: %v", err)
	}
	q := NewTableQ(e, n, n, 0.5)
	// Seed Q so greedy wants to act at every decision point.
	for d := 0; d < n; d++ {
		exp := Experience{S: env.State{1, 1}, T: d, Minis: []int{1}}
		if _, err := q.Update([]Experience{exp}, []float64{5}); err != nil {
			t.Fatal(err)
		}
	}
	ag, err := NewAgent(sim, q, AgentConfig{
		Episodes: 1, DecideEvery: 4,
		Rng: rand.New(rand.NewSource(2)),
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	_, acts, err := ag.Evaluate()
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if len(acts) != n {
		t.Fatalf("acts = %d, want %d", len(acts), n)
	}
	for i, a := range acts {
		if i%4 != 0 && !a.IsNoOp() {
			t.Errorf("instance %d should be idle, got %v", i, a)
		}
	}
}

// TestActionableMask: the agent never touches excluded devices.
func TestActionableMask(t *testing.T) {
	e := testEnv(t)
	n := 10
	rs := testReward(t, e, n)
	sim, err := NewSimEnv(e, SimConfig{Initial: env.State{1, 1}, Reward: rs})
	if err != nil {
		t.Fatalf("NewSimEnv: %v", err)
	}
	q := NewTableQ(e, n, n, 0.5)
	ag, err := NewAgent(sim, q, AgentConfig{
		Episodes:   30,
		Actionable: func(dev int) bool { return dev == 0 }, // lamp only
		Rng:        rand.New(rand.NewSource(3)),
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	if _, err := ag.Train(); err != nil {
		t.Fatalf("Train: %v", err)
	}
	for i := 0; i < ag.replay.Len(); i++ {
		exp := ag.replay.at(i)
		for _, mi := range exp.Minis {
			dev, _ := ag.minis.Decode(mi)
			if dev == 1 {
				t.Fatalf("agent acted on excluded device: %v", exp.Minis)
			}
		}
	}
	// Greedy with inflated Q on the heater must still refuse it.
	for d := 0; d < n; d++ {
		exp := Experience{S: env.State{1, 1}, T: d, Minis: []int{3}}
		if _, err := q.Update([]Experience{exp}, []float64{100}); err != nil {
			t.Fatal(err)
		}
	}
	act := ag.Greedy(env.State{1, 1}, 0)
	if act[1] != device.NoAction {
		t.Errorf("greedy touched excluded device: %v", act)
	}
}

// TestReplayEveryThrottles: with ReplayEvery = n steps per episode, at
// most one replay per episode happens (observable through the Q table
// staying sparse).
func TestReplayEveryThrottles(t *testing.T) {
	e := testEnv(t)
	n := 8
	rs := testReward(t, e, n)
	sim, err := NewSimEnv(e, SimConfig{Initial: env.State{1, 1}, Reward: rs})
	if err != nil {
		t.Fatalf("NewSimEnv: %v", err)
	}
	dense := NewTableQ(e, n, n, 1) // alpha 1: rows appear on first update
	agDense, err := NewAgent(sim, dense, AgentConfig{
		Episodes: 5, BatchSize: 2, ReplayEvery: 1,
		Rng: rand.New(rand.NewSource(4)),
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	if _, err := agDense.Train(); err != nil {
		t.Fatalf("Train: %v", err)
	}

	sim2, err := NewSimEnv(e, SimConfig{Initial: env.State{1, 1}, Reward: rs})
	if err != nil {
		t.Fatalf("NewSimEnv: %v", err)
	}
	sparse := NewTableQ(e, n, n, 1)
	agSparse, err := NewAgent(sim2, sparse, AgentConfig{
		Episodes: 5, BatchSize: 2, ReplayEvery: 1000,
		Rng: rand.New(rand.NewSource(4)),
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	if _, err := agSparse.Train(); err != nil {
		t.Fatalf("Train: %v", err)
	}
	if sparse.Size() >= dense.Size() {
		t.Errorf("throttled replay should touch fewer rows: %d vs %d", sparse.Size(), dense.Size())
	}
}

// TestDQNTargetNetworkLags: QTarget stays at its old values until the sync
// point, then matches Q.
func TestDQNTargetNetworkLags(t *testing.T) {
	e := testEnv(t)
	rng := rand.New(rand.NewSource(9))
	q, err := NewDQN(e, 10, DQNConfig{Hidden: []int{8}, LR: 0.05, TargetSync: 3}, rng)
	if err != nil {
		t.Fatalf("NewDQN: %v", err)
	}
	s := env.State{0, 0}
	before := append([]float64(nil), q.QTarget(s, 0)...)
	batch := []Experience{{S: s, T: 0, Minis: []int{1}}}

	// Two updates: target must not have moved yet.
	for i := 0; i < 2; i++ {
		if _, err := q.Update(batch, []float64{5}); err != nil {
			t.Fatal(err)
		}
	}
	after2 := q.QTarget(s, 0)
	for i := range before {
		if before[i] != after2[i] {
			t.Fatal("target network moved before the sync point")
		}
	}
	// Third update triggers the sync: target now equals the online net.
	if _, err := q.Update(batch, []float64{5}); err != nil {
		t.Fatal(err)
	}
	online := append([]float64(nil), q.Q(s, 0)...)
	target := q.QTarget(s, 0)
	for i := range online {
		if online[i] != target[i] {
			t.Fatal("target network did not sync")
		}
	}
}

// TestTableQTargetIsLive: the tabular backend has no lag.
func TestTableQTargetIsLive(t *testing.T) {
	e := testEnv(t)
	q := NewTableQ(e, 10, 1, 0.5)
	s := env.State{0, 0}
	if _, err := q.Update([]Experience{{S: s, T: 0, Minis: []int{1}}}, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if q.QTarget(s, 0)[1] != q.Q(s, 0)[1] {
		t.Error("tabular QTarget must equal Q")
	}
}

// TestDoubleDQNBootstrap: with DoubleDQN, the bootstrap picks the online
// argmax but scores it with the target network.
func TestDoubleDQNBootstrap(t *testing.T) {
	e := testEnv(t)
	n := 4
	rs := testReward(t, e, n)
	sim, err := NewSimEnv(e, SimConfig{Initial: env.State{1, 1}, Reward: rs})
	if err != nil {
		t.Fatalf("NewSimEnv: %v", err)
	}
	rng := rand.New(rand.NewSource(11))
	q, err := NewDQN(e, n, DQNConfig{Hidden: []int{8}, LR: 0.05, TargetSync: 1000}, rng)
	if err != nil {
		t.Fatalf("NewDQN: %v", err)
	}
	// Train the online net away from the (still-initial) target net.
	batch := []Experience{{S: env.State{1, 1}, T: 0, Minis: []int{1}}}
	for i := 0; i < 50; i++ {
		if _, err := q.Update(batch, []float64{10}); err != nil {
			t.Fatal(err)
		}
	}
	ag, err := NewAgent(sim, q, AgentConfig{DoubleDQN: true, Rng: rng})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	got := ag.maxNextQ(env.State{1, 1}, 0)
	// Online argmax is mini 1 (trained to 10); its target value is the
	// untrained network's output — nowhere near 10.
	online := ag.q.Q(env.State{1, 1}, 0)[1]
	if got >= online-1 {
		t.Errorf("double-DQN bootstrap %g should use target values, online is %g", got, online)
	}
}
