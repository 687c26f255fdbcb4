package rl

import (
	"math/rand"
	"testing"

	"jarvis/internal/device"
	"jarvis/internal/env"
	"jarvis/internal/telemetry"
)

// overheadBatch builds a warm DQN and a 32-experience mini-batch, the
// daemon-scale Update the acceptance criterion measures.
func overheadBatch(t testing.TB) (*DQN, []Experience, []float64) {
	t.Helper()
	e := testEnv(t)
	rng := rand.New(rand.NewSource(41))
	d, err := NewDQN(e, 10, DQNConfig{Hidden: []int{64, 64}, LR: 0.001, TargetSync: 64}, rng)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Experience, 32)
	targets := make([]float64, 32)
	for i := range batch {
		batch[i] = Experience{
			S:     env.State{device.StateID(rng.Intn(2)), device.StateID(rng.Intn(2))},
			T:     rng.Intn(10),
			Minis: []int{1 + rng.Intn(4)},
		}
		targets[i] = rng.NormFloat64()
	}
	for i := 0; i < 8; i++ { // warm scratch, arena, Adam state
		if _, err := d.Update(batch, targets); err != nil {
			t.Fatal(err)
		}
	}
	return d, batch, targets
}

// TestDQNUpdateInstrumentationOverhead is the allocation half of the
// zero-perturbation contract: the instrumented DQN.Update (telemetry
// enabled) adds zero allocations. The time half, within 3% ns/op of the
// bare path, is BenchmarkDQNUpdateTelemetry's pair: a wall-clock ratio
// needs repeated runs and their spread, not one pass/fail sample.
func TestDQNUpdateInstrumentationOverhead(t *testing.T) {
	d, batch, targets := overheadBatch(t)
	telemetry.Default.SetEnabled(true)
	defer telemetry.Default.SetEnabled(true)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := d.Update(batch, targets); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("instrumented DQN.Update allocates %.1f objects per call, want 0", allocs)
	}
}

// BenchmarkDQNUpdateTelemetry pairs the bare DQN.Update (telemetry
// disabled, where every metric write is one atomic load) with the
// instrumented one. The ratio of their ns/op is the instrumentation
// overhead, budgeted at 3%; compare the medians of repeated runs
// (DESIGN.md §9.1).
func BenchmarkDQNUpdateTelemetry(b *testing.B) {
	d, batch, targets := overheadBatch(b)
	defer telemetry.Default.SetEnabled(true)
	for _, on := range []bool{false, true} {
		name := "bare"
		if on {
			name = "instrumented"
		}
		b.Run(name, func(b *testing.B) {
			telemetry.Default.SetEnabled(on)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.Update(batch, targets); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTrainingMovesTelemetry trains a tiny agent and checks that every rl
// metric the daemon exposes actually moves.
func TestTrainingMovesTelemetry(t *testing.T) {
	before := telemetry.Default.Snapshot()

	e := testEnv(t)
	rs := testReward(t, e, 10)
	sim, err := NewSimEnv(e, SimConfig{Initial: env.State{1, 1}, Reward: rs})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent(sim, NewTableQ(e, 10, 4, 0.2), AgentConfig{
		Episodes:  4,
		BatchSize: 4,
		Rng:       rand.New(rand.NewSource(5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Train(); err != nil {
		t.Fatal(err)
	}
	a.Greedy(env.State{1, 1}, 0)

	after := telemetry.Default.Snapshot()
	for _, name := range []string{"rl.train.episodes", "rl.train.steps", "rl.recommend.greedy"} {
		if after.Counters[name] <= before.Counters[name] {
			t.Errorf("counter %s did not move: %d -> %d", name, before.Counters[name], after.Counters[name])
		}
	}
	lat := `rl.update.latency{backend="table"}`
	if after.Histograms[lat].Count <= before.Histograms[lat].Count {
		t.Errorf("%s recorded no observations during training", lat)
	}
	if eps := after.Gauges["rl.epsilon"]; eps <= 0 || eps > 1 {
		t.Errorf("rl.epsilon gauge = %v, want (0, 1]", eps)
	}
	if after.Gauges["rl.replay.size"] <= 0 {
		t.Error("rl.replay.size gauge never set")
	}
}

// TestGreedyDegradedCountsTelemetry poisons a tabular Q row with NaN and
// checks the degraded fallback is counted and value-reported.
func TestGreedyDegradedCountsTelemetry(t *testing.T) {
	before := telemetry.Default.Snapshot().Counters["rl.recommend.degraded"]

	e := testEnv(t)
	rs := testReward(t, e, 10)
	sim, err := NewSimEnv(e, SimConfig{Initial: env.State{1, 1}, Reward: rs})
	if err != nil {
		t.Fatal(err)
	}
	q := NewTableQ(e, 10, 1, 0.2)
	a, err := NewAgent(sim, q, AgentConfig{Rng: rand.New(rand.NewSource(6))})
	if err != nil {
		t.Fatal(err)
	}
	s := env.State{1, 1}
	nan := func() float64 { return 0 }()
	nan = nan / nan // NaN without importing math
	if _, err := q.Update([]Experience{{S: s, T: 0, Minis: []int{1}}}, []float64{nan}); err != nil {
		t.Fatal(err)
	}
	act := a.Greedy(s, 0)
	if !act.IsNoOp() {
		t.Errorf("degraded Greedy returned %v, want NoOp", act)
	}
	if a.Degraded() != 1 {
		t.Errorf("Degraded() = %d, want 1", a.Degraded())
	}
	if v := a.LastValue(); v != 0 {
		t.Errorf("LastValue after degraded fallback = %v, want 0", v)
	}
	after := telemetry.Default.Snapshot().Counters["rl.recommend.degraded"]
	if after != before+1 {
		t.Errorf("rl.recommend.degraded: %d -> %d, want +1", before, after)
	}
}
