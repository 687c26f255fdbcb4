package rl

import (
	"math"
	"math/rand"
	"testing"

	"jarvis/internal/device"
	"jarvis/internal/env"
	"jarvis/internal/trace"
)

// tracedOverheadAgent wires the overheadBatch DQN into an agent whose
// replay buffer holds one full mini-batch, so LearnStep and LearnStepTraced
// both exercise DQN.Update. Every random source is seeded, so repeated
// calls build bit-identical agents.
func tracedOverheadAgent(t testing.TB) *Agent {
	t.Helper()
	d, batch, _ := overheadBatch(t)
	e := testEnv(t)
	rs := testReward(t, e, 10)
	sim, err := NewSimEnv(e, SimConfig{Initial: env.State{1, 1}, Reward: rs})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent(sim, d, AgentConfig{BatchSize: 32, Rng: rand.New(rand.NewSource(43))})
	if err != nil {
		t.Fatal(err)
	}
	// overheadBatch leaves Next empty (bare Update never evaluates
	// successors); the agent's target computation does, so give every
	// experience a valid successor.
	rng0 := rand.New(rand.NewSource(45))
	for _, exp := range batch {
		exp.Next = env.State{device.StateID(rng0.Intn(2)), device.StateID(rng0.Intn(2))}
		exp.NextT = exp.T + 1
		a.Observe(exp)
	}
	warm := rand.New(rand.NewSource(44))
	for i := 0; i < 8; i++ { // warm the agent-side batch/target buffers
		if _, err := a.LearnStepTraced(nil, warm); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// minAllocsPerRun repeats testing.AllocsPerRun and keeps the minimum.
// AllocsPerRun reads the process-global malloc counter, so a background
// goroutine that allocates inside one measurement window can only inflate
// that window's result, never deflate it — the minimum over a few windows
// is the true per-call count. Windows run ~10x longer under the race
// detector, which made single-window comparisons flaky on loaded machines.
func minAllocsPerRun(trials, runs int, f func()) float64 {
	best := math.Inf(1)
	for i := 0; i < trials; i++ {
		if n := testing.AllocsPerRun(runs, f); n < best {
			best = n
		}
	}
	return best
}

// TestDQNUpdateTraceOverhead is the tracing half of the zero-perturbation
// contract: with tracing disabled (nil spans end-to-end), the span-threaded
// learning path adds zero allocations over the plain LearnStep path (whose
// own successor-audit allocations predate tracing and are measured as the
// baseline). The bare DQN.Update itself stays at 0 allocs/op, re-asserted
// here with the trace layer compiled in. The time half, within 3% ns/op of
// the plain path, is BenchmarkLearnStepTracing's pair.
func TestDQNUpdateTraceOverhead(t *testing.T) {
	// Two bit-identical agents, each driven by an identically seeded RNG:
	// the only difference between the two measurement loops is the call
	// spelling, so allocation counts must match exactly. Windows are
	// interleaved and each side keeps its minimum so a burst of background
	// allocation pollutes adjacent windows of BOTH sides instead of just
	// one (see minAllocsPerRun).
	plainAgent := tracedOverheadAgent(t)
	plainRng := rand.New(rand.NewSource(46))
	plainStep := func() {
		if _, err := plainAgent.LearnStep(plainRng); err != nil {
			t.Fatal(err)
		}
	}
	tracedAgent := tracedOverheadAgent(t)
	tracedRng := rand.New(rand.NewSource(46))
	tracedStep := func() {
		if _, err := tracedAgent.LearnStepTraced(nil, tracedRng); err != nil {
			t.Fatal(err)
		}
	}
	plainAllocs, tracedAllocs := math.Inf(1), math.Inf(1)
	for i := 0; i < 5; i++ {
		if n := testing.AllocsPerRun(50, plainStep); n < plainAllocs {
			plainAllocs = n
		}
		if n := testing.AllocsPerRun(50, tracedStep); n < tracedAllocs {
			tracedAllocs = n
		}
	}
	t.Logf("LearnStep plain %.1f allocs/op, nil-span traced %.1f allocs/op", plainAllocs, tracedAllocs)
	// The race runtime injects heap allocations of its own nondeterminism:
	// two windows of the SAME spelling differ by up to ±4 allocs/op under
	// -race, so exact equality is only meaningful without it. CI enforces
	// this branch in the no-race "Instrumentation overhead" leg, matching
	// the timing comparison below which likewise self-skips under -race.
	if tracedAllocs > plainAllocs && !raceEnabled {
		t.Errorf("nil-span LearnStepTraced allocates %.1f objects per call vs %.1f plain: tracing must add 0",
			tracedAllocs, plainAllocs)
	}
	d, batch, targets := overheadBatch(t)
	if n := minAllocsPerRun(5, 50, func() {
		if _, err := d.Update(batch, targets); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DQN.Update allocates %.1f objects per call with tracing compiled in, want 0", n)
	}
}

// BenchmarkLearnStepTracing pairs the plain LearnStep with the
// span-threaded LearnStepTraced given a nil span, the code a daemon runs
// with tracing off. Both agents and their random sources are seeded
// alike, so the ratio of their ns/op is the disabled-tracing overhead,
// budgeted at 3%; compare the medians of repeated runs (DESIGN.md §11.2).
func BenchmarkLearnStepTracing(b *testing.B) {
	for _, traced := range []bool{false, true} {
		name := "plain"
		if traced {
			name = "traced-nil-span"
		}
		b.Run(name, func(b *testing.B) {
			a := tracedOverheadAgent(b)
			rng := rand.New(rand.NewSource(47))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if traced {
					_, err = a.LearnStepTraced(nil, rng)
				} else {
					_, err = a.LearnStep(rng)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestGreedyTracedSpans checks the rl.select span carries the Q value and
// parents correctly, and that the traced path returns the same action as
// the plain one.
func TestGreedyTracedSpans(t *testing.T) {
	e := testEnv(t)
	rs := testReward(t, e, 10)
	sim, err := NewSimEnv(e, SimConfig{Initial: env.State{1, 1}, Reward: rs})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent(sim, NewTableQ(e, 10, 4, 0.2), AgentConfig{
		Episodes: 2, BatchSize: 4, Rng: rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Train(); err != nil {
		t.Fatal(err)
	}
	tr := trace.New(4)
	tr.SetSampleEvery(1)
	root := tr.Start("test.recommend")
	tracedAct := a.GreedyTraced(root, env.State{1, 1}, 0)
	root.End()
	plainAct := a.Greedy(env.State{1, 1}, 0)
	for i := range tracedAct {
		if tracedAct[i] != plainAct[i] {
			t.Fatalf("traced action %v != plain action %v", tracedAct, plainAct)
		}
	}
	td := tr.Ring().Recent(1)[0]
	if len(td.Spans) != 2 || td.Spans[1].Name != "rl.select" || td.Spans[1].Parent != 0 {
		t.Fatalf("span tree: %+v", td.Spans)
	}
	var hasQ bool
	for _, an := range td.Spans[1].Annotations {
		if an.K == "q" {
			hasQ = true
		}
	}
	if !hasQ {
		t.Errorf("rl.select span missing q annotation: %+v", td.Spans[1].Annotations)
	}
}
