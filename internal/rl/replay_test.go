package rl

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"jarvis/internal/device"
	"jarvis/internal/env"
)

var updateGolden = flag.Bool("update", false, "rewrite the replay golden files under testdata/")

const (
	replayGoldenPath  = "testdata/replay_golden.json"
	batchesGoldenPath = "testdata/replay_golden_batches.json"
)

// goldenReplayAgent trains a small agent whose replay wraps its ring,
// then feeds it online transitions through Observe (reusing the caller's
// buffers, as jarvisd does) with learn steps in between. The replay it
// leaves behind holds evictions, a permuted sampling index and repeated
// states.
func goldenReplayAgent(t *testing.T) *Agent {
	t.Helper()
	e := testEnv3(t)
	n := 8
	sim, err := NewSimEnv(e, SimConfig{Initial: env.State{1, 1, 0}, Reward: testReward(t, e, n)})
	if err != nil {
		t.Fatal(err)
	}
	ag, err := NewAgent(sim, NewTableQ(e, n, n, 0.3), AgentConfig{
		Episodes: 12, BatchSize: 8, ReplayCapacity: 40,
		Rng: rand.New(rand.NewSource(11)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ag.Train(); err != nil {
		t.Fatal(err)
	}
	s, next := env.State{0, 0, 0}, make(env.State, 3)
	act := env.NoOp(3)
	for i := 0; i < 12; i++ {
		// Toggle one lamp: power_on (1) when off, power_off (0) when on.
		for j := range act {
			act[j] = device.NoAction
		}
		act[i%3] = device.ActionID(1 - s[i%3])
		copy(next, s)
		next[i%3] = 1 - s[i%3]
		ag.Observe(Experience{S: s, T: i % n, Minis: ag.Minis().Of(act), R: float64(i) / 4, Next: next, NextT: i%n + 1, Done: i%n == n-1})
		copy(s, next)
		if i%3 == 2 {
			if _, err := ag.LearnStep(StepRNG(5, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ag
}

// at returns stored experience i.
func (r *Replay) at(i int) (e Experience) {
	r.load(i, &e)
	return e
}

func saveReplay(t *testing.T, r *Replay) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func drawBatches(r *Replay) [][]Experience {
	rng := rand.New(rand.NewSource(5))
	var out [][]Experience
	for i := 0; i < 4; i++ {
		out = append(out, r.Sample(8, rng))
	}
	return out
}

// TestReplayGolden pins the replay's JSON and sampling to files written
// before the buffer interned its values: training writes the golden
// bytes, Save → Load → Save reproduces them byte for byte, and a loaded
// buffer draws the recorded batches. Run with -update to rewrite them.
func TestReplayGolden(t *testing.T) {
	got := saveReplay(t, goldenReplayAgent(t).ReplayBuffer())
	loaded := NewReplay(1)
	if err := loaded.Load(bytes.NewReader(got)); err != nil {
		t.Fatal(err)
	}
	batches, err := json.Marshal(drawBatches(loaded))
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(replayGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(replayGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(batchesGoldenPath, batches, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(replayGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("trained replay JSON differs from %s:\n got %s\nwant %s", replayGoldenPath, got, golden)
	}
	r := NewReplay(1)
	if err := r.Load(bytes.NewReader(golden)); err != nil {
		t.Fatal(err)
	}
	if again := saveReplay(t, r); !bytes.Equal(again, golden) {
		t.Fatalf("Save after Load differs from %s:\n got %s\nwant %s", replayGoldenPath, again, golden)
	}
	wantBatches, err := os.ReadFile(batchesGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gotBatches, err := json.Marshal(drawBatches(r))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBatches, wantBatches) {
		t.Fatalf("loaded replay draws different batches:\n got %s\nwant %s", gotBatches, wantBatches)
	}
}

// retainedBytes returns the live heap the value build returns keeps.
func retainedBytes(build func() any) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// chainedReplay feeds a capacity-10,000 buffer n chained experiences over
// the full home's 11-device state width: experience i goes from state(i)
// to state(i+1), and every Add gets fresh copies, as Train and jarvisd's
// ingest hand them over.
func chainedReplay(n int, state func(i int) env.State) *Replay {
	r := NewReplay(10000)
	for i := 0; i < n; i++ {
		r.Add(Experience{
			S: state(i), T: i % 1440, Minis: []int{i % 7, 7 + i%3}, R: float64(i),
			Next: state(i + 1), NextT: i%1440 + 1,
		})
	}
	return r
}

// digits returns the 11-device state holding i's base-b digits.
func digits(i, b int) env.State {
	s := make(env.State, 11)
	for j := range s {
		s[j] = device.StateID(i % b)
		i /= b
	}
	return s
}

// TestReplayFootprint bounds what the buffer retains per experience: on a
// stream that revisits 100 states it keeps capacity × slot plus the few
// distinct values (at most 64 B per experience), and on a stream whose
// states never recur, with twice its capacity added so evicted values must
// be freed, no more than a buffer of per-experience copies (313 B).
func TestReplayFootprint(t *testing.T) {
	const n = 10000
	recurring := retainedBytes(func() any {
		return chainedReplay(n, func(i int) env.State { return digits(i%100, 2) })
	})
	if per := recurring / n; per > 64 {
		t.Errorf("100 distinct states: %d B retained per experience, want <= 64", per)
	}
	unique := retainedBytes(func() any {
		return chainedReplay(2*n, func(i int) env.State { return digits(i, 4) })
	})
	if per := unique / n; per > 313 {
		t.Errorf("never-recurring states: %d B retained per experience, want <= 313", per)
	}
	t.Logf("retained per experience: %d B (100 states), %d B (unique states)", recurring/n, unique/n)
}

// checkInterned fails t unless every pooled value still matches the
// content key it was interned under (no consumer wrote through a sampled
// slice) and every value's refcount equals the slots that hold it.
func checkInterned(t *testing.T, r *Replay) {
	t.Helper()
	states, minis := map[uint32]uint32{}, map[uint32]uint32{}
	for _, sl := range r.slots {
		states[sl.s]++
		states[sl.next]++
		minis[sl.minis]++
	}
	checkPool(t, "state", &r.states, states)
	checkPool(t, "mini-action list", &r.minis, minis)
}

func checkPool[E ~int](t *testing.T, what string, p *interned[E], held map[uint32]uint32) {
	t.Helper()
	delete(held, 0)
	if len(p.ids) != len(held) {
		t.Errorf("%s pool holds %d values, slots reference %d", what, len(p.ids), len(held))
	}
	for key, id := range p.ids {
		if got := string(appendKey(nil, p.vals[id])); got != key {
			t.Errorf("%s %d is %v, no longer its interned content", what, id, p.vals[id])
		}
		if p.refs[id] != held[id] {
			t.Errorf("%s %d: refcount %d, held by %d slots", what, id, p.refs[id], held[id])
		}
	}
}

// TestReplayInternedValuesIntact trains both Q backends, then runs online
// Observe + learn steps (jarvisd's ingest path) and a Save/Load round trip:
// no learn step may write through the read-only slices SampleInto hands
// out, and the refcounts must match the ring.
func TestReplayInternedValuesIntact(t *testing.T) {
	for _, backend := range []string{"table", "dqn"} {
		t.Run(backend, func(t *testing.T) {
			e := testEnv3(t)
			n := 8
			sim, err := NewSimEnv(e, SimConfig{Initial: env.State{1, 1, 0}, Reward: testReward(t, e, n)})
			if err != nil {
				t.Fatal(err)
			}
			var q QFunc = NewTableQ(e, n, n, 0.3)
			if backend == "dqn" {
				if q, err = NewDQN(e, n, DQNConfig{Hidden: []int{8}, TargetSync: 4}, rand.New(rand.NewSource(2))); err != nil {
					t.Fatal(err)
				}
			}
			ag, err := NewAgent(sim, q, AgentConfig{
				Episodes: 10, BatchSize: 8, ReplayCapacity: 48, DoubleDQN: backend == "dqn",
				Rng: rand.New(rand.NewSource(3)),
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ag.Train(); err != nil {
				t.Fatal(err)
			}
			checkInterned(t, ag.ReplayBuffer())
			s := env.State{0, 1, 0}
			for i := 0; i < 40; i++ {
				next := s.Clone()
				next[i%3] = 1 - next[i%3]
				act := env.NoOp(3)
				act[i%3] = device.ActionID(next[i%3])
				ag.Observe(Experience{S: s, T: i % n, Minis: ag.Minis().Of(act), R: 1, Next: next, NextT: i%n + 1})
				if _, err := ag.LearnStep(StepRNG(9, i)); err != nil {
					t.Fatal(err)
				}
				s = next
			}
			checkInterned(t, ag.ReplayBuffer())
			r := NewReplay(1)
			if err := r.Load(bytes.NewReader(saveReplay(t, ag.ReplayBuffer()))); err != nil {
				t.Fatal(err)
			}
			checkInterned(t, r)
		})
	}
}

// TestReplayAddCopiesOnFirstSight: Add copies a value it has not seen, so
// the caller may reuse its slices, and shares a value it holds.
func TestReplayAddCopiesOnFirstSight(t *testing.T) {
	r := NewReplay(4)
	s, minis := env.State{1, 2}, []int{3}
	r.Add(Experience{S: s, Minis: minis, Next: s})
	s[0], minis[0] = 9, 9
	got := r.at(0)
	if got.S[0] != 1 || got.Minis[0] != 3 {
		t.Fatalf("Add aliased the caller's slices: %+v", got)
	}
	if &got.S[0] != &got.Next[0] {
		t.Error("equal S and Next are stored twice")
	}
	r.Add(Experience{S: env.State{1, 2}})
	if &r.at(1).S[0] != &got.S[0] {
		t.Error("a state already held was copied again")
	}
	if r.at(1).Minis != nil || r.at(1).Next != nil {
		t.Errorf("nil slices came back as %v, %v", r.at(1).Minis, r.at(1).Next)
	}
	// Evicting every holder frees the value.
	for i := 0; i < 4; i++ {
		r.Add(Experience{S: env.State{7}})
	}
	if len(r.states.ids) != 1 {
		t.Errorf("state pool holds %d values after eviction, want 1", len(r.states.ids))
	}
	checkInterned(t, r)
}
