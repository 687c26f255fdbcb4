package compiled_test

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"jarvis/internal/compiled"
	"jarvis/internal/device"
	"jarvis/internal/env"
	"jarvis/internal/replay"
	"jarvis/internal/reward"
	"jarvis/internal/rl"
	"jarvis/internal/smarthome"
)

// testEnv builds a 3-light environment: 8 states, 7 mini-actions — small
// enough to enumerate the full state×time product in the golden tests.
func testEnv(t *testing.T) *env.Environment {
	t.Helper()
	mk := func(name string, watts float64) *device.Device {
		return device.NewBuilder(name, device.TypeLight).
			States("off", "on").
			Actions("power_off", "power_on").
			Transition("on", "power_off", "off").
			Transition("off", "power_on", "on").
			PowerW("on", watts).
			MustBuild()
	}
	b := env.NewBuilder()
	b.AddDevice(mk("a", 60), env.Placement{})
	b.AddDevice(mk("b", 40), env.Placement{})
	b.AddDevice(mk("c", 900), env.Placement{})
	b.AddApp("manual", 0, 1, 2)
	b.AddUser("u", 0)
	return b.MustBuild()
}

func testReward(t *testing.T, e *env.Environment, n int) *reward.Smart {
	t.Helper()
	f := func(s env.State, a env.Action, tt int) float64 {
		next, err := e.Transition(s, a)
		if err != nil {
			return 0
		}
		var w float64
		for i, st := range next {
			w += e.Device(i).PowerW(st)
		}
		return 1 - w/1000
	}
	r, err := reward.New(e, reward.Config{
		Functionalities: []reward.Functionality{{Name: "energy", Weight: 1, F: f}},
		Instances:       n,
	})
	if err != nil {
		t.Fatalf("reward.New: %v", err)
	}
	return r
}

func testSim(t *testing.T, e *env.Environment, n int) *rl.SimEnv {
	t.Helper()
	sim, err := rl.NewSimEnv(e, rl.SimConfig{
		Initial: make(env.State, e.K()),
		Reward:  testReward(t, e, n),
	})
	if err != nil {
		t.Fatalf("NewSimEnv: %v", err)
	}
	return sim
}

func trainedAgent(t *testing.T, sim rl.SafeEnv, q rl.QFunc, seed int64) *rl.Agent {
	t.Helper()
	a, err := rl.NewAgent(sim, q, rl.AgentConfig{
		Episodes: 6, BatchSize: 8, ReplayEvery: 2,
		Rng: rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	if _, err := a.Train(); err != nil {
		t.Fatalf("Train: %v", err)
	}
	return a
}

// assertGolden checks Lookup against Agent.Recommend for every state and
// every instance of the day — action, backing Q value (exact bits), and
// the non-degraded flag must match.
func assertGolden(t *testing.T, e *env.Environment, a *rl.Agent, p *compiled.Policy, n int) {
	t.Helper()
	for sk := uint64(0); sk < e.NumStateCombinations(); sk++ {
		s := e.DecodeState(sk)
		for tt := 0; tt < n; tt++ {
			d, ok := p.Lookup(s, tt)
			if !ok {
				t.Fatalf("state %d t %d: no compiled entry", sk, tt)
			}
			want := a.Recommend(s, tt)
			wantV := a.LastValue()
			if e.ActionKey(d.Action) != e.ActionKey(want) {
				t.Fatalf("state %d t %d: compiled %v, agent %v", sk, tt, d.Action, want)
			}
			if math.Float64bits(d.Value) != math.Float64bits(wantV) {
				t.Fatalf("state %d t %d: compiled value %v, agent %v", sk, tt, d.Value, wantV)
			}
			if d.Degraded {
				t.Fatalf("state %d t %d: unexpectedly degraded", sk, tt)
			}
		}
	}
}

// TestGoldenTabular pins compiled decisions bit-identical to the agent for
// the bucketed tabular backend over the full state×day product, including
// states the training never visited (they default to the provable
// zero-row NoOp).
func TestGoldenTabular(t *testing.T) {
	e := testEnv(t)
	const n, buckets = 48, 8
	sim := testSim(t, e, n)
	a := trainedAgent(t, sim, rl.NewTableQ(e, n, buckets, 0.25), 11)
	p, err := compiled.Compile(e, a, n, compiled.Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if p.Buckets() != buckets {
		t.Fatalf("Buckets = %d, want %d", p.Buckets(), buckets)
	}
	if p.Entries() != int(e.NumStateCombinations())*buckets {
		t.Fatalf("Entries = %d", p.Entries())
	}
	assertGolden(t, e, a, p, n)
}

// TestGoldenDQN pins the per-minute compile for the network backend: no
// time bucketing, so every instance gets its own entry and the compiled
// table must reproduce the exact-minute forward passes bit for bit.
func TestGoldenDQN(t *testing.T) {
	e := testEnv(t)
	const n = 24
	sim := testSim(t, e, n)
	rng := rand.New(rand.NewSource(3))
	dqn, err := rl.NewDQN(e, n, rl.DQNConfig{Hidden: []int{16}}, rng)
	if err != nil {
		t.Fatalf("NewDQN: %v", err)
	}
	a := trainedAgent(t, sim, dqn, 12)
	p, err := compiled.Compile(e, a, n, compiled.Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if p.Buckets() != n {
		t.Fatalf("Buckets = %d, want per-minute %d", p.Buckets(), n)
	}
	assertGolden(t, e, a, p, n)
}

// denyEnv wraps a SimEnv, vetoing one device action on top of its safety
// predicate — a stand-in for a P_safe table that never whitelisted the
// transition.
type denyEnv struct {
	*rl.SimEnv
	dev int
	act device.ActionID
}

func (d *denyEnv) Safe(st env.State, a env.Action) bool {
	if a[d.dev] == d.act {
		return false
	}
	return d.SimEnv.Safe(st, a)
}

// TestGoldenSafetyDenial crafts a Q table whose top-ranked mini-action is
// denied by the safety predicate: the live composition skips to the next
// candidate, and the compiled table must pin exactly that skip.
func TestGoldenSafetyDenial(t *testing.T) {
	e := testEnv(t)
	const n = 8
	sim := testSim(t, e, n)
	q := rl.NewTableQ(e, n, 1, 1) // alpha 1: one update writes the target
	minis := rl.NewMiniActions(e)
	denied, err := minis.Encode(2, 1) // device c: power_on
	if err != nil {
		t.Fatal(err)
	}
	runnerUp, err := minis.Encode(0, 1) // device a: power_on
	if err != nil {
		t.Fatal(err)
	}
	s0 := env.State{0, 0, 0}
	if _, err := q.Update(
		[]rl.Experience{{S: s0, T: 0, Minis: []int{denied}}, {S: s0, T: 0, Minis: []int{runnerUp}}},
		[]float64{9, 5},
	); err != nil {
		t.Fatal(err)
	}
	den := &denyEnv{SimEnv: sim, dev: 2, act: 1}
	a, err := rl.NewAgent(den, q, rl.AgentConfig{Rng: rand.New(rand.NewSource(4))})
	if err != nil {
		t.Fatal(err)
	}
	live := a.Recommend(s0, 0)
	if live[2] == 1 {
		t.Fatalf("denied action served live: %v", live)
	}
	if live[0] != 1 {
		t.Fatalf("runner-up not composed: %v", live)
	}
	p, err := compiled.Compile(e, a, n, compiled.Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	assertGolden(t, e, a, p, n)
}

// allowAll wraps a SimEnv to admit every composition, including
// FSM-invalid ones — the regime where the serving path's transition guard
// (degraded NoOp fallback) is reachable.
type allowAll struct{ *rl.SimEnv }

func (allowAll) Safe(env.State, env.Action) bool { return true }

// TestCompileDegradedEntry forces the compiler through the FSM guard: the
// top-ranked action is invalid in the keyed state, so the compiled entry
// must carry the degraded NoOp with value 0 — exactly the serving
// fallback.
func TestCompileDegradedEntry(t *testing.T) {
	e := testEnv(t)
	const n = 4
	sim := testSim(t, e, n)
	q := rl.NewTableQ(e, n, 1, 1)
	minis := rl.NewMiniActions(e)
	on, err := minis.Encode(2, 1) // device c: power_on — invalid when c is already on
	if err != nil {
		t.Fatal(err)
	}
	s := env.State{0, 0, 1}
	if _, err := q.Update([]rl.Experience{{S: s, T: 0, Minis: []int{on}}}, []float64{7}); err != nil {
		t.Fatal(err)
	}
	a, err := rl.NewAgent(allowAll{sim}, q, rl.AgentConfig{Rng: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	p, err := compiled.Compile(e, a, n, compiled.Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	d, ok := p.Lookup(s, 0)
	if !ok {
		t.Fatal("no compiled entry")
	}
	if !d.Degraded || d.Value != 0 {
		t.Fatalf("Decision = %+v, want degraded NoOp", d)
	}
	for _, ai := range d.Action {
		if ai != device.NoAction {
			t.Fatalf("degraded entry carries %v, want NoOp", d.Action)
		}
	}
}

// TestCompileTooLarge rejects oversized products and permanently disables
// the cache — the graceful fallback to the live path.
func TestCompileTooLarge(t *testing.T) {
	e := testEnv(t)
	const n = 8
	sim := testSim(t, e, n)
	a := trainedAgent(t, sim, rl.NewTableQ(e, n, 4, 0.25), 6)
	if _, err := compiled.Compile(e, a, n, compiled.Options{MaxEntries: 8}); !errors.Is(err, compiled.ErrTooLarge) {
		t.Fatalf("Compile err = %v, want ErrTooLarge", err)
	}
	var mu sync.Mutex
	c := compiled.NewCache(&mu, func() (*compiled.Policy, error) {
		return compiled.Compile(e, a, n, compiled.Options{MaxEntries: 8})
	})
	if err := c.RebuildNow(); !errors.Is(err, compiled.ErrTooLarge) {
		t.Fatalf("RebuildNow err = %v, want ErrTooLarge", err)
	}
	if !c.Disabled() {
		t.Fatal("cache not disabled after ErrTooLarge")
	}
	mu.Lock()
	c.Invalidate() // must not schedule another build
	mu.Unlock()
	c.Wait()
	if st := c.Stats(); !st.Disabled || st.Ready || st.LastError == "" {
		t.Fatalf("Stats = %+v", st)
	}
}

// TestCompileRefusesNonFinite: a poisoned Q row makes the whole compile
// refuse, leaving the degraded machinery of the live path in charge.
func TestCompileRefusesNonFinite(t *testing.T) {
	e := testEnv(t)
	const n = 4
	sim := testSim(t, e, n)
	q := rl.NewTableQ(e, n, 1, 1)
	if _, err := q.Update(
		[]rl.Experience{{S: env.State{0, 0, 0}, T: 0, Minis: []int{1}}},
		[]float64{math.NaN()},
	); err != nil {
		t.Fatal(err)
	}
	a, err := rl.NewAgent(sim, q, rl.AgentConfig{Rng: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compiled.Compile(e, a, n, compiled.Options{}); !errors.Is(err, compiled.ErrUncompilable) {
		t.Fatalf("Compile err = %v, want ErrUncompilable", err)
	}
}

// TestCacheInvalidateRebuilds exercises the dirty→rebuild→swap lifecycle:
// a mutation invalidates (readers immediately lose the table), the
// asynchronous rebuild swaps a fresh one in, and the new table reflects
// the mutated Q values.
func TestCacheInvalidateRebuilds(t *testing.T) {
	e := testEnv(t)
	const n = 8
	sim := testSim(t, e, n)
	q := rl.NewTableQ(e, n, 1, 1)
	a, err := rl.NewAgent(sim, q, rl.AgentConfig{Rng: rand.New(rand.NewSource(8))})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	c := compiled.NewCache(&mu, func() (*compiled.Policy, error) {
		return compiled.Compile(e, a, n, compiled.Options{})
	})
	if err := c.RebuildNow(); err != nil {
		t.Fatalf("RebuildNow: %v", err)
	}
	s0 := env.State{0, 0, 0}
	if d, ok := c.Policy().Lookup(s0, 0); !ok || d.Value != 0 {
		t.Fatalf("fresh table: %+v ok=%t", d, ok)
	}

	minis := rl.NewMiniActions(e)
	idx, err := minis.Encode(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if _, err := q.Update([]rl.Experience{{S: s0, T: 0, Minis: []int{idx}}}, []float64{3}); err != nil {
		mu.Unlock()
		t.Fatal(err)
	}
	c.Invalidate()
	if c.Policy() != nil {
		mu.Unlock()
		t.Fatal("stale table still visible after Invalidate")
	}
	mu.Unlock()
	c.Wait()

	p := c.Policy()
	if p == nil {
		t.Fatal("no table after rebuild")
	}
	d, ok := p.Lookup(s0, 0)
	if !ok || d.Value != 3 || d.Action[0] != 1 {
		t.Fatalf("rebuilt table: %+v ok=%t, want device a on with value 3", d, ok)
	}
	if st := c.Stats(); st.Rebuilds < 2 || !st.Ready {
		t.Fatalf("Stats = %+v, want ≥2 rebuilds and ready", st)
	}
}

// TestCacheCoalescesAndSurvivesConcurrency hammers lookups from reader
// goroutines while the writer mutates and invalidates under the lock —
// the -race build of this test is the cache's memory-model proof.
func TestCacheCoalescesAndSurvivesConcurrency(t *testing.T) {
	e := testEnv(t)
	const n = 8
	sim := testSim(t, e, n)
	q := rl.NewTableQ(e, n, 1, 1)
	a, err := rl.NewAgent(sim, q, rl.AgentConfig{Rng: rand.New(rand.NewSource(9))})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	c := compiled.NewCache(&mu, func() (*compiled.Policy, error) {
		return compiled.Compile(e, a, n, compiled.Options{})
	})
	if err := c.RebuildNow(); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	s0 := env.State{0, 0, 0}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if p := c.Policy(); p != nil {
					p.Lookup(s0, 3)
				}
			}
		}()
	}
	minis := rl.NewMiniActions(e)
	idx, err := minis.Encode(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		mu.Lock()
		if _, err := q.Update([]rl.Experience{{S: s0, T: 0, Minis: []int{idx}}}, []float64{float64(i)}); err != nil {
			mu.Unlock()
			t.Fatal(err)
		}
		c.Invalidate()
		mu.Unlock()
	}
	c.Wait()
	close(stop)
	wg.Wait()
	p := c.Policy()
	if p == nil {
		t.Fatal("no table after invalidation storm")
	}
	if d, ok := p.Lookup(s0, 0); !ok || d.Value != 49 {
		t.Fatalf("final table: %+v ok=%t, want value 49", d, ok)
	}
	st := c.Stats()
	if st.Rebuilds == 0 || st.Rebuilds > 51 {
		t.Fatalf("Rebuilds = %d", st.Rebuilds)
	}
}

// TestLookupAllocationFree pins the steady-state hot path: one state-key
// encode plus a bounds-checked array load, zero allocations.
func TestLookupAllocationFree(t *testing.T) {
	e := testEnv(t)
	const n = 48
	sim := testSim(t, e, n)
	a := trainedAgent(t, sim, rl.NewTableQ(e, n, 8, 0.25), 10)
	p, err := compiled.Compile(e, a, n, compiled.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := env.State{1, 0, 1}
	var sink float64
	allocs := testing.AllocsPerRun(1000, func() {
		d, ok := p.Lookup(s, 17)
		if !ok {
			t.Fatal("lookup miss")
		}
		sink += d.Value
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocates %.1f objects per call, want 0", allocs)
	}
	_ = sink
}

// TestCompileFootprint compiles the daemon's default tabular full-home
// policy (seed 1, 7 learning days, 60 episodes), where only a few hundred
// of the 2.5M state×bucket cells hold a non-default decision. One compile
// must allocate under 128 KiB in under 100 objects: the table is sized by
// the states the agent learned, not by the product, its per-state index
// is a bitmap, each learned cell owns one palette entry, and evaluating a
// cell allocates only for an action no earlier entry holds. Lookup must reproduce
// Agent.CompileDecision plus the FSM fallback bit for bit on every bucket
// of every state with a Q row, and of a sample of the other states that
// includes key 0 and the highest key.
func TestCompileFootprint(t *testing.T) {
	a, err := replay.Build(replay.Config{Seed: 1})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := a.Train(); err != nil {
		t.Fatalf("Train: %v", err)
	}
	e, agent, n := a.Home.Env, a.Sys.Agent(), smarthome.InstancesPerDay
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := compiled.Compile(e, agent, n, compiled.Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	states := e.NumStateCombinations()
	buckets := p.Buckets()
	if p.Entries() != int(states)*buckets {
		t.Fatalf("Entries = %d, want %d states × %d buckets", p.Entries(), states, buckets)
	}
	alloc, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	if alloc >= 128<<10 || objects >= 100 {
		t.Fatalf("one Compile allocates %.1f KiB in %d objects (%d of %d cells populated), want < 128 KiB in < 100",
			float64(alloc)/(1<<10), objects, p.Populated(), p.Entries())
	}
	t.Logf("one Compile allocates %.1f KiB in %d objects; %d of %d cells populated",
		float64(alloc)/(1<<10), objects, p.Populated(), p.Entries())

	keys := map[uint64]bool{0: true, states - 1: true}
	agent.Q().(rl.RowIterator).Rows(func(sk uint64, _ int) { keys[sk] = true })
	for sk := uint64(0); sk < states; sk += 1009 {
		keys[sk] = true
	}
	scratch := make(env.State, e.K())
	for sk := range keys {
		s := e.DecodeState(sk)
		for b := 0; b < buckets; b++ {
			first := (b*n + buckets - 1) / buckets
			last := ((b+1)*n+buckets-1)/buckets - 1
			act, val, ok := agent.CompileDecision(nil, s, first)
			if !ok {
				t.Fatalf("state %d bucket %d: uncompilable Q", sk, b)
			}
			degraded := !e.TransitionOK(scratch, s, act)
			if degraded {
				act, val = env.NoOp(e.K()), 0
			}
			for _, tt := range []int{first, last} {
				d, ok := p.Lookup(s, tt)
				if !ok {
					t.Fatalf("state %d t %d: no compiled entry", sk, tt)
				}
				if e.ActionKey(d.Action) != e.ActionKey(act) ||
					math.Float64bits(d.Value) != math.Float64bits(val) || d.Degraded != degraded {
					t.Fatalf("state %d t %d: compiled %v %v degraded=%t, agent %v %v degraded=%t",
						sk, tt, d.Action, d.Value, d.Degraded, act, val, degraded)
				}
			}
		}
	}
}
