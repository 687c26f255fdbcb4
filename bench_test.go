// Benchmark harness: one testing.B benchmark per evaluation table and
// figure of the paper (reduced scale; run `cmd/jarvis <name>` for the
// paper-scale regeneration), the ablation benches DESIGN.md calls out, and
// micro-benchmarks of the hot substrate paths.
package jarvis_test

import (
	"math/rand"
	"testing"
	"time"

	"jarvis/internal/anomaly"
	"jarvis/internal/attack"
	"jarvis/internal/dataset"
	"jarvis/internal/env"
	"jarvis/internal/experiment"
	"jarvis/internal/nn"
	"jarvis/internal/policy"
	"jarvis/internal/replay"
	"jarvis/internal/reward"
	"jarvis/internal/rl"
	"jarvis/internal/smarthome"
	"jarvis/internal/smartoffice"
)

// --- Tables and figures -------------------------------------------------

func BenchmarkTable1FSM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.Table1()
		if len(res.Rows) != 5 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkTable2SafePolicyLearning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Table2(experiment.Table2Config{Seed: int64(i), LearningDays: 3})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 6 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkTable3ActionQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Table3(experiment.Table3Config{Seed: int64(i), LearningDays: 5})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 8 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkSecurityDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Security(experiment.SecurityConfig{
			Seed: int64(i), LearningDays: 3, EpisodesPerViolation: 1, BaseDays: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Episodes != 214 {
			b.Fatal("bad corpus")
		}
	}
}

func BenchmarkFig5ROC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.ROC(experiment.ROCConfig{
			Seed: int64(i), LearningDays: 2,
			TrainAnomalies: 300, TrainNormals: 300,
			EvalEpisodes: 60, FilterEpochs: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Evaluated == 0 {
			b.Fatal("nothing evaluated")
		}
	}
}

func benchFunctionality(b *testing.B, m experiment.Metric) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiment.Functionality(experiment.FunctionalityConfig{
			Seed: int64(i), LearningDays: 3, Metric: m,
			Weights: []float64{0.5}, Days: 1, Episodes: 30, Restarts: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Jarvis) != 1 {
			b.Fatal("bad series")
		}
	}
}

func BenchmarkFig6EnergyConservation(b *testing.B) { benchFunctionality(b, experiment.MetricEnergy) }
func BenchmarkFig7CostMinimization(b *testing.B)   { benchFunctionality(b, experiment.MetricCost) }
func BenchmarkFig8TemperatureOptimization(b *testing.B) {
	benchFunctionality(b, experiment.MetricComfort)
}

func BenchmarkFig9BenefitSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.BenefitSpace(experiment.BenefitSpaceConfig{
			Seed: int64(i), LearningDays: 3, Episodes: 15,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.ConstrainedRewards) != 15 {
			b.Fatal("bad series")
		}
	}
}

// --- Ablations (DESIGN.md §4) --------------------------------------------

// benchLab builds a small shared lab once per benchmark.
func benchLab(b *testing.B, days int) (*smarthome.FullHome, []*dataset.Day) {
	b.Helper()
	home := smarthome.NewFullHome()
	gen := dataset.NewGenerator(home, dataset.HomeAConfig())
	ds, err := gen.Days(time.Date(2020, 9, 7, 0, 0, 0, 0, time.UTC), days, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return home, ds
}

// trainAgent runs a small constrained training loop with the given Q
// backend and replay cadence.
func trainAgent(b *testing.B, home *smarthome.FullHome, days []*dataset.Day, useDNN bool, replayEvery int, lossGate float64) {
	b.Helper()
	e := home.Env
	eps := dataset.Episodes(days)
	spl := policy.NewLearner(e, policy.Config{AllowIdle: true})
	spl.ObserveAll(eps)
	table := spl.Table()
	table.AllowManual(home.Thermostat, smarthome.ThermostatActOff)

	rs, err := reward.New(e, reward.Config{
		Functionalities: smarthome.Functionalities(
			e, home.TempSensor, home.Thermostat, days[0].Context.Prices, 0.6, 0.2, 0.2),
		Preferred: reward.LearnPreferredTimes(e, eps),
		Instances: smarthome.InstancesPerDay,
	})
	if err != nil {
		b.Fatal(err)
	}
	sim, err := rl.NewSimEnv(e, rl.SimConfig{Initial: home.InitialState(), Reward: rs, Safe: table})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var q rl.QFunc
	if useDNN {
		dqn, err := rl.NewDQN(e, smarthome.InstancesPerDay, rl.DQNConfig{Hidden: []int{32}}, rng)
		if err != nil {
			b.Fatal(err)
		}
		q = dqn
	} else {
		q = rl.NewTableQ(e, smarthome.InstancesPerDay, 24, 0.25)
	}
	agent, err := rl.NewAgent(sim, q, rl.AgentConfig{
		Episodes: 4, DecideEvery: 30, ReplayEvery: replayEvery,
		PreferableLoss: lossGate,
		Rng:            rng,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := agent.Train(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAblationTabularQ vs BenchmarkAblationDNNQ: the practical
// deep-learning design of §V-A7 (mini-action DQN head) against the exact
// tabular fallback.
func BenchmarkAblationTabularQ(b *testing.B) {
	home, days := benchLab(b, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainAgent(b, home, days, false, 4, 0)
	}
}

func BenchmarkAblationDNNQ(b *testing.B) {
	home, days := benchLab(b, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainAgent(b, home, days, true, 4, 0)
	}
}

// BenchmarkAblationReplayEvery1 vs 16: the cost of the paper's
// replay-each-step learning versus a throttled cadence.
func BenchmarkAblationReplayEvery1(b *testing.B) {
	home, days := benchLab(b, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainAgent(b, home, days, false, 1, 0)
	}
}

func BenchmarkAblationReplayEvery16(b *testing.B) {
	home, days := benchLab(b, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainAgent(b, home, days, false, 16, 0)
	}
}

// BenchmarkAblationEpsilonDecayGated: Algorithm 2's loss-gated ε decay
// (decay only when loss ≤ L_p) vs always-decay.
func BenchmarkAblationEpsilonDecayGated(b *testing.B) {
	home, days := benchLab(b, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainAgent(b, home, days, false, 4, 0.05) // gate on small loss
	}
}

// BenchmarkAblationFilterOn vs Off: Algorithm 1 with and without the ANN
// benign-anomaly pre-filter.
func BenchmarkAblationFilterOff(b *testing.B) {
	home, days := benchLab(b, 3)
	eps := dataset.Episodes(days)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spl := policy.NewLearner(home.Env, policy.Config{AllowIdle: true})
		spl.ObserveAll(eps)
		if spl.Table().Len() == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkAblationFilterOn(b *testing.B) {
	home, days := benchLab(b, 3)
	eps := dataset.Episodes(days)
	rng := rand.New(rand.NewSource(3))
	filter, err := anomaly.NewFilter(home.Env, anomaly.Config{Hidden: 16}, rng)
	if err != nil {
		b.Fatal(err)
	}
	anoms, err := dataset.SynthesizeAnomalies(home, days, 200, rng)
	if err != nil {
		b.Fatal(err)
	}
	normals, err := dataset.NormalSamples(days, 200, rng)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := filter.Train(append(anoms, normals...), anomaly.Config{Epochs: 5}, rng); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spl := policy.NewLearner(home.Env, policy.Config{AllowIdle: true, Filter: filter})
		spl.ObserveAll(eps)
		if spl.Table().Len() == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- Substrate micro-benchmarks ------------------------------------------

func BenchmarkEnvTransition(b *testing.B) {
	home, _ := benchLab(b, 1)
	s := home.InitialState()
	a := env.NoOp(home.Env.K())
	a[home.LivingLight] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := home.Env.Transition(s, a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStateKeyRoundTrip(b *testing.B) {
	home, _ := benchLab(b, 1)
	s := home.InitialState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := home.Env.StateKey(s)
		s2 := home.Env.DecodeState(key)
		if len(s2) != len(s) {
			b.Fatal("bad decode")
		}
	}
}

func BenchmarkNNForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := nn.MustNew(nn.Config{Inputs: 40, Layers: []nn.LayerSpec{
		{Units: 64, Act: nn.ReLU}, {Units: 64, Act: nn.ReLU}, {Units: 42, Act: nn.Linear},
	}}, rng)
	x := make([]float64, 40)
	for i := range x {
		x[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := net.Forward(x); len(out) != 42 {
			b.Fatal("bad forward")
		}
	}
}

func BenchmarkNNTrainBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := nn.MustNew(nn.Config{Inputs: 40, Layers: []nn.LayerSpec{
		{Units: 64, Act: nn.ReLU}, {Units: 42, Act: nn.Linear},
	}}, rng)
	batch := make([]nn.Sample, 32)
	for i := range batch {
		x := make([]float64, 40)
		y := make([]float64, 42)
		for j := range x {
			x[j] = rng.Float64()
		}
		batch[i] = nn.Sample{X: x, Y: y}
	}
	opt := nn.NewAdam(0.001)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.TrainBatch(batch, nn.Huber, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterScore(b *testing.B) {
	home, days := benchLab(b, 1)
	rng := rand.New(rand.NewSource(1))
	filter, err := anomaly.NewFilter(home.Env, anomaly.Config{}, rng)
	if err != nil {
		b.Fatal(err)
	}
	tr := env.Transition{
		From: days[0].Episode.States[0],
		Act:  env.NoOp(home.Env.K()),
		To:   days[0].Episode.States[1],
		At:   days[0].Episode.Start,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		filter.Score(tr)
	}
}

func BenchmarkSPLObserveDay(b *testing.B) {
	home, days := benchLab(b, 1)
	ep := days[0].Episode
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spl := policy.NewLearner(home.Env, policy.Config{AllowIdle: true})
		spl.Observe(ep)
	}
}

func BenchmarkPolicyTableLookup(b *testing.B) {
	home, days := benchLab(b, 2)
	spl := policy.NewLearner(home.Env, policy.Config{AllowIdle: true})
	spl.ObserveAll(dataset.Episodes(days))
	table := spl.Table()
	key := home.Env.StateKey(home.InitialState())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.Safe(key, key+1)
	}
}

func BenchmarkGeneratorDay(b *testing.B) {
	home := smarthome.NewFullHome()
	gen := dataset.NewGenerator(home, dataset.HomeAConfig())
	rng := rand.New(rand.NewSource(1))
	s0 := home.InitialState()
	start := time.Date(2020, 9, 7, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := gen.Day(start, s0, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAttackInject(b *testing.B) {
	home, days := benchLab(b, 1)
	rng := rand.New(rand.NewSource(1))
	corpus := attack.Corpus(home)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := corpus[i%len(corpus)]
		if !v.TransitionBased() {
			continue
		}
		if _, _, _, err := attack.Inject(home.Env, days[0].Episode, v, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Batched-core micro-benchmarks ---------------------------------------
//
// The allocation-free contracts below are load-bearing: the batched kernels
// must stay zero-alloc in steady state, so each benchmark asserts it before
// timing.

func BenchmarkForwardBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := nn.MustNew(nn.Config{Inputs: 40, Layers: []nn.LayerSpec{
		{Units: 64, Act: nn.ReLU}, {Units: 64, Act: nn.ReLU}, {Units: 42, Act: nn.Linear},
	}}, rng)
	xs := make([][]float64, 32)
	for i := range xs {
		xs[i] = make([]float64, 40)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()
		}
	}
	if _, err := net.ForwardBatch(xs); err != nil { // warm the arena
		b.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := net.ForwardBatch(xs); err != nil {
			b.Fatal(err)
		}
	}); allocs != 0 {
		b.Fatalf("ForwardBatch steady state allocates %.1f objects per call, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := net.ForwardBatch(xs)
		if err != nil || len(out) != 32 {
			b.Fatal("bad batch forward")
		}
	}
}

func BenchmarkTrainBatch64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := nn.MustNew(nn.Config{Inputs: 40, Layers: []nn.LayerSpec{
		{Units: 64, Act: nn.ReLU}, {Units: 64, Act: nn.ReLU}, {Units: 42, Act: nn.Linear},
	}}, rng)
	batch := make([]nn.Sample, 64)
	for i := range batch {
		x := make([]float64, 40)
		y := make([]float64, 42)
		for j := range x {
			x[j] = rng.Float64()
		}
		batch[i] = nn.Sample{X: x, Y: y}
	}
	opt := nn.NewAdam(0.001)
	for i := 0; i < 3; i++ { // warm the arena and Adam state
		if _, err := net.TrainBatch(batch, nn.Huber, opt); err != nil {
			b.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := net.TrainBatch(batch, nn.Huber, opt); err != nil {
			b.Fatal(err)
		}
	}); allocs != 0 {
		b.Fatalf("TrainBatch steady state allocates %.1f objects per call, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.TrainBatch(batch, nn.Huber, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDQNLearnStep times one online deep-Q learn step at the
// daemon's -dnn shape: the full home's 36 features through two 64-unit
// ReLU layers to 42 mini-actions, a 32-experience batch sampled from the
// replay buffer training left behind, every successor's safe actions
// probed against the learned P_safe, and each step's RNG seeded to draw
// what rl.StepRNG draws for that step (reseeding one source instead of
// allocating one, so the allocation assertion sees only the step).
func BenchmarkDQNLearnStep(b *testing.B) {
	a, err := replay.Build(replay.Config{Seed: 1, LearningDays: 2, Episodes: 2, UseDNN: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := a.Train(); err != nil {
		b.Fatal(err)
	}
	dqn, ok := a.Sys.Agent().Q().(*rl.DQN)
	if !ok || dqn.Net().Inputs() != 36 || dqn.Net().Outputs() != 42 {
		b.Fatalf("Q backend %T is not the 36→…→42 DQN", a.Sys.Agent().Q())
	}
	rng := rand.New(rand.NewSource(0))
	n := 0
	step := func() {
		n++
		rng.Seed(rl.StepSeed(1, uint64(n)))
		if ran, err := a.Sys.LearnOnline(rng); err != nil || !ran {
			b.Fatalf("learn step %d: ran %v, err %v", n, ran, err)
		}
	}
	for i := 0; i < 8; i++ { // warm the batch, target and arena buffers
		step()
	}
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		b.Fatalf("learn step allocates %.1f objects per call, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func BenchmarkReplaySampleInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	r := rl.NewReplay(4096)
	for i := 0; i < 4096; i++ {
		r.Add(rl.Experience{T: i})
	}
	dst := make([]rl.Experience, 0, 64)
	dst = r.SampleInto(dst, 64, rng) // warm the index buffer
	if allocs := testing.AllocsPerRun(20, func() {
		dst = r.SampleInto(dst, 64, rng)
	}); allocs != 0 {
		b.Fatalf("SampleInto steady state allocates %.1f objects per call, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = r.SampleInto(dst, 64, rng)
		if len(dst) != 64 {
			b.Fatal("bad sample")
		}
	}
}

// BenchmarkOfficePipeline: the context-independence instantiation — a full
// learn-and-flag cycle on the smart office.
func BenchmarkOfficePipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		office := smartoffice.New()
		rng := rand.New(rand.NewSource(int64(i)))
		eps, err := office.Workdays(time.Date(2020, 9, 7, 0, 0, 0, 0, time.UTC), 3,
			smartoffice.DefaultWorkday(), rng)
		if err != nil {
			b.Fatal(err)
		}
		spl := policy.NewLearner(office.Env, policy.Config{AllowIdle: true})
		spl.ObserveAll(eps)
		if spl.Table().Len() == 0 {
			b.Fatal("empty table")
		}
	}
}
