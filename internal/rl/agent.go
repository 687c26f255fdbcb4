package rl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"jarvis/internal/device"
	"jarvis/internal/env"
	"jarvis/internal/nn"
)

// AgentConfig parameterizes Algorithm 2.
type AgentConfig struct {
	// Episodes is EP, the number of training episodes.
	Episodes int
	// Epsilon, EpsilonMin and EpsilonDecay control ε-greedy exploration.
	// Defaults: 1.0 / 0.05 / 0.995.
	Epsilon, EpsilonMin, EpsilonDecay float64
	// Gamma is the discount factor γ (default 0.95).
	Gamma float64
	// BatchSize is BSize, the replay mini-batch (default 32).
	BatchSize int
	// PreferableLoss is L_p: ε decays only while the replay loss is at or
	// below it (default +Inf, i.e. always decay).
	PreferableLoss float64
	// ReplayCapacity bounds the experience buffer (default 10000).
	ReplayCapacity int
	// ReplayEvery runs the replay/learning step once per this many agent
	// steps (default 1). Larger values trade learning speed for wall
	// clock on long episodes.
	ReplayEvery int
	// MaxMiniActions caps the mini-actions composed per interval
	// (default k, one per device).
	MaxMiniActions int
	// Actionable, when non-nil, restricts the agent to devices it may
	// operate (sensors and user-owned devices are environment-driven).
	Actionable func(dev int) bool
	// DecideEvery makes the agent take one decision per this many time
	// instances, idling in between (default 1). Rewards accrued over the
	// whole decision window back the experience — a semi-MDP view that
	// keeps long fine-grained episodes learnable.
	DecideEvery int
	// DoubleDQN selects the bootstrap action with the online Q values and
	// evaluates it with the target values (van Hasselt et al.), reducing
	// maximization bias. Only meaningful with the DQN backend.
	DoubleDQN bool
	// Rng drives exploration and replay sampling; required.
	Rng *rand.Rand
}

func (c AgentConfig) withDefaults(k int) AgentConfig {
	if c.Episodes <= 0 {
		c.Episodes = 50
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 1
	}
	if c.EpsilonMin <= 0 {
		c.EpsilonMin = 0.05
	}
	if c.EpsilonDecay <= 0 {
		c.EpsilonDecay = 0.995
	}
	if c.Gamma <= 0 {
		c.Gamma = 0.95
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.PreferableLoss <= 0 {
		c.PreferableLoss = math.Inf(1)
	}
	if c.ReplayCapacity <= 0 {
		c.ReplayCapacity = 10000
	}
	if c.ReplayEvery <= 0 {
		c.ReplayEvery = 1
	}
	if c.DecideEvery <= 0 {
		c.DecideEvery = 1
	}
	if c.MaxMiniActions <= 0 || c.MaxMiniActions > k {
		c.MaxMiniActions = k
	}
	return c
}

// TrainStats summarizes a training run.
type TrainStats struct {
	// EpisodeRewards holds the cumulative reward of each training episode.
	EpisodeRewards []float64
	// FinalEpsilon is ε after the run.
	FinalEpsilon float64
	// FinalLoss is the last replay loss observed.
	FinalLoss float64
	// Violations counts unsafe transitions taken during training (nonzero
	// only for unconstrained/audited environments).
	Violations int
	// EpisodeViolations is the per-episode breakdown of Violations.
	EpisodeViolations []int
}

// Agent is the constrained ε-greedy Q-learning agent of Algorithm 2.
type Agent struct {
	sim      SafeEnv
	q        QFunc
	minis    *MiniActions
	cfg      AgentConfig
	replay   *Replay
	eps      float64
	loss     float64
	degraded int
	// lastValue is the Q value backing the most recent Greedy composition
	// (the top accepted mini-action's value, or the NoOp value when the
	// composite is empty; 0 on a degraded fallback). Decision audit logs
	// read it through LastValue.
	lastValue float64
	// wd, when attached, watches greedy evaluations and replay losses for
	// divergence and rolls the Q function back to a valid checkpoint
	// generation instead of letting the agent degrade permanently.
	wd *Watchdog

	// Reused replay-step buffers: the sampled mini-batch, its bootstrap
	// targets, the non-terminal successors gathered for one batched Q pass,
	// and scratch for candidate actions and double-DQN online scores. A warm
	// replay step allocates nothing beyond what the Q backend itself needs.
	batch      []Experience
	targets    []float64
	nextS      []env.State
	nextT      []int
	actScratch env.Action
	onlineQ    []float64
	order      []int
}

// NewAgent wires an agent to a simulated environment and a Q function.
func NewAgent(sim SafeEnv, q QFunc, cfg AgentConfig) (*Agent, error) {
	if sim == nil || q == nil {
		return nil, errors.New("rl: nil environment or Q function")
	}
	if cfg.Rng == nil {
		return nil, errors.New("rl: AgentConfig.Rng is required")
	}
	cfg = cfg.withDefaults(sim.Env().K())
	return &Agent{
		sim:        sim,
		q:          q,
		minis:      NewMiniActions(sim.Env()),
		cfg:        cfg,
		replay:     NewReplay(cfg.ReplayCapacity),
		eps:        cfg.Epsilon,
		loss:       math.Inf(1),
		batch:      make([]Experience, 0, cfg.BatchSize),
		targets:    make([]float64, cfg.BatchSize),
		nextS:      make([]env.State, 0, cfg.BatchSize),
		nextT:      make([]int, 0, cfg.BatchSize),
		actScratch: make(env.Action, sim.Env().K()),
	}, nil
}

// Epsilon returns the current exploration rate.
func (a *Agent) Epsilon() float64 { return a.eps }

// SetEpsilon overrides the exploration rate, clamped to [EpsilonMin, 1].
// The watchdog uses it to re-seed exploration after a rollback.
func (a *Agent) SetEpsilon(eps float64) {
	if eps < a.cfg.EpsilonMin {
		eps = a.cfg.EpsilonMin
	}
	if eps > 1 {
		eps = 1
	}
	a.eps = eps
	mEpsilon.Set(a.eps)
}

// Loss returns the most recent replay loss (+Inf before the first replay
// step and after a watchdog rollback).
func (a *Agent) Loss() float64 { return a.loss }

// ReplayBuffer exposes the agent's experience buffer for persistence.
func (a *Agent) ReplayBuffer() *Replay { return a.replay }

// Degraded returns how many greedy decisions fell back to the safe NoOp
// because the Q function produced non-finite values.
func (a *Agent) Degraded() int { return a.degraded }

// Q exposes the agent's Q function (for persistence).
func (a *Agent) Q() QFunc { return a.q }

// DecideEvery returns the agent's decision interval in time instances.
func (a *Agent) DecideEvery() int { return a.cfg.DecideEvery }

// Greedy composes the highest-quality safe composite action for (s, t):
// mini-actions are ranked by Q value and accepted greedily while each
// intermediate composite stays FSM-valid and safe, mirroring the
// exploitation loop's Max(Q[S_curr], c) fallback through the c-th best
// action.
func (a *Agent) Greedy(s env.State, t int) env.Action {
	q := a.q.Q(s, t)
	maxAbs, finite := scanQ(q)
	if !finite && a.wd != nil && a.wd.healNonFinite("non-finite Q values in greedy evaluation") {
		// The watchdog rolled the Q function back to a valid generation;
		// retry once against the healed policy before degrading.
		q = a.q.Q(s, t)
		maxAbs, finite = scanQ(q)
	}
	// Degraded mode: a diverged Q function (NaN/Inf values) yields no
	// trustworthy ranking, so recommend the always-available safe NoOp
	// rather than acting on garbage.
	if !finite {
		a.degraded++
		a.lastValue = 0
		mDegraded.Inc()
		return env.NoOp(len(s))
	}
	if a.wd != nil && a.wd.observeQMax(maxAbs) {
		// A runaway-magnitude trip: the values are finite but likely
		// garbage. Rank against the (possibly rolled-back) policy's fresh
		// values instead.
		if fresh := a.q.Q(s, t); finiteQ(fresh) {
			q = fresh
		}
	}
	act, best := a.composeGreedy(nil, s, q)
	a.lastValue = best
	mGreedy.Inc()
	return act
}

// composeGreedy ranks the mini-action values in q and greedily accepts
// safe, actionable minis into act, reset to the NoOp (grown to len(s), so
// nil composes into a fresh composite) — the shared back half of Greedy
// and CompileDecision. It returns the composite and the Q value of the
// highest-ranked accepted mini (the NoOp value when none is accepted). The
// caller must have established that q is finite.
func (a *Agent) composeGreedy(act env.Action, s env.State, q []float64) (env.Action, float64) {
	if cap(a.order) < len(q) {
		a.order = make([]int, len(q))
	}
	order := a.order[:len(q)]
	for i := range order {
		order[i] = i
	}
	// insertion sort by q desc (M is small; avoids allocation-heavy sort.Slice)
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && q[order[j]] > q[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	noopQ := q[a.minis.NoOpIndex()]
	if cap(act) < len(s) {
		act = make(env.Action, len(s))
	}
	act = act[:len(s)]
	for i := range act {
		act[i] = device.NoAction
	}
	added := 0
	best := noopQ
	for _, idx := range order {
		if idx == a.minis.NoOpIndex() || q[idx] <= noopQ {
			break // nothing left better than doing nothing
		}
		dev, da := a.minis.Decode(idx)
		if a.cfg.Actionable != nil && !a.cfg.Actionable(dev) {
			continue
		}
		if act[dev] != device.NoAction {
			continue
		}
		prev := act[dev]
		act[dev] = da
		if !a.sim.Safe(s, act) {
			act[dev] = prev
			continue
		}
		if added == 0 {
			best = q[idx] // highest-ranked accepted mini drives the value
		}
		added++
		if added >= a.cfg.MaxMiniActions {
			break
		}
	}
	return act, best
}

// CompileDecision evaluates the greedy policy for (s, t) with no serving
// side effects: no telemetry, no watchdog healing, no degraded counting,
// and no LastValue mutation. The policy compiler (internal/compiled) calls
// it while enumerating the state×time product. It composes the action into
// dst, grown to len(s) when short (nil composes into a fresh action), and
// returns it. ok is false when the Q row is non-finite or beyond the
// watchdog's runaway threshold — regimes the live path handles with
// rollbacks and degraded fallbacks that a frozen table cannot reproduce,
// so compilation refuses to cover them and the caller keeps serving
// through the agent.
func (a *Agent) CompileDecision(dst env.Action, s env.State, t int) (env.Action, float64, bool) {
	q := a.q.Q(s, t)
	maxAbs, finite := scanQ(q)
	if !finite {
		return nil, 0, false
	}
	if a.wd != nil && maxAbs > a.wd.cfg.MaxAbsQ {
		return nil, 0, false
	}
	act, best := a.composeGreedy(dst, s, q)
	return act, best, true
}

// LastValue returns the Q value behind the most recent Greedy composition
// (0 after a degraded fallback). Decision logs pair it with the action.
func (a *Agent) LastValue() float64 { return a.lastValue }

// scanQ returns the largest |v| in q and whether every value is finite.
func scanQ(q []float64) (maxAbs float64, finite bool) {
	for _, v := range q {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return maxAbs, false
		}
		if av := math.Abs(v); av > maxAbs {
			maxAbs = av
		}
	}
	return maxAbs, true
}

func finiteQ(q []float64) bool {
	_, ok := scanQ(q)
	return ok
}

// explore draws a random safe composite action (the exploration branch of
// Algorithm 2: resample until P_safe admits the transition).
func (a *Agent) explore(s env.State) env.Action {
	k := len(s)
	for attempt := 0; attempt < 64; attempt++ {
		act := env.NoOp(k)
		// 0..MaxMiniActions mini-actions; zero keeps the idle transition in
		// the experience stream so the agent learns the value of waiting.
		n := a.cfg.Rng.Intn(a.cfg.MaxMiniActions + 1)
		for j := 0; j < n; j++ {
			dev := a.cfg.Rng.Intn(k)
			if a.cfg.Actionable != nil && !a.cfg.Actionable(dev) {
				continue
			}
			valid := a.sim.Env().Device(dev).ValidActions(s[dev])
			if len(valid) == 0 {
				continue
			}
			act[dev] = valid[a.cfg.Rng.Intn(len(valid))]
		}
		if a.sim.Safe(s, act) {
			return act
		}
	}
	// Fall back to any single safe mini-action, then to idling.
	for idx := 1; idx < a.minis.Total(); idx++ {
		dev, da := a.minis.Decode(idx)
		if a.cfg.Actionable != nil && !a.cfg.Actionable(dev) {
			continue
		}
		act := env.NoOp(k)
		act[dev] = da
		if a.sim.Safe(s, act) {
			return act
		}
	}
	return env.NoOp(k)
}

// bestSafeIdx returns the index of the highest-scoring safe single
// mini-action from next, including idling, breaking ties toward the lower
// index. The candidate composite is composed in the agent's reused action
// scratch, so the search allocates nothing.
func (a *Agent) bestSafeIdx(next env.State, score []float64) int {
	k := len(next)
	if cap(a.actScratch) < k {
		a.actScratch = make(env.Action, k)
	}
	act := a.actScratch[:k]
	bestIdx := a.minis.NoOpIndex()
	bestScore := score[bestIdx]
	for idx := 1; idx < a.minis.Total(); idx++ {
		if score[idx] <= bestScore {
			continue
		}
		dev, da := a.minis.Decode(idx)
		if a.cfg.Actionable != nil && !a.cfg.Actionable(dev) {
			continue
		}
		for i := range act {
			act[i] = device.NoAction
		}
		act[dev] = da
		if a.sim.Safe(next, act) {
			bestIdx, bestScore = idx, score[idx]
		}
	}
	return bestIdx
}

// maxNextQ returns the bootstrap value over the safe single mini-actions
// from next, including idling. Classic DQN takes max over the lagged
// target values; with DoubleDQN the online values pick the action and the
// target values score it. This is the per-pair path for backends without
// BatchQ; batchTargets is the batched equivalent.
func (a *Agent) maxNextQ(next env.State, t int) float64 {
	target := a.q.QTarget(next, t)
	score := target
	if a.cfg.DoubleDQN {
		a.onlineQ = append(a.onlineQ[:0], a.q.Q(next, t)...)
		score = a.onlineQ
	}
	bestIdx := a.bestSafeIdx(next, score)
	if a.cfg.DoubleDQN {
		// Re-evaluate the chosen action under the target network (the
		// target slice may have been invalidated by the online Q call).
		return a.q.QTarget(next, t)[bestIdx]
	}
	return target[bestIdx]
}

// batchTargets fills targets with the bootstrapped values R + γ·max Q(S',
// A') using one batched forward pass over the non-terminal successors
// (two with DoubleDQN) instead of per-experience network calls. The safe
// action search and tie-breaking match maxNextQ exactly, so the computed
// targets are bit-identical to the per-pair path.
func (a *Agent) batchTargets(bq BatchQ, batch []Experience, targets []float64) error {
	a.nextS, a.nextT = a.nextS[:0], a.nextT[:0]
	for _, exp := range batch {
		if !exp.Done {
			a.nextS = append(a.nextS, exp.Next)
			a.nextT = append(a.nextT, exp.NextT)
		}
	}
	var scoreRows, targetRows [][]float64
	if len(a.nextS) > 0 {
		var err error
		if a.cfg.DoubleDQN {
			// Online rows first: they live in the online network's arena and
			// survive the target pass, which uses the target network's.
			if scoreRows, err = bq.QBatch(a.nextS, a.nextT); err != nil {
				return err
			}
		}
		if targetRows, err = bq.QTargetBatch(a.nextS, a.nextT); err != nil {
			return err
		}
		if scoreRows == nil {
			scoreRows = targetRows
		}
	}
	j := 0
	for i, exp := range batch {
		target := exp.R
		if !exp.Done {
			bestIdx := a.bestSafeIdx(exp.Next, scoreRows[j])
			target += a.cfg.Gamma * targetRows[j][bestIdx]
			j++
		}
		targets[i] = target
	}
	return nil
}

// replayStep samples a mini-batch, computes bootstrapped targets
// R + γ·max Q(S', A') and updates the Q function (the Replay procedure of
// Algorithm 2). The mini-batch and target buffers are reused across steps,
// and backends implementing BatchQ evaluate all successors in one batched
// forward pass.
func (a *Agent) replayStep() error { return a.replayStepRng(a.cfg.Rng) }

// replayStepRng is replayStep sampling with an explicit RNG. Online
// learning (jarvisd) passes a per-step RNG derived from the accepted
// transition count so the update sequence is reproducible from the WAL
// regardless of how the agent's main Rng was exercised before the crash.
// A divergent update or non-finite loss is routed to the attached
// watchdog, which rolls back instead of surfacing an error.
func (a *Agent) replayStepRng(rng *rand.Rand) error {
	a.batch = a.replay.SampleInto(a.batch, a.cfg.BatchSize, rng)
	batch := a.batch
	if cap(a.targets) < len(batch) {
		a.targets = make([]float64, len(batch))
	}
	targets := a.targets[:len(batch)]
	if bq, ok := a.q.(BatchQ); ok {
		if err := a.batchTargets(bq, batch, targets); err != nil {
			return a.learnFailure(err)
		}
	} else {
		for i, exp := range batch {
			target := exp.R
			if !exp.Done {
				target += a.cfg.Gamma * a.maxNextQ(exp.Next, exp.NextT)
			}
			targets[i] = target
		}
	}
	loss, err := a.q.Update(batch, targets)
	if err != nil {
		return a.learnFailure(err)
	}
	a.loss = loss
	if a.wd != nil {
		a.wd.observeLoss(loss)
	}
	return nil
}

// learnFailure routes a learning-step error through the watchdog: a
// divergence (non-finite activations or loss in the network) trips it —
// rolling back to a valid generation when possible — and is swallowed, so
// one poisoned batch doesn't abort a training run or take down a daemon.
// Other errors surface unchanged.
func (a *Agent) learnFailure(err error) error {
	if a.wd != nil && nn.IsDivergence(err) {
		a.wd.trip(fmt.Sprintf("divergent update: %v", err))
		return nil
	}
	return err
}

// Observe appends a transition to the replay buffer without stepping the
// simulator — the online-learning ingest path, where the environment is
// the real home reporting through jarvisd. The buffer copies a state or
// mini-action list the first time it sees its content, so the caller may
// reuse its buffers.
func (a *Agent) Observe(e Experience) {
	a.replay.Add(e)
	mReplaySize.SetInt(int64(a.replay.Len()))
}

// LearnStep runs one replay update with the supplied RNG, if the buffer
// has a full mini-batch. Returns whether an update ran.
func (a *Agent) LearnStep(rng *rand.Rand) (bool, error) {
	return a.LearnStepTraced(nil, rng)
}

// Minis exposes the agent's mini-action codec so callers journaling
// transitions can encode composite actions compactly.
func (a *Agent) Minis() *MiniActions { return a.minis }

// Train runs Algorithm 2 for the configured number of episodes.
func (a *Agent) Train() (TrainStats, error) {
	stats := TrainStats{EpisodeRewards: make([]float64, 0, a.cfg.Episodes)}
	a.sim.ResetViolations()
	steps := 0
	for ep := 0; ep < a.cfg.Episodes; ep++ {
		violBefore := a.sim.Violations()
		s := a.sim.Reset()
		var total float64
		n := a.sim.Instances()
		for t := 0; t < n; t += a.cfg.DecideEvery {
			var act env.Action
			if a.cfg.Rng.Float64() < a.eps {
				act = a.explore(s)
			} else {
				act = a.Greedy(s, t)
			}
			decided := s
			var rsum float64
			var done bool
			for j := 0; j < a.cfg.DecideEvery && t+j < n; j++ {
				stepAct := act
				if j > 0 {
					stepAct = env.NoOp(len(s))
				}
				next, r, d, err := a.sim.Step(stepAct)
				if err != nil {
					return stats, fmt.Errorf("rl: train episode %d instance %d: %w", ep, t+j, err)
				}
				rsum += r
				s = next
				done = d
			}
			total += rsum
			a.replay.Add(Experience{
				S: decided, T: t, Minis: a.minis.Of(act), R: rsum,
				Next: s, NextT: t + a.cfg.DecideEvery, Done: done,
			})
			steps++
			mTrainSteps.Inc()
			mReplaySize.SetInt(int64(a.replay.Len()))
			if a.replay.Len() >= a.cfg.BatchSize && steps%a.cfg.ReplayEvery == 0 {
				if err := a.replayStep(); err != nil {
					return stats, err
				}
			}
		}
		stats.EpisodeRewards = append(stats.EpisodeRewards, total)
		stats.EpisodeViolations = append(stats.EpisodeViolations, a.sim.Violations()-violBefore)
		if a.eps > a.cfg.EpsilonMin && a.loss <= a.cfg.PreferableLoss {
			a.eps *= a.cfg.EpsilonDecay
			if a.eps < a.cfg.EpsilonMin {
				a.eps = a.cfg.EpsilonMin
			}
		}
		mTrainEpisodes.Inc()
		mEpsilon.Set(a.eps)
	}
	stats.FinalEpsilon = a.eps
	stats.FinalLoss = a.loss
	stats.Violations = a.sim.Violations()
	return stats, nil
}

// Evaluate runs one greedy (ε=0) episode and returns its cumulative reward
// and the actions taken per instance (NoOps fill non-decision instances).
func (a *Agent) Evaluate() (float64, []env.Action, error) {
	s := a.sim.Reset()
	var total float64
	n := a.sim.Instances()
	acts := make([]env.Action, 0, n)
	for t := 0; t < n; t++ {
		var act env.Action
		if t%a.cfg.DecideEvery == 0 {
			act = a.Greedy(s, t)
		} else {
			act = env.NoOp(len(s))
		}
		next, r, _, err := a.sim.Step(act)
		if err != nil {
			return total, acts, fmt.Errorf("rl: evaluate instance %d: %w", t, err)
		}
		total += r
		acts = append(acts, act)
		s = next
	}
	return total, acts, nil
}

// Recommend returns the best safe action for an arbitrary (state,
// instance) — the paper's "the user may take some actions manually and
// depend on Jarvis for others" mode.
func (a *Agent) Recommend(s env.State, t int) env.Action {
	return a.Greedy(s, t)
}
