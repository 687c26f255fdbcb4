// Package jarvis is a constrained reinforcement-learning framework for IoT
// environments, reproducing "Jarvis: Moving Towards a Smarter Internet of
// Things" (Mudgerikar & Bertino, ICDCS 2020).
//
// Jarvis watches an IoT environment during a learning phase, learns which
// state transitions occur naturally (filtering benign anomalies with a
// small neural network), and whitelists them as the safe-transition table
// P_safe. A Q-learning agent then optimizes user-defined functionality
// goals — energy use, electricity cost, comfort — inside that whitelist:
// it can act only along transitions the environment has exhibited on its
// own, so optimization can never become unsafe.
//
// The facade in this package wires the full pipeline:
//
//	sys, err := jarvis.New(home.Env, jarvis.Config{...})
//	sys.Learn(learningEpisodes)           // Algorithm 1: build P_safe
//	sys.Train(simEnvConfig, trainConfig)  // Algorithm 2: learn Q
//	action := sys.Recommend(state, t)     // best safe action now
//	violations := sys.Audit(episodes)     // flag unsafe transitions
//
// The building blocks live in internal packages (devices, environment FSM,
// event bus, neural networks, SPL, rewards, RL) and the experiment
// harness under internal/experiment regenerates every table and figure of
// the paper; see DESIGN.md and EXPERIMENTS.md.
package jarvis

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"

	"jarvis/internal/anomaly"
	"jarvis/internal/compiled"
	"jarvis/internal/device"
	"jarvis/internal/env"
	"jarvis/internal/policy"
	"jarvis/internal/reward"
	"jarvis/internal/rl"
	"jarvis/internal/trace"
)

// Config parameterizes a Jarvis system for one environment.
type Config struct {
	// Seed drives all stochastic components; runs are reproducible.
	Seed int64
	// ThreshEnv is Algorithm 1's instance-count threshold (0, the paper's
	// smart-home recommendation, whitelists every observed transition).
	ThreshEnv int
	// Filter, when true, trains the ANN benign-anomaly filter before
	// learning policies. Training data must then be supplied to
	// TrainFilter.
	Filter bool
	// FilterConfig tunes the ANN (zero value = paper defaults: one hidden
	// layer, trained by backprop).
	FilterConfig anomaly.Config
}

// System is a Jarvis instance bound to one IoT environment.
type System struct {
	env      *env.Environment
	cfg      Config
	rng      *rand.Rand
	filter   *anomaly.Filter
	spl      *policy.Learner
	table    *policy.Table
	agent    *rl.Agent
	sim      *rl.SimEnv
	degraded int
	// compiled, when enabled, caches the agent's greedy policy as a
	// state×time-bucket table; steady-state RecommendDecision becomes three
	// bounds-checked array loads. Nil until EnableCompiledPolicy.
	compiled *compiled.Cache
}

// New creates a Jarvis system for the environment.
func New(e *env.Environment, cfg Config) (*System, error) {
	if e == nil {
		return nil, errors.New("jarvis: nil environment")
	}
	s := &System{
		env: e,
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.Filter {
		f, err := anomaly.NewFilter(e, cfg.FilterConfig, s.rng)
		if err != nil {
			return nil, fmt.Errorf("jarvis: %w", err)
		}
		s.filter = f
	}
	var filt policy.Filter
	if s.filter != nil {
		filt = s.filter
	}
	s.spl = policy.NewLearner(e, policy.Config{
		ThreshEnv: cfg.ThreshEnv,
		Filter:    filt,
		AllowIdle: true,
	})
	return s, nil
}

// Env returns the bound environment.
func (s *System) Env() *env.Environment { return s.env }

// TrainFilter fits the benign-anomaly ANN on user-labelled data. It must
// run before Learn for the filter to take effect.
func (s *System) TrainFilter(data []anomaly.Labeled) (loss float64, err error) {
	if s.filter == nil {
		return 0, errors.New("jarvis: system created without Filter enabled")
	}
	return s.filter.Train(data, s.cfg.FilterConfig, s.rng)
}

// Filter exposes the trained benign-anomaly filter (nil when disabled).
func (s *System) Filter() *anomaly.Filter { return s.filter }

// Learn feeds learning-phase episodes through the SPL (Algorithm 1) and
// finalizes P_safe. It may be called repeatedly; each call rebuilds the
// table from all observations so far.
func (s *System) Learn(episodes []env.Episode) {
	s.spl.ObserveAll(episodes)
	s.table = s.spl.Table()
}

// AllowManual adds a manual safety policy (Section V-B1): the device
// action becomes unconditionally safe. Call after Learn.
func (s *System) AllowManual(dev int, act device.ActionID) error {
	if s.table == nil {
		return errors.New("jarvis: Learn must run before AllowManual")
	}
	if dev < 0 || dev >= s.env.K() {
		return fmt.Errorf("jarvis: unknown device %d", dev)
	}
	s.table.AllowManual(dev, act)
	return nil
}

// SafeTable returns the learned P_safe (nil before Learn).
func (s *System) SafeTable() *policy.Table { return s.table }

// PreferredTimes indexes the learning episodes' action timings for the
// dis-utility estimate; pass the same episodes given to Learn.
func (s *System) PreferredTimes(episodes []env.Episode) *reward.PreferredTimes {
	return reward.LearnPreferredTimes(s.env, episodes)
}

// TrainConfig parameterizes the optimizer (Algorithm 2).
type TrainConfig struct {
	// Agent tunes the ε-greedy constrained agent; zero values take the
	// package defaults. Rng is overridden with the system's.
	Agent rl.AgentConfig
	// UseDNN selects the deep Q network instead of the tabular fallback.
	UseDNN bool
	// DNN tunes the network when UseDNN is set.
	DNN rl.DQNConfig
	// Buckets is the tabular time resolution (default 24).
	Buckets int
}

// buildAgent wires the simulated environment (constrained by the learned
// P_safe) and an untrained agent — the shared front half of Train and
// Restore.
func (s *System) buildAgent(sim rl.SimConfig, cfg TrainConfig) (*rl.Agent, *rl.SimEnv, error) {
	if s.table == nil {
		return nil, nil, errors.New("jarvis: Learn must run before Train or Restore")
	}
	if sim.Safe == nil {
		sim.Safe = s.table
	}
	simEnv, err := rl.NewSimEnv(s.env, sim)
	if err != nil {
		return nil, nil, fmt.Errorf("jarvis: %w", err)
	}
	var q rl.QFunc
	if cfg.UseDNN {
		dqn, err := rl.NewDQN(s.env, sim.Reward.Instances(), cfg.DNN, s.rng)
		if err != nil {
			return nil, nil, fmt.Errorf("jarvis: %w", err)
		}
		q = dqn
	} else {
		buckets := cfg.Buckets
		if buckets <= 0 {
			buckets = 24
		}
		q = rl.NewTableQ(s.env, sim.Reward.Instances(), buckets, 0.25)
	}
	agentCfg := cfg.Agent
	agentCfg.Rng = s.rng
	agent, err := rl.NewAgent(simEnv, q, agentCfg)
	if err != nil {
		return nil, nil, fmt.Errorf("jarvis: %w", err)
	}
	return agent, simEnv, nil
}

// Train builds the simulated RL environment (constrained by the learned
// P_safe) and runs Algorithm 2.
func (s *System) Train(sim rl.SimConfig, cfg TrainConfig) (rl.TrainStats, error) {
	agent, simEnv, err := s.buildAgent(sim, cfg)
	if err != nil {
		return rl.TrainStats{}, err
	}
	stats, err := agent.Train()
	if err != nil {
		return stats, fmt.Errorf("jarvis: %w", err)
	}
	s.agent = agent
	s.sim = simEnv
	s.invalidateCompiled()
	return stats, nil
}

// qPersister is the save/load surface both Q backends expose.
type qPersister interface {
	Save(io.Writer) error
	Load(io.Reader) error
}

// Restore rebuilds the optimizer from a Q function checkpoint written by
// SaveQ instead of retraining: the simulated environment and agent are
// wired exactly as Train would, then the Q values are loaded from r. The
// sim and cfg arguments must describe the same shape (instances, buckets /
// network architecture) the checkpoint was trained with; mismatches are
// reported as errors and leave the system untrained.
func (s *System) Restore(sim rl.SimConfig, cfg TrainConfig, r io.Reader) error {
	agent, simEnv, err := s.buildAgent(sim, cfg)
	if err != nil {
		return err
	}
	p, ok := agent.Q().(qPersister)
	if !ok {
		return fmt.Errorf("jarvis: Q backend %T is not restorable", agent.Q())
	}
	if err := p.Load(r); err != nil {
		return fmt.Errorf("jarvis: restore: %w", err)
	}
	s.agent = agent
	s.sim = simEnv
	s.invalidateCompiled()
	return nil
}

// SaveQ persists the trained Q function, the counterpart of Restore.
func (s *System) SaveQ(w io.Writer) error {
	if s.agent == nil {
		return errors.New("jarvis: Train must run before SaveQ")
	}
	p, ok := s.agent.Q().(qPersister)
	if !ok {
		return fmt.Errorf("jarvis: Q backend %T is not persistable", s.agent.Q())
	}
	return p.Save(w)
}

// QFingerprint digests the serialized Q function (SHA-256, hex). Two
// systems with equal fingerprints are in identical training states — the
// equality the crash-recovery harness and the replay verifier assert.
func (s *System) QFingerprint() (string, error) {
	var b bytes.Buffer
	if err := s.SaveQ(&b); err != nil {
		return "", err
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// TrainingViolations returns the number of unsafe transitions the trained
// agent's simulator recorded (always 0 for a properly constrained run).
func (s *System) TrainingViolations() int {
	if s.sim == nil {
		return 0
	}
	return s.sim.Violations()
}

// Recommend returns the best safe action for the given state and time
// instance. It requires a trained (or restored) system. The user may have
// taken some actions manually; Jarvis recommends from whatever state the
// environment reached.
//
// Recommend degrades instead of failing: when the Q function has diverged
// (NaN/Inf values — the agent already falls back internally) or the
// recommended action does not survive a transition check against the FSM,
// the safe NoOp is returned. Idling is whitelisted by P_safe (AllowIdle),
// so the fallback never violates the safety table. DegradedRecommendations
// counts how often the fallback fired.
func (s *System) Recommend(state env.State, t int) (env.Action, error) {
	return s.RecommendTraced(nil, state, t)
}

// RecommendTraced is Recommend with the RL action selection recorded as a
// child span of sp. A nil span (tracing disabled or the request unsampled)
// makes it behave exactly like Recommend.
func (s *System) RecommendTraced(sp *trace.Span, state env.State, t int) (env.Action, error) {
	if s.agent == nil {
		return nil, errors.New("jarvis: Train or Restore must run before Recommend")
	}
	if !s.env.ValidState(state) {
		return nil, errors.New("jarvis: invalid state")
	}
	act := s.agent.GreedyTraced(sp, state, t)
	if _, err := s.env.Transition(state, act); err != nil {
		s.degraded++
		return env.NoOp(s.env.K()), nil
	}
	return act, nil
}

// Agent exposes the trained agent (nil before Train or Restore) for
// instrumentation, diagnostics, and persistence surfaces.
func (s *System) Agent() *rl.Agent { return s.agent }

// LoadQ replaces the agent's Q values with a checkpoint written by SaveQ,
// keeping the existing agent, simulator, and exploration state intact —
// unlike Restore, which rebuilds the whole optimizer. It is the divergence
// watchdog's rollback primitive: on a trip the daemon loads the newest
// valid generation into the live agent without disturbing the replay
// buffer or counters accumulated since.
func (s *System) LoadQ(r io.Reader) error {
	if s.agent == nil {
		return errors.New("jarvis: Train or Restore must run before LoadQ")
	}
	p, ok := s.agent.Q().(qPersister)
	if !ok {
		return fmt.Errorf("jarvis: Q backend %T is not restorable", s.agent.Q())
	}
	if err := p.Load(r); err != nil {
		return fmt.Errorf("jarvis: load q: %w", err)
	}
	s.invalidateCompiled()
	return nil
}

// ObserveTransition feeds one live transition — the environment was in
// prev at instance t and act was applied — into the agent's replay buffer
// for online learning, and returns the successor state and the reward the
// transition earned. The transition must be FSM-valid; safety auditing is
// the caller's concern (jarvisd audits every event regardless of whether
// learning ingestion is shed).
func (s *System) ObserveTransition(prev env.State, act env.Action, t int) (env.State, float64, error) {
	if s.agent == nil {
		return nil, 0, errors.New("jarvis: Train or Restore must run before ObserveTransition")
	}
	if !s.env.ValidState(prev) {
		return nil, 0, errors.New("jarvis: invalid state")
	}
	next, err := s.env.Transition(prev, act)
	if err != nil {
		return nil, 0, fmt.Errorf("jarvis: observe: %w", err)
	}
	var r float64
	if s.sim != nil && s.sim.Reward() != nil {
		r = s.sim.Reward().R(prev, act, t)
	}
	s.agent.Observe(rl.Experience{
		S: prev, T: t, Minis: s.agent.Minis().Of(act), R: r,
		Next: next, NextT: t + s.agent.DecideEvery(),
	})
	return next, r, nil
}

// LearnOnline runs one replay update against the online experience stream,
// sampling with the supplied RNG (jarvisd derives it deterministically
// from the accepted-transition count so crash recovery replays the exact
// update sequence). Reports whether an update ran — false until the
// buffer holds a full mini-batch.
func (s *System) LearnOnline(rng *rand.Rand) (bool, error) {
	return s.LearnOnlineTraced(nil, rng)
}

// LearnOnlineTraced is LearnOnline with the replay update recorded as a
// child span of sp (batch size and loss annotated); nil span = LearnOnline.
func (s *System) LearnOnlineTraced(sp *trace.Span, rng *rand.Rand) (bool, error) {
	if s.agent == nil {
		return false, errors.New("jarvis: Train or Restore must run before LearnOnline")
	}
	ran, err := s.agent.LearnStepTraced(sp, rng)
	if err != nil {
		return ran, fmt.Errorf("jarvis: learn online: %w", err)
	}
	if ran {
		// The Q values changed (or a watchdog rollback replaced them mid-
		// step, which invalidates through LoadQ as well); compiled decisions
		// may no longer match the agent's.
		s.invalidateCompiled()
	}
	return ran, nil
}

// Decision is one audited recommendation: the chosen safe action, the Q
// value backing it, and whether the system fell back to the degraded NoOp.
// The daemon's structured decision log records one entry per Decision so
// safety behavior is auditable offline.
type Decision struct {
	Action   env.Action
	Value    float64
	Degraded bool
}

// RecommendDecision is Recommend plus the audit surface: it reports the Q
// value of the chosen action and whether this recommendation degraded to
// the safe NoOp (non-finite Q values or a failed FSM transition check).
func (s *System) RecommendDecision(state env.State, t int) (Decision, error) {
	return s.RecommendDecisionTraced(nil, state, t)
}

// RecommendDecisionTraced is RecommendDecision with the selection recorded
// under sp; nil span = RecommendDecision.
//
// When a compiled policy is enabled and clean, unsampled requests (nil
// span) are served straight from the table: one state-key encode and a
// few bounds-checked array loads, zero allocations. Sampled requests
// take the agent path so traces keep covering the full selection
// pipeline — the decisions are bit-identical either way, which the golden
// tests pin.
func (s *System) RecommendDecisionTraced(sp *trace.Span, state env.State, t int) (Decision, error) {
	if c := s.compiled; c != nil && sp == nil {
		if p := c.Policy(); p != nil {
			if !s.env.ValidState(state) {
				return Decision{}, errors.New("jarvis: invalid state")
			}
			if d, ok := p.Lookup(state, t); ok {
				c.Hit()
				if d.Degraded {
					s.degraded++
				}
				// d.Action aliases the shared palette; Decision consumers
				// (the daemon, the decision log) treat actions as read-only.
				return Decision{Action: d.Action, Value: d.Value, Degraded: d.Degraded}, nil
			}
			c.Miss()
		} else if !c.Disabled() {
			c.Miss()
		}
	}
	before := s.DegradedRecommendations()
	act, err := s.RecommendTraced(sp, state, t)
	if err != nil {
		return Decision{}, err
	}
	d := Decision{Action: act, Degraded: s.DegradedRecommendations() > before}
	if !d.Degraded {
		d.Value = s.agent.LastValue()
	}
	return d, nil
}

// EnableCompiledPolicy attaches a compiled-policy cache and builds the
// first table synchronously. lock must be the lock that guards every
// mutation of this system (the daemon passes its state mutex; the caller
// must not hold it here). The returned error reports why compilation is
// unavailable — compiled.ErrTooLarge marks a state×bucket product beyond
// opts.MaxEntries, permanently disabling the cache — and the system keeps
// serving through the agent path in every error case, so callers may treat
// it as advisory.
func (s *System) EnableCompiledPolicy(lock sync.Locker, opts compiled.Options) error {
	if s.agent == nil || s.sim == nil {
		return errors.New("jarvis: Train or Restore must run before EnableCompiledPolicy")
	}
	c := compiled.NewCache(lock, func() (*compiled.Policy, error) {
		return compiled.Compile(s.env, s.agent, s.sim.Instances(), opts)
	})
	s.compiled = c
	return c.RebuildNow()
}

// CompiledPolicy exposes the compiled-policy cache (nil until
// EnableCompiledPolicy) for health surfaces and tests.
func (s *System) CompiledPolicy() *compiled.Cache { return s.compiled }

// invalidateCompiled marks the compiled table stale after any mutation of
// its inputs (Q values, P_safe, the agent itself). A no-op until
// EnableCompiledPolicy. Callers in the daemon hold the state lock, which
// is the cache's correctness contract.
func (s *System) invalidateCompiled() {
	if s.compiled != nil {
		s.compiled.Invalidate()
	}
}

// DegradedRecommendations counts the recommendations that fell back to the
// safe NoOp — because the Q function produced non-finite values or the
// greedy action failed the FSM transition check. A nonzero count signals a
// diverged or stale model that should be retrained or restored.
func (s *System) DegradedRecommendations() int {
	n := s.degraded
	if s.agent != nil {
		n += s.agent.Degraded()
	}
	return n
}

// Audit flags every transition in the episodes that P_safe does not
// sanction — the enforcement path of the security evaluation.
func (s *System) Audit(episodes []env.Episode) ([]policy.Violation, error) {
	if s.table == nil {
		return nil, errors.New("jarvis: Learn must run before Audit")
	}
	return policy.FlagEpisodes(s.env, s.table, episodes), nil
}

// SaveTable persists the learned P_safe as JSON.
func (s *System) SaveTable(w io.Writer) error {
	if s.table == nil {
		return errors.New("jarvis: nothing learned yet")
	}
	return s.table.Save(w)
}

// LoadTable restores a previously saved P_safe, replacing any learned one.
func (s *System) LoadTable(r io.Reader) error {
	t, err := policy.LoadTable(r)
	if err != nil {
		return err
	}
	s.table = t
	s.invalidateCompiled()
	return nil
}
