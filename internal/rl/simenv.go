package rl

import (
	"errors"
	"fmt"

	"jarvis/internal/env"
	"jarvis/internal/policy"
	"jarvis/internal/reward"
)

// Environment is the Gym-like interface the paper builds on OpenAI Gym
// (Section V-A5): an episodic environment an agent resets and steps
// through.
type Environment interface {
	// Reset returns the environment to S_0 and returns it.
	Reset() env.State
	// Step applies a composite action at the current time instance and
	// returns the next state, the reward R_smart(S, A, t), and whether the
	// episode is complete.
	Step(a env.Action) (next env.State, r float64, done bool, err error)
	// State returns the current state.
	State() env.State
	// Instance returns the current time instance t.
	Instance() int
	// Instances returns n, the episode length.
	Instances() int
}

// SafeEnv extends Environment with the constrained-exploration surface
// Algorithm 2 needs: the underlying IoT FSM, the safety predicate P_safe,
// and the violation audit. SimEnv is the canonical implementation; wrappers
// (fault injectors, instrumentation) satisfy it by delegation so agents
// train and evaluate through them unchanged.
type SafeEnv interface {
	Environment
	// Env returns the underlying IoT environment FSM.
	Env() *env.Environment
	// Safe reports whether taking composite action a in state st is
	// permitted by P_safe (and the FSM).
	Safe(st env.State, a env.Action) bool
	// Violations returns the number of unsafe transitions stepped so far.
	Violations() int
	// ResetViolations zeroes the violation counter.
	ResetViolations()
}

// ExoFunc models exogenous dynamics: after the agent's action resolves,
// the environment itself may drift (outdoor temperature moves a sensor,
// a resident arrives at the door). It receives the post-action state and
// the *next* time instance and returns the adjusted state, which must stay
// within the FSM.
type ExoFunc func(s env.State, t int) env.State

// SimConfig assembles a simulated RL environment.
type SimConfig struct {
	// Initial is S_0.
	Initial env.State
	// Reward is R_smart.
	Reward *reward.Smart
	// Safe is P_safe; nil leaves the environment unconstrained (the
	// baseline of Section VI-F).
	Safe *policy.Table
	// Exo is the optional exogenous dynamics hook.
	Exo ExoFunc
	// ResetHook, when non-nil, runs on every Reset — stateful exogenous
	// models (house thermal dynamics) re-initialize here.
	ResetHook func()
}

// SimEnv is the simulated RL environment over the IoT FSM. It additionally
// exposes the safety predicate used to constrain exploration and counts
// the safety violations the agent commits (meaningful for unconstrained
// runs).
type SimEnv struct {
	e     *env.Environment
	cfg   SimConfig
	cur   env.State
	t     int
	n     int
	viol  int
	audit *policy.Table
	// safeScratch holds Safe's probe successor state; Safe only needs its
	// key, so the buffer is reused across calls. SimEnv is not safe for
	// concurrent use (cur/t already preclude it).
	safeScratch env.State
}

var _ SafeEnv = (*SimEnv)(nil)

// NewSimEnv validates cfg and builds the simulator.
func NewSimEnv(e *env.Environment, cfg SimConfig) (*SimEnv, error) {
	if cfg.Reward == nil {
		return nil, errors.New("rl: SimConfig.Reward is required")
	}
	if !e.ValidState(cfg.Initial) {
		return nil, errors.New("rl: invalid initial state")
	}
	s := &SimEnv{e: e, cfg: cfg, n: cfg.Reward.Instances(), safeScratch: make(env.State, e.K())}
	s.Reset()
	return s, nil
}

// Reset implements Environment.
func (s *SimEnv) Reset() env.State {
	s.cur = s.cfg.Initial.Clone()
	s.t = 0
	if s.cfg.ResetHook != nil {
		s.cfg.ResetHook()
	}
	return s.cur.Clone()
}

// State implements Environment.
func (s *SimEnv) State() env.State { return s.cur.Clone() }

// Instance implements Environment.
func (s *SimEnv) Instance() int { return s.t }

// Instances implements Environment.
func (s *SimEnv) Instances() int { return s.n }

// Env returns the underlying IoT environment.
func (s *SimEnv) Env() *env.Environment { return s.e }

// Reward returns the configured R_smart.
func (s *SimEnv) Reward() *reward.Smart { return s.cfg.Reward }

// Safe reports whether taking composite action a in state st is permitted
// by P_safe. An unconstrained environment permits everything the FSM
// allows.
func (s *SimEnv) Safe(st env.State, a env.Action) bool {
	if !s.e.TransitionOK(s.safeScratch, st, a) {
		return false
	}
	if s.cfg.Safe == nil {
		return true
	}
	return s.cfg.Safe.SafeTransition(s.e.StateKey(st), s.e.StateKey(s.safeScratch), a)
}

// Violations returns the number of unsafe transitions stepped so far (only
// counted when a P_safe table is present or supplied via CountAgainst).
func (s *SimEnv) Violations() int { return s.viol }

// ResetViolations zeroes the violation counter.
func (s *SimEnv) ResetViolations() { s.viol = 0 }

// countTable returns the table violations are counted against.
func (s *SimEnv) countTable() *policy.Table { return s.cfg.Safe }

// SetAudit sets a table used purely for violation counting on an otherwise
// unconstrained environment; it does not constrain Step. Figure 9's
// unconstrained run is audited against the learned P_safe without being
// restricted by it.
func (s *SimEnv) SetAudit(t *policy.Table) { s.audit = t }

// Step implements Environment. The action must be valid under the FSM;
// safety is not enforced here (the agent enforces it during action
// selection) but unsafe transitions are counted against the audit table or
// P_safe.
func (s *SimEnv) Step(a env.Action) (env.State, float64, bool, error) {
	if s.t >= s.n {
		return nil, 0, true, fmt.Errorf("rl: episode complete (n=%d)", s.n)
	}
	next, err := s.e.Transition(s.cur, a)
	if err != nil {
		return nil, 0, false, err
	}
	table := s.audit
	if table == nil {
		table = s.countTable()
	}
	if table != nil && !table.SafeTransition(s.e.StateKey(s.cur), s.e.StateKey(next), a) {
		s.viol++
	}
	r := s.cfg.Reward.R(s.cur, a, s.t)
	s.t++
	if s.cfg.Exo != nil {
		next = s.cfg.Exo(next, s.t)
		if !s.e.ValidState(next) {
			return nil, 0, false, errors.New("rl: exogenous dynamics produced an invalid state")
		}
	}
	s.cur = next
	return next.Clone(), r, s.t >= s.n, nil
}
