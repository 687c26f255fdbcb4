package replay

import (
	"bytes"
	"fmt"

	"jarvis"
	"jarvis/internal/device"
	"jarvis/internal/env"
	"jarvis/internal/rl"
	"jarvis/internal/smarthome"
	"jarvis/internal/trace"
)

// Audit is the P_safe check an apply step runs: whether the transition
// between state keys from and to under composite action a is safe. The
// daemon's serve path passes a counted, traced check
// (policy.Table.SafeTransitionTraced); every replay — crash recovery, a
// hot standby, the offline engine — passes the table's uncounted
// SafeTransition, so replays move no policy.audit.* counter.
type Audit func(from, to uint64, a env.Action) bool

// Stream is one position in a decision stream — the environment state,
// the violation count, and the sequence counters of the three record
// kinds plus the learn steps — and the one place a record is applied to
// the system the assets hold. The live daemon, its crash recovery, a hot
// standby and the offline Replayer all apply through it, so each consumer
// regenerates the audit trail with the code that wrote it. Callers keep
// only their own side effects (journaling, decision logs, metrics).
// A Stream is not safe for concurrent use.
type Stream struct {
	a    *Assets
	cfg  Config
	next env.State // Decide's transition scratch

	State       env.State
	Violations  int // applied events P_safe denied
	Events      int // evt sequence: events applied
	OnlineSteps int // txn sequence: transitions fed to the learner
	LearnSteps  int // online learn steps that ran
	Recommends  int // rec sequence: recommendations served
}

// NewStream positions a stream at the home's initial state, over assets
// built under cfg.
func NewStream(a *Assets, cfg Config) *Stream {
	return &Stream{a: a, cfg: cfg.withDefaults(), State: a.Home.InitialState()}
}

// Step is what one apply step did.
type Step struct {
	// Seq is the record's kind-local sequence number; 0 when Replay
	// skipped a record the position already covers.
	Seq      int
	Prev     env.State  // evt: the state before the event
	Action   env.Action // evt: the composite action applied
	Unsafe   bool       // evt: P_safe denied the transition
	Observed bool       // txn: the learner took the transition
	Reward   float64    // txn: the reward it earned
	Learned  bool       // txn: an online learn step ran
}

// Event applies device event (d, act): the transition, the P_safe audit
// and the counters. A transition the device does not allow in its
// current state is returned as an error and changes nothing. d must be a
// device index of the environment.
func (st *Stream) Event(audit Audit, d int, act device.ActionID) (Step, error) {
	e := st.a.Home.Env
	a := env.NoOp(e.K())
	a[d] = act
	next, err := e.Transition(st.State, a)
	if err != nil {
		return Step{}, err
	}
	unsafe := !audit(e.StateKey(st.State), e.StateKey(next), a)
	if unsafe {
		st.Violations++
	}
	prev := st.State
	st.State = next
	st.Events++
	return Step{Seq: st.Events, Prev: prev, Action: a, Unsafe: unsafe}, nil
}

// Observe feeds transition (prev, a) at minute into the online learner —
// reward and replay buffer — and runs one learn step every
// OnlineTrainEvery transitions. Each learn step draws from an RNG seeded
// only by (seed, transition count), never by wall clock or by how the
// process got here, so a replay walks the training trajectory of the run
// it replays. A learn step ran under a sampled request records its span
// under sp (nil otherwise).
func (st *Stream) Observe(sp *trace.Span, prev env.State, a env.Action, minute int) Step {
	st.OnlineSteps++
	step := Step{Seq: st.OnlineSteps}
	sys := st.a.Sys
	_, reward, err := sys.ObserveTransition(prev, a, minute)
	if err != nil {
		st.cfg.Logf("replay: txn #%d: observe failed: %v", step.Seq, err)
		return step
	}
	step.Observed, step.Reward = true, reward
	if every := st.cfg.OnlineTrainEvery; every > 0 && st.OnlineSteps%every == 0 {
		ran, err := sys.LearnOnlineTraced(sp, rl.StepRNG(st.cfg.Seed, st.OnlineSteps))
		switch {
		case err != nil:
			st.cfg.Logf("replay: txn #%d: learn step failed: %v", step.Seq, err)
		case ran:
			st.LearnSteps++
			step.Learned = true
		}
	}
	return step
}

// Recommendation is one policy evaluation at the stream's state, with
// its P_safe cross-check.
type Recommendation struct {
	jarvis.Decision
	// Verdict is "safe", "degraded" (the policy fell back to the safe
	// NoOp), or "unsafe" (P_safe denies the transition the action leads
	// to).
	Verdict string
	// Next is the state the action leads to, nil when it does not apply.
	// It aliases the stream's scratch until the next Decide.
	Next env.State
}

// Decide evaluates the policy at the stream's state and minute and
// cross-checks the action against P_safe before it is handed out: the
// constrained agent only proposes whitelisted transitions, so an unsafe
// verdict means the table and the optimizer have drifted apart. Decide
// counts nothing (Served does). A sampled request passes its span as sp;
// a nil span serves from the compiled table when one is enabled, with a
// bit-identical decision.
func (st *Stream) Decide(audit Audit, sp *trace.Span, minute int) (Recommendation, error) {
	e := st.a.Home.Env
	d, err := st.a.Sys.RecommendDecisionTraced(sp, st.State, minute)
	if err != nil {
		return Recommendation{}, err
	}
	r := Recommendation{Decision: d, Verdict: "safe"}
	if d.Degraded {
		r.Verdict = "degraded"
	}
	if st.next == nil {
		st.next = make(env.State, e.K())
	}
	if e.TransitionOK(st.next, st.State, d.Action) {
		r.Next = st.next
		if !audit(e.StateKey(st.State), e.StateKey(r.Next), d.Action) {
			r.Verdict = "unsafe"
		}
	}
	return r, nil
}

// Served counts one served recommendation and returns its rec sequence
// number. A recommendation changes no state; the count keeps a later
// checkpoint's rec sequence correct.
func (st *Stream) Served() int {
	st.Recommends++
	return st.Recommends
}

// Replay applies one recorded record — from the journal, the replication
// stream, or an offline WAL — through the step for its kind. A record
// whose sequence number the position already covers (a checkpoint did) is
// skipped with Seq 0. A record naming a kind, minute, device or state the
// environment does not have is rejected with an error and applies
// nothing. A rec record only counts; a caller that wants its decision
// regenerates it with Decide.
func (st *Stream) Replay(rec Record, audit Audit) (Step, error) {
	e := st.a.Home.Env
	var covered int
	switch rec.K {
	case KindEvent:
		covered = st.Events
	case KindTransition:
		covered = st.OnlineSteps
	case KindRecommend:
		covered = st.Recommends
	default:
		return Step{}, fmt.Errorf("unknown record kind %q", rec.K)
	}
	switch {
	case rec.N <= covered:
		return Step{}, nil
	case rec.M < 0 || rec.M >= smarthome.InstancesPerDay:
		return Step{}, fmt.Errorf("%s #%d has bad minute %d", rec.K, rec.N, rec.M)
	case rec.K == KindRecommend:
		return Step{Seq: st.Served()}, nil
	case rec.D < 0 || rec.D >= e.K():
		return Step{}, fmt.Errorf("%s #%d has bad device %d", rec.K, rec.N, rec.D)
	case rec.K == KindEvent:
		step, err := st.Event(audit, rec.D, rec.A)
		if err != nil {
			return Step{}, fmt.Errorf("evt #%d does not apply: %w", rec.N, err)
		}
		return step, nil
	case len(rec.S) != e.K():
		return Step{}, fmt.Errorf("txn #%d has %d device states, want %d", rec.N, len(rec.S), e.K())
	}
	a := env.NoOp(e.K())
	a[rec.D] = rec.A
	return st.Observe(nil, rec.S, a, rec.M), nil
}

// EventDecision is the canonical decision of event step ev, which the
// stream has just applied at minute.
func (st *Stream) EventDecision(ev Step, minute int) Decision {
	e := st.a.Home.Env
	verdict := "safe"
	if ev.Unsafe {
		verdict = "unsafe"
	}
	return Decision{
		Kind: "event", Seq: ev.Seq, Minute: minute,
		State:   StateNames(e, st.State),
		Action:  e.FormatAction(ev.Action),
		Verdict: verdict,
	}
}

// RecommendDecision is the canonical decision of recommendation r, served
// as rec number seq at minute from the stream's state.
func (st *Stream) RecommendDecision(r Recommendation, seq, minute int) Decision {
	e := st.a.Home.Env
	return Decision{
		Kind: "recommend", Seq: seq, Minute: minute,
		State:    StateNames(e, st.State),
		Action:   e.FormatAction(r.Action),
		Q:        r.Value,
		Degraded: r.Degraded,
		Verdict:  r.Verdict,
	}
}

// seed positions the stream at snapshot ck: its state (when it carries
// one), its violation count, and the sequence counters that make the
// records it already covers no-ops under Replay.
func (st *Stream) seed(ck *Snapshot) {
	if len(ck.State) == len(st.State) {
		st.State = ck.State
	}
	st.Violations, st.Events, st.OnlineSteps = ck.Violations, ck.Events, ck.OnlineSteps
	st.LearnSteps, st.Recommends = ck.LearnSteps, ck.Recommends
}

// Restore rebuilds the system from snapshot ck (Assets.RestoreSnapshot)
// and positions the stream at it.
func (st *Stream) Restore(ck *Snapshot) error {
	if err := st.a.RestoreSnapshot(ck, st.cfg.Logf); err != nil {
		return err
	}
	st.seed(ck)
	return nil
}

// Snapshot serializes the system and the stream's position as one
// checkpoint generation — the payload of the daemon's checkpoint saves
// and of its replication snapshots, so a follower seeds from exactly the
// bytes crash recovery would.
func (st *Stream) Snapshot() (*Snapshot, error) {
	sys := st.a.Sys
	var table, q, rbuf bytes.Buffer
	if err := sys.SaveTable(&table); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if err := sys.SaveQ(&q); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if err := sys.Agent().ReplayBuffer().Save(&rbuf); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Snapshot{
		Version:      SnapshotVersion,
		Seed:         st.cfg.Seed,
		LearningDays: st.cfg.LearningDays,
		Episodes:     st.cfg.Episodes,
		Violations:   st.Violations,
		State:        st.State,
		Events:       st.Events,
		OnlineSteps:  st.OnlineSteps,
		LearnSteps:   st.LearnSteps,
		Recommends:   st.Recommends,
		Epsilon:      sys.Agent().Epsilon(),
		UseDNN:       st.cfg.UseDNN,
		Table:        table.Bytes(),
		Q:            q.Bytes(),
		Replay:       rbuf.Bytes(),
	}, nil
}

// StateNames renders a state as device=state names, the form decision
// logs and the JSON protocol carry.
func StateNames(e *env.Environment, s env.State) []string {
	out := make([]string, len(s))
	for i, st := range s {
		out[i] = e.Device(i).Name() + "=" + e.Device(i).StateName(st)
	}
	return out
}
