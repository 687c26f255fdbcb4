package replay

import (
	"errors"
	"fmt"
	"io"

	"jarvis/internal/env"
	"jarvis/internal/wal"
)

// Decision is one regenerated decision in canonical form: the fields the
// daemon's decision log records minus the wall-clock-dependent ones
// (UnixNs, Trace, Anomaly — see DESIGN.md §12 for why those are excluded
// from the divergence definition).
type Decision struct {
	Kind     string   `json:"kind"` // "event" | "recommend"
	Seq      int      `json:"seq"`  // kind-local WAL sequence number
	Minute   int      `json:"minute"`
	State    []string `json:"state"`
	Action   string   `json:"action"`
	Q        float64  `json:"q,omitempty"`
	Degraded bool     `json:"degraded,omitempty"`
	Verdict  string   `json:"verdict"`
}

// StreamStats summarizes one replayed decision stream. Counters over the
// whole replay (Events, Transitions, Recommends, LearnSteps, Violations)
// cover every applied record; the decision-level fields (Decisions,
// Degraded, Unsafe, the reward sums) cover only the post-fork window, so
// a what-if baseline and variant are compared over identical spans.
type StreamStats struct {
	Events      int `json:"events"`      // evt records applied
	Transitions int `json:"transitions"` // txn records applied
	Recommends  int `json:"recommends"`  // rec records seen
	LearnSteps  int `json:"learnSteps"`  // online learn steps that ran
	Violations  int `json:"violations"`  // P_safe violations among events

	Decisions int `json:"decisions"` // decisions emitted post-fork
	Degraded  int `json:"degraded"`  // ... that fell back to the safe NoOp
	Unsafe    int `json:"unsafe"`    // ... with an "unsafe" verdict
	// RecommendReward sums the reward R(state, action, minute) of every
	// post-fork recommended action — the counterfactual value estimate a
	// what-if run compares across policies.
	RecommendReward float64 `json:"recommendReward"`
	// TransitionReward sums the recorded transitions' rewards as fed to
	// the online learner post-fork.
	TransitionReward float64 `json:"transitionReward"`
}

// Replayer re-executes a recorded WAL stream against freshly built (or
// snapshot-restored) assets. Every record applies through a Stream's
// replay step, the one the daemon's recovery and its hot standby use,
// with the uncounted P_safe audit, so a replay of an unmodified
// configuration walks bit-for-bit the trajectory the daemon walked.
// ForkAt installs a mutation (e.g. SwapPolicy) that is applied once the
// stream reaches a given event sequence number; decisions are only
// emitted from the fork point on.
type Replayer struct {
	cfg Config
	a   *Assets
	st  *Stream

	at     int // fork once the stream has applied this many events
	forked bool
	origin bool // no snapshot counters skipped anything
	mutate func(*Assets) error

	decisions []Decision
	stats     StreamStats
}

// NewReplayer builds a replayer over assets produced by Build (and
// optionally trained or snapshot-restored). The zero fork point means the
// whole stream is re-executed and emitted — verify mode.
func NewReplayer(a *Assets, cfg Config) *Replayer {
	return &Replayer{cfg: cfg.withDefaults(), a: a, st: NewStream(a, cfg), origin: true}
}

// SeedSnapshot positions the replayer's stream at the checkpoint
// generation its assets were restored from: state, violation count, and
// the sequence counters that make already-covered records no-ops.
func (r *Replayer) SeedSnapshot(ck *Snapshot) {
	r.st.seed(ck)
	if ck.Events > 0 || ck.OnlineSteps > 0 || ck.Recommends > 0 {
		r.origin = false
	}
}

// ForkAt arranges for mutate (nil for a pure re-execution) to run just
// before the first record at or past event sequence number at. Decisions
// are emitted only from the fork on, so two replays forked at the same
// point yield position-aligned, comparable streams.
func (r *Replayer) ForkAt(at int, mutate func(*Assets) error) {
	r.at = at
	r.mutate = mutate
}

// Decisions returns the regenerated decision stream (post-fork only).
func (r *Replayer) Decisions() []Decision { return r.decisions }

// Stats returns the replay's stream statistics.
func (r *Replayer) Stats() StreamStats {
	st := r.stats
	st.Violations, st.Events, st.Transitions = r.st.Violations, r.st.Events, r.st.OnlineSteps
	st.Recommends, st.LearnSteps = r.st.Recommends, r.st.LearnSteps
	return st
}

// State returns the replayer's current environment state.
func (r *Replayer) State() env.State { return r.st.State }

// Origin reports whether this replay covers the stream from the very
// beginning (no checkpoint counters skipped anything) — the case where
// the regenerated stream head-aligns with the recorded decision log.
func (r *Replayer) Origin() bool { return r.origin }

// Run streams every record in the WAL directory through Step. Undecodable
// payloads are skipped (their framing CRC passed, so they are foreign or
// future-format records); a torn tail ends the run cleanly, while sealed
// damage surfaces as wal.ErrCorrupt.
func (r *Replayer) Run(dir string) error {
	c, err := wal.OpenCursor(dir)
	if err != nil {
		return err
	}
	defer c.Close()
	for {
		b, err := c.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		rec, derr := DecodeRecord(b)
		if derr != nil {
			r.cfg.Logf("replay: skipping undecodable record: %v", derr)
			continue
		}
		if err := r.Step(rec); err != nil {
			return err
		}
	}
}

// Step applies one WAL record through the stream's replay step and,
// past the fork, emits its decision. A record the stream rejects is
// logged and skipped.
func (r *Replayer) Step(rec Record) error {
	if !r.forked && r.st.Events >= r.at {
		if err := r.fork(); err != nil {
			return err
		}
	}
	audit := r.a.Sys.SafeTable().SafeTransition
	step, err := r.st.Replay(rec, audit)
	if err != nil {
		r.cfg.Logf("replay: %v", err)
		return nil
	}
	if step.Seq == 0 || !r.forked {
		// Covered by the snapshot, or before the fork: nothing to emit,
		// and a recommendation needs no re-execution.
		return nil
	}
	switch rec.K {
	case KindEvent:
		if step.Unsafe {
			r.stats.Unsafe++
		}
		r.emit(r.st.EventDecision(step, rec.M))
	case KindTransition:
		r.stats.TransitionReward += step.Reward
	case KindRecommend:
		d, err := r.st.Decide(audit, nil, rec.M)
		if err != nil {
			return fmt.Errorf("replay: rec #%d: %w", rec.N, err)
		}
		if d.Degraded {
			r.stats.Degraded++
		}
		if d.Verdict == "unsafe" {
			r.stats.Unsafe++
		}
		if rw := r.a.SimCfg.Reward; rw != nil {
			r.stats.RecommendReward += rw.R(r.st.State, d.Action, rec.M)
		}
		r.emit(r.st.RecommendDecision(d, step.Seq, rec.M))
	}
	return nil
}

func (r *Replayer) fork() error {
	r.forked = true
	if r.mutate != nil {
		if err := r.mutate(r.a); err != nil {
			return fmt.Errorf("replay: fork mutation: %w", err)
		}
	}
	return nil
}

func (r *Replayer) emit(d Decision) {
	r.decisions = append(r.decisions, d)
	r.stats.Decisions++
}
