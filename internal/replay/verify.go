package replay

import (
	"errors"
	"fmt"
	"os"
)

// Source names the recorded artifacts a replay re-executes from.
type Source struct {
	// WALDir is the recorded run's write-ahead log directory.
	WALDir string
	// CheckpointPath, when non-empty, seeds the replay from the newest
	// usable checkpoint generation (the store rooted next to the path,
	// exactly as the daemon would restore it). Empty means the recorded
	// run trained fresh, and so does the replay.
	CheckpointPath string
	// CheckpointRetain matches the daemon's -checkpoint-retain (default 4).
	CheckpointRetain int
}

// prepare rebuilds the serving state the recorded run started from:
// deterministic learning assets, then either a snapshot restore (newest
// usable generation) or fresh training — mirroring newServer's
// restore-or-train decision. Returns a replayer positioned there and the
// generation it restored (0 when training fresh).
func prepare(cfg Config, src Source) (*Replayer, uint64, error) {
	cfg = cfg.withDefaults()
	a, err := Build(cfg)
	if err != nil {
		return nil, 0, err
	}
	r := NewReplayer(a, cfg)
	if src.CheckpointPath != "" {
		retain := src.CheckpointRetain
		if retain <= 0 {
			retain = 4
		}
		st, err := OpenStore(src.CheckpointPath, retain)
		if err == nil {
			ck, gen, lerr := LoadSnapshot(st, cfg, a.Home.Env.K())
			switch {
			case lerr == nil:
				if err := a.RestoreSnapshot(ck, cfg.Logf); err != nil {
					return nil, 0, err
				}
				r.SeedSnapshot(ck)
				return r, gen, nil
			case errors.Is(lerr, os.ErrNotExist):
				// Empty store: the recorded run trained fresh too.
			default:
				// Mirror the daemon: a corrupt or mismatched checkpoint falls
				// back to fresh training (and the verify will honestly report
				// any divergence that causes).
				cfg.Logf("replay: checkpoint unavailable (%v); training fresh", lerr)
			}
		} else {
			cfg.Logf("replay: checkpoint store unavailable (%v); training fresh", err)
		}
	}
	if err := a.Train(); err != nil {
		return nil, 0, err
	}
	return r, 0, nil
}

// Divergence pinpoints the first place a regenerated decision stream
// departs from its reference, with both sides of the disagreement.
type Divergence struct {
	// Index is the position within the compared window; Seq is the
	// kind-local WAL sequence number of the replayed decision.
	Index  int    `json:"index"`
	Seq    int    `json:"seq"`
	Kind   string `json:"kind"`
	Minute int    `json:"minute"`
	// Reason names the first differing field: "kind", "minute", "state",
	// "action", "q", "degraded", "verdict", "missing-recorded", or
	// "missing-replayed".
	Reason          string   `json:"reason"`
	State           []string `json:"state,omitempty"`
	RecordedAction  string   `json:"recordedAction,omitempty"`
	ReplayedAction  string   `json:"replayedAction,omitempty"`
	RecordedQ       float64  `json:"recordedQ,omitempty"`
	ReplayedQ       float64  `json:"replayedQ,omitempty"`
	RecordedVerdict string   `json:"recordedVerdict,omitempty"`
	ReplayedVerdict string   `json:"replayedVerdict,omitempty"`
}

// VerifyOptions parameterizes a verify-mode replay: same policy, same
// configuration — the regenerated decision stream must be bit-identical
// to the recorded decision log.
type VerifyOptions struct {
	Config Config
	Source Source
	// DecisionLog is the recorded decision log path (read across its
	// rotated files).
	DecisionLog string
	// AllowTruncatedTail tolerates the recorded log ending early: the
	// decision log is buffered, so a SIGKILL loses its unsynced tail while
	// the fsync-per-record WAL keeps everything. Only meaningful when the
	// replay covers the stream from the origin.
	AllowTruncatedTail bool
}

// VerifyReport is the outcome of a verify-mode replay.
type VerifyReport struct {
	Mode          string      `json:"mode"` // "verify"
	WALDir        string      `json:"walDir"`
	Restored      bool        `json:"restored"` // replay seeded from a checkpoint
	CheckpointGen uint64      `json:"checkpointGen,omitempty"`
	Replayed      StreamStats `json:"replayed"`
	// RecordedDecisions counts the decisions read from the decision log;
	// Compared is the size of the aligned comparison window; TailLoss is
	// how many replayed decisions had no recorded counterpart (tolerated
	// crash tail only when AllowTruncatedTail).
	RecordedDecisions int         `json:"recordedDecisions"`
	Compared          int         `json:"compared"`
	TailLoss          int         `json:"tailLoss,omitempty"`
	Match             bool        `json:"match"`
	Divergence        *Divergence `json:"divergence,omitempty"`
	// QFingerprint digests the replayed system's final Q function — equal
	// fingerprints across runs mean identical end states.
	QFingerprint string `json:"qFingerprint,omitempty"`
}

// Verify re-executes the recorded WAL with the run's own configuration
// and asserts the regenerated decision stream matches the recorded
// decision log bit-for-bit on the canonical fields (kind, minute, state,
// action, Q, degraded, verdict). Wall-clock-dependent fields (UnixNs,
// Trace, Anomaly) are excluded by construction — see DESIGN.md §12.
func Verify(opts VerifyOptions) (*VerifyReport, error) {
	r, gen, err := prepare(opts.Config, opts.Source)
	if err != nil {
		return nil, err
	}
	if err := r.Run(opts.Source.WALDir); err != nil {
		return nil, err
	}
	recorded, err := ReadDecisions(opts.DecisionLog)
	if err != nil {
		return nil, fmt.Errorf("replay: decision log: %w", err)
	}
	rep := &VerifyReport{
		Mode:              "verify",
		WALDir:            opts.Source.WALDir,
		Restored:          gen > 0,
		CheckpointGen:     gen,
		Replayed:          r.Stats(),
		RecordedDecisions: len(recorded),
		Match:             true,
	}
	if fp, err := r.a.Sys.QFingerprint(); err == nil {
		rep.QFingerprint = fp
	}
	replayed := r.Decisions()

	// Alignment: an origin replay regenerates the whole stream, so the
	// recorded log head-aligns with it (and may fall short only by a
	// tolerated crash tail). A snapshot-seeded replay regenerates only the
	// tail after the checkpoint, so it tail-aligns against the log.
	var window []LoggedDecision
	if r.Origin() {
		window = recorded
		if len(recorded) > len(replayed) {
			rep.Compared = len(replayed)
			rep.Match = false
			rep.Divergence = &Divergence{
				Index:  len(replayed),
				Reason: "missing-replayed",
				Kind:   recorded[len(replayed)].Kind,
				Minute: recorded[len(replayed)].Minute,
			}
			return rep, nil
		}
		if len(replayed) > len(recorded) {
			rep.TailLoss = len(replayed) - len(recorded)
			if !opts.AllowTruncatedTail {
				rep.Match = false
				d := replayed[len(recorded)]
				rep.Divergence = &Divergence{
					Index: len(recorded), Seq: d.Seq, Kind: d.Kind, Minute: d.Minute,
					Reason: "missing-recorded", ReplayedAction: d.Action,
				}
			}
		}
	} else {
		if len(recorded) < len(replayed) {
			rep.Match = false
			d := replayed[0]
			rep.Divergence = &Divergence{
				Index: 0, Seq: d.Seq, Kind: d.Kind, Minute: d.Minute,
				Reason: "missing-recorded", ReplayedAction: d.Action,
			}
			return rep, nil
		}
		window = recorded[len(recorded)-len(replayed):]
	}
	n := len(window)
	if len(replayed) < n {
		n = len(replayed)
	}
	rep.Compared = n
	for i := 0; i < n; i++ {
		if d := diffDecision(i, window[i], replayed[i]); d != nil {
			rep.Match = false
			rep.Divergence = d
			break
		}
	}
	return rep, nil
}

// diffDecision compares one recorded decision against its replayed
// counterpart on the canonical fields, reporting nil on an exact match.
func diffDecision(i int, rec LoggedDecision, rep Decision) *Divergence {
	d := &Divergence{
		Index: i, Seq: rep.Seq, Kind: rep.Kind, Minute: rep.Minute,
		State:          rep.State,
		RecordedAction: rec.Action, ReplayedAction: rep.Action,
		RecordedQ: rec.Q, ReplayedQ: rep.Q,
		RecordedVerdict: rec.Verdict, ReplayedVerdict: rep.Verdict,
	}
	switch {
	case rec.Kind != rep.Kind:
		d.Reason = "kind"
	case rec.Minute != rep.Minute:
		d.Reason = "minute"
	case !sameStrings(rec.State, rep.State):
		d.Reason = "state"
	case rec.Action != rep.Action:
		d.Reason = "action"
	case rec.Q != rep.Q:
		d.Reason = "q"
	case rec.Degraded != rep.Degraded:
		d.Reason = "degraded"
	case rec.Verdict != rep.Verdict:
		d.Reason = "verdict"
	default:
		return nil
	}
	return d
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// WhatIfOptions parameterizes a counterfactual replay: the recorded
// stream is re-executed twice from the same rebuilt base state — once
// as-recorded (baseline) and once with a substituted policy (variant,
// swapped in at the fork point) — and the two regenerated decision
// streams are diffed.
type WhatIfOptions struct {
	Config Config
	Source Source
	// At is the event sequence number to fork at: records up to event At
	// replay identically on both sides, the substitution applies from
	// there on. 0 substitutes from the very beginning.
	At int
	// PolicyQ, when non-empty, replaces the Q function from the fork on
	// (raw SaveQ bytes; see QFromPolicyFile for reading checkpoint files).
	PolicyQ []byte
	// Table, when non-empty, replaces the P_safe table from the fork on.
	Table []byte
}

// WhatIfReport is the outcome of a counterfactual replay.
type WhatIfReport struct {
	Mode   string `json:"mode"` // "whatif"
	WALDir string `json:"walDir"`
	At     int    `json:"at"`

	Baseline StreamStats `json:"baseline"`
	Variant  StreamStats `json:"variant"`
	// BaselineQ / VariantQ fingerprint each side's final Q function.
	BaselineQ string `json:"baselineQ,omitempty"`
	VariantQ  string `json:"variantQ,omitempty"`

	// Compared counts the position-aligned decision pairs; divergence is
	// a differing action or verdict (Q values differ trivially between
	// policies and are not counted).
	Compared             int     `json:"compared"`
	ActionDivergences    int     `json:"actionDivergences"`
	ActionDivergenceRate float64 `json:"actionDivergenceRate"`
	// FirstDivergenceSeq is the kind-local WAL sequence number of the
	// first divergent decision (-1 when the streams agree everywhere).
	FirstDivergenceSeq int         `json:"firstDivergenceSeq"`
	Divergence         *Divergence `json:"divergence,omitempty"`

	// RewardDelta is variant minus baseline counterfactual recommendation
	// reward; ViolationDelta likewise for safety violations (event
	// violations plus unsafe-verdict recommendations).
	RewardDelta    float64 `json:"rewardDelta"`
	ViolationDelta int     `json:"violationDelta"`
}

// WhatIf replays the recorded stream twice — as-recorded and with the
// substituted policy — and reports how the decision streams differ.
func WhatIf(opts WhatIfOptions) (*WhatIfReport, error) {
	if len(opts.PolicyQ) == 0 && len(opts.Table) == 0 {
		return nil, errors.New("replay: what-if needs a substituted policy (Q and/or table)")
	}
	run := func(mutate func(*Assets) error) (*Replayer, error) {
		r, _, err := prepare(opts.Config, opts.Source)
		if err != nil {
			return nil, err
		}
		r.ForkAt(opts.At, mutate)
		if err := r.Run(opts.Source.WALDir); err != nil {
			return nil, err
		}
		return r, nil
	}
	base, err := run(nil)
	if err != nil {
		return nil, err
	}
	vari, err := run(func(a *Assets) error {
		return a.SwapPolicy(opts.PolicyQ, opts.Table)
	})
	if err != nil {
		return nil, err
	}

	rep := &WhatIfReport{
		Mode:               "whatif",
		WALDir:             opts.Source.WALDir,
		At:                 opts.At,
		Baseline:           base.Stats(),
		Variant:            vari.Stats(),
		FirstDivergenceSeq: -1,
	}
	if fp, err := base.a.Sys.QFingerprint(); err == nil {
		rep.BaselineQ = fp
	}
	if fp, err := vari.a.Sys.QFingerprint(); err == nil {
		rep.VariantQ = fp
	}
	bd, vd := base.Decisions(), vari.Decisions()
	n := len(bd)
	if len(vd) < n {
		n = len(vd)
	}
	rep.Compared = n
	for i := 0; i < n; i++ {
		if bd[i].Action != vd[i].Action {
			rep.ActionDivergences++
		}
		if rep.FirstDivergenceSeq < 0 && (bd[i].Action != vd[i].Action || bd[i].Verdict != vd[i].Verdict) {
			rep.FirstDivergenceSeq = vd[i].Seq
			rep.Divergence = &Divergence{
				Index: i, Seq: vd[i].Seq, Kind: vd[i].Kind, Minute: vd[i].Minute,
				Reason:         "action",
				State:          vd[i].State,
				RecordedAction: bd[i].Action, ReplayedAction: vd[i].Action,
				RecordedQ: bd[i].Q, ReplayedQ: vd[i].Q,
				RecordedVerdict: bd[i].Verdict, ReplayedVerdict: vd[i].Verdict,
			}
			if bd[i].Action == vd[i].Action {
				rep.Divergence.Reason = "verdict"
			}
		}
	}
	if n > 0 {
		rep.ActionDivergenceRate = float64(rep.ActionDivergences) / float64(n)
	}
	rep.RewardDelta = rep.Variant.RecommendReward - rep.Baseline.RecommendReward
	rep.ViolationDelta = (rep.Variant.Violations + rep.Variant.Unsafe) -
		(rep.Baseline.Violations + rep.Baseline.Unsafe)
	return rep, nil
}
