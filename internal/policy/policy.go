// Package policy implements the Security Policy Learner (SPL) of the
// Jarvis paper (Algorithm 1 and Section V-A3). During a learning phase the
// SPL observes the environment's naturally occurring trigger→action
// behavior, filters benign anomalies with an ANN-backed filter, counts each
// (state, action) pair, and whitelists the transitions whose instance count
// exceeds the environment threshold Thresh_env. The result is the safe
// state-transition table P_safe that constrains the RL agent's exploration.
package policy

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"jarvis/internal/device"
	"jarvis/internal/env"
)

// Filter decides whether an observed transition is a benign anomaly
// (device malfunction, human error) that must be removed from the training
// data before it is learned as "natural" behavior. The ANN of
// internal/anomaly implements it; a nil Filter keeps everything.
type Filter interface {
	BenignAnomaly(tr env.Transition) bool
}

// FilterFunc adapts a function to the Filter interface.
type FilterFunc func(env.Transition) bool

// BenignAnomaly implements Filter.
func (f FilterFunc) BenignAnomaly(tr env.Transition) bool { return f(tr) }

var _ Filter = FilterFunc(nil)

// Table is the safe state-transition probability table P_safe. As in the
// paper, whitelisted transitions share a uniform distribution and all other
// transitions have probability zero, so the table is represented as a set
// of (S, S') composite-state key pairs. The zero value is an empty table.
type Table struct {
	safe map[uint64]map[uint64]bool
	// allowIdle treats S→S (the all-NoAction transition) as implicitly
	// safe. Idle intervals dominate real logs and are always "natural".
	allowIdle bool
	// manual holds manually specified always-safe device actions — the
	// paper's Section V-B1 adjustment for behavior that cannot be learned
	// from natural progression (fail-safes, emergency responses).
	manual map[manualKey]bool
}

type manualKey struct {
	dev int
	act device.ActionID
}

// NewTable returns an empty P_safe. allowIdle controls whether identity
// transitions are implicitly safe (the paper's learning episodes observe
// idle intervals constantly, so Jarvis enables it).
func NewTable(allowIdle bool) *Table {
	return &Table{safe: make(map[uint64]map[uint64]bool), allowIdle: allowIdle}
}

// Allow whitelists the transition from → to.
func (t *Table) Allow(from, to uint64) {
	m, ok := t.safe[from]
	if !ok {
		m = make(map[uint64]bool)
		t.safe[from] = m
	}
	m[to] = true
}

// Safe reports whether P_safe[from, to] is non-zero.
func (t *Table) Safe(from, to uint64) bool {
	if t.allowIdle && from == to {
		return true
	}
	return t.safe[from][to]
}

// SafeSuccessors returns the whitelisted successor state keys of from, in
// ascending order (deterministic iteration for the RL agent).
func (t *Table) SafeSuccessors(from uint64) []uint64 {
	m := t.safe[from]
	out := make([]uint64, 0, len(m))
	for to := range m {
		out = append(out, to)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Each calls fn for every explicitly whitelisted transition, in
// deterministic (ascending from, then to) order.
func (t *Table) Each(fn func(from, to uint64)) {
	froms := make([]uint64, 0, len(t.safe))
	for from := range t.safe {
		froms = append(froms, from)
	}
	sort.Slice(froms, func(i, j int) bool { return froms[i] < froms[j] })
	for _, from := range froms {
		for _, to := range t.SafeSuccessors(from) {
			fn(from, to)
		}
	}
}

// Len returns the number of explicitly whitelisted transitions.
func (t *Table) Len() int {
	n := 0
	for _, m := range t.safe {
		n += len(m)
	}
	return n
}

// AllowIdle reports the table's idle policy.
func (t *Table) AllowIdle() bool { return t.allowIdle }

// AllowManual marks a device action as manually sanctioned: any composite
// action consisting solely of manually sanctioned device actions is safe
// regardless of the learned whitelist. This is the paper's escape hatch
// for safety policies that cannot be learned from natural behavior
// (Section V-B1) — fail-safes like powering the HVAC off.
func (t *Table) AllowManual(dev int, act device.ActionID) {
	if t.manual == nil {
		t.manual = make(map[manualKey]bool)
	}
	t.manual[manualKey{dev: dev, act: act}] = true
}

// ManualAllowed reports whether composite action a is non-trivial and
// every device action it takes is manually sanctioned.
func (t *Table) ManualAllowed(a env.Action) bool {
	if t.manual == nil {
		return false
	}
	acted := false
	for dev, act := range a {
		if act == device.NoAction {
			continue
		}
		acted = true
		if !t.manual[manualKey{dev: dev, act: act}] {
			return false
		}
	}
	return acted
}

// SafeTransition combines the learned state-level whitelist with the
// manual action-level policies: a transition is safe when its (S, S') pair
// is whitelisted or the action is manually sanctioned.
func (t *Table) SafeTransition(from, to uint64, a env.Action) bool {
	return t.Safe(from, to) || t.ManualAllowed(a)
}

// tableJSON is the serialized form of a Table.
type tableJSON struct {
	AllowIdle bool                `json:"allowIdle"`
	Safe      map[string][]uint64 `json:"safe"`
	// Manual lists the manually sanctioned device actions as [device,
	// action] pairs, sorted; omitted when there are none, so a table
	// without them serializes as it always has.
	Manual [][2]int `json:"manual,omitempty"`
}

// Save writes the table as JSON: the learned whitelist and the manual
// allowances, so a restored table audits exactly like the saved one.
func (t *Table) Save(w io.Writer) error {
	out := tableJSON{AllowIdle: t.allowIdle, Safe: make(map[string][]uint64, len(t.safe))}
	for from := range t.safe {
		out.Safe[fmt.Sprint(from)] = t.SafeSuccessors(from)
	}
	for k := range t.manual {
		out.Manual = append(out.Manual, [2]int{k.dev, int(k.act)})
	}
	sort.Slice(out.Manual, func(i, j int) bool {
		a, b := out.Manual[i], out.Manual[j]
		return a[0] < b[0] || a[0] == b[0] && a[1] < b[1]
	})
	if err := json.NewEncoder(w).Encode(out); err != nil {
		return fmt.Errorf("policy: save table: %w", err)
	}
	return nil
}

// Fingerprint digests the serialized table (SHA-256, hex): a stable
// identity for one learned P_safe, used by replay reports to show which
// safety table produced a decision stream. Deterministic because the JSON
// encoder sorts map keys and successor lists are emitted sorted.
func (t *Table) Fingerprint() (string, error) {
	var b bytes.Buffer
	if err := t.Save(&b); err != nil {
		return "", err
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// LoadTable reads a table saved with Save.
func LoadTable(r io.Reader) (*Table, error) {
	var in tableJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("policy: load table: %w", err)
	}
	t := NewTable(in.AllowIdle)
	for fromStr, tos := range in.Safe {
		var from uint64
		if _, err := fmt.Sscan(fromStr, &from); err != nil {
			return nil, fmt.Errorf("policy: load table: bad key %q: %w", fromStr, err)
		}
		for _, to := range tos {
			t.Allow(from, to)
		}
	}
	for _, m := range in.Manual {
		if m[0] < 0 || m[1] < 0 {
			return nil, fmt.Errorf("policy: load table: bad manual allowance %v", m)
		}
		t.AllowManual(m[0], device.ActionID(m[1]))
	}
	return t, nil
}

// Config parameterizes the SPL.
type Config struct {
	// ThreshEnv is the instance-count threshold a (state, action) pair
	// must exceed to be whitelisted. The paper recommends 0 for smart
	// homes, where safety is critical: any observed natural transition is
	// whitelisted, nothing else.
	ThreshEnv int
	// Filter removes benign anomalies from the training data (Filter_ANN
	// in Algorithm 1). Nil keeps every observation.
	Filter Filter
	// AllowIdle marks identity transitions implicitly safe.
	AllowIdle bool
}

// Learner is the SPL: it accumulates trigger→action observations from
// learning episodes and produces P_safe.
type Learner struct {
	env      *env.Environment
	cfg      Config
	counts   map[[2]uint64]int // (stateKey, actionKey) -> instance count
	filtered int               // observations removed by the filter
	observed int
}

// NewLearner creates an SPL for the environment.
func NewLearner(e *env.Environment, cfg Config) *Learner {
	return &Learner{env: e, cfg: cfg, counts: make(map[[2]uint64]int)}
}

// Observe feeds one learning episode into the learner (the inner loop of
// Algorithm 1): each transition is filtered, then its (S, A) count is
// incremented.
func (l *Learner) Observe(ep env.Episode) {
	// Iterate the episode in place rather than materializing a
	// []Transition: learning phases feed tens of thousands of transitions
	// through here and the expansion used to dominate the allocation
	// profile. The Transition struct is only built when a filter needs it.
	// Consecutive identical (S, A) keys — idle minutes dominate real logs —
	// are run-length batched so the counts map is touched once per run.
	observedBefore, filteredBefore := l.observed, l.filtered
	var lastKey [2]uint64
	pending := 0
	for t := range ep.Actions {
		l.observed++
		if l.cfg.Filter != nil {
			tr := env.Transition{
				From:     ep.States[t],
				Act:      ep.Actions[t],
				To:       ep.States[t+1],
				Instance: t,
				At:       ep.At(t),
			}
			if l.cfg.Filter.BenignAnomaly(tr) {
				l.filtered++
				continue
			}
		}
		key := [2]uint64{l.env.StateKey(ep.States[t]), l.env.ActionKey(ep.Actions[t])}
		if pending > 0 && key == lastKey {
			pending++
			continue
		}
		if pending > 0 {
			l.counts[lastKey] += pending
		}
		lastKey, pending = key, 1
	}
	if pending > 0 {
		l.counts[lastKey] += pending
	}
	// One batched telemetry write per episode, not per transition.
	mObserved.Add(int64(l.observed - observedBefore))
	mFiltered.Add(int64(l.filtered - filteredBefore))
}

// ObserveAll feeds a batch of learning episodes.
func (l *Learner) ObserveAll(eps []env.Episode) {
	for _, ep := range eps {
		l.Observe(ep)
	}
}

// Observed returns the total number of transitions seen and the number
// removed by the benign-anomaly filter.
func (l *Learner) Observed() (total, filtered int) { return l.observed, l.filtered }

// Behavior is one observed trigger→action pair with its instance count.
type Behavior struct {
	State  uint64
	Action uint64
	Count  int
}

// Behaviors returns every counted (state, action) pair above the
// threshold, in deterministic order — the raw safe T/A behavior the
// Table II analysis reports.
func (l *Learner) Behaviors() []Behavior {
	out := make([]Behavior, 0, len(l.counts))
	for key, count := range l.counts {
		if count <= l.cfg.ThreshEnv {
			continue
		}
		out = append(out, Behavior{State: key[0], Action: key[1], Count: count})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].State != out[j].State {
			return out[i].State < out[j].State
		}
		return out[i].Action < out[j].Action
	})
	return out
}

// Table finalizes P_safe (the second loop of Algorithm 1): every (S, A)
// whose count exceeds ThreshEnv contributes P_safe[S, Δ(S, A)] = 1.
func (l *Learner) Table() *Table {
	t := NewTable(l.cfg.AllowIdle)
	for key, count := range l.counts {
		if count <= l.cfg.ThreshEnv {
			continue
		}
		s := l.env.DecodeState(key[0])
		a := l.env.DecodeAction(key[1])
		next, err := l.env.Transition(s, a)
		if err != nil {
			continue // stale observation no longer valid under the FSM
		}
		t.Allow(key[0], l.env.StateKey(next))
	}
	return t
}

// Violation is a flagged unsafe transition.
type Violation struct {
	Episode  int
	Instance int
	From     env.State
	Act      env.Action
	To       env.State
}

func (v Violation) String() string {
	return fmt.Sprintf("episode %d instance %d: unsafe transition", v.Episode, v.Instance)
}

// FlagEpisodes checks episodes against P_safe and returns every transition
// whose (S, S') pair is not whitelisted. This is the enforcement path the
// security evaluation of Section VI-B exercises.
func FlagEpisodes(e *env.Environment, t *Table, eps []env.Episode) []Violation {
	var out []Violation
	checks := 0
	for i, ep := range eps {
		checks += len(ep.Actions)
		for ti := range ep.Actions {
			from, to := e.StateKey(ep.States[ti]), e.StateKey(ep.States[ti+1])
			if !t.SafeTransition(from, to, ep.Actions[ti]) {
				out = append(out, Violation{
					Episode:  i,
					Instance: ti,
					From:     ep.States[ti],
					Act:      ep.Actions[ti],
					To:       ep.States[ti+1],
				})
			}
		}
	}
	mAuditChecks.Add(int64(checks))
	mAuditDenials.Add(int64(len(out)))
	return out
}
