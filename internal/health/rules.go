// Package health watches the policy, not just the process: a shadow
// evaluator replays the recent WAL window against the live Q function to
// quantify behavioral drift, an SLO tracker scores rolling-window
// error-budget burn rates over the daemon's metric history (tsdb), and a
// rule-based alert engine raises and resolves alerts over the same
// history. The package consumes only the metric history and the replay
// verifier, so it runs entirely off the daemon's request path.
package health

import (
	"encoding/json"
	"fmt"
	"os"
)

// Severity ranks an alert. The engine treats it as opaque except for
// display; rollback eligibility is the rule's own flag.
type Severity string

const (
	SeverityInfo     Severity = "info"
	SeverityWarn     Severity = "warn"
	SeverityCritical Severity = "critical"
)

// Rule is one threshold check evaluated against every new point of the
// metric history. A rule reads one metric — a counter, a gauge (including the
// shadow evaluator's drift gauges), or a histogram quantile — compares
// it against Value with Op, and feeds the alert state machine:
//
//   - the rule must breach on For consecutive evaluations to fire
//     (flap damping on the way up), and
//   - must then be clean on ClearFor consecutive evaluations to resolve
//     (flap damping on the way down).
//
// With Delta set, the compared value is the change since the point the
// previous evaluation read (the store's newest point when the engine was
// built) rather than the cumulative value — the natural reading for
// counters ("any new restore failures?"). A counter's change is its
// reset-aware increase across the points between, a gauge's the signed
// difference. A point missing the metric entirely counts as clean data.
type Rule struct {
	Name   string `json:"name"`
	Metric string `json:"metric"`
	// Quantile selects a histogram quantile in (0,1] — e.g. 0.99 reads the
	// p99 — and makes Metric refer to a histogram. Zero reads a counter or
	// gauge. Histogram rules compare nanoseconds.
	Quantile float64 `json:"quantile,omitempty"`
	// Delta compares the change since the previous evaluation's point
	// instead of the cumulative value. For histogram rules the quantile is
	// computed over just the observations recorded since.
	Delta    bool     `json:"delta,omitempty"`
	Op       string   `json:"op"`
	Value    float64  `json:"value"`
	For      int      `json:"for,omitempty"`      // consecutive breaches to fire (default 1)
	ClearFor int      `json:"clearFor,omitempty"` // consecutive clean evals to resolve (default 2)
	Severity Severity `json:"severity,omitempty"` // default warn
	// Rollback marks the alert as a policy-divergence signal: when it
	// fires, the daemon arms the rl.Watchdog rollback path.
	Rollback    bool   `json:"rollback,omitempty"`
	Description string `json:"description,omitempty"`
}

// withDefaults fills the zero fields.
func (r Rule) withDefaults() Rule {
	if r.For <= 0 {
		r.For = 1
	}
	if r.ClearFor <= 0 {
		r.ClearFor = 2
	}
	if r.Severity == "" {
		r.Severity = SeverityWarn
	}
	return r
}

func (r Rule) validate() error {
	if r.Name == "" {
		return fmt.Errorf("rule missing name")
	}
	if r.Metric == "" {
		return fmt.Errorf("rule %q missing metric", r.Name)
	}
	switch r.Op {
	case ">", ">=", "<", "<=", "==", "!=":
	default:
		return fmt.Errorf("rule %q: unknown op %q (want > >= < <= == !=)", r.Name, r.Op)
	}
	if r.Quantile < 0 || r.Quantile > 1 {
		return fmt.Errorf("rule %q: quantile %v outside (0,1]", r.Name, r.Quantile)
	}
	return nil
}

// compare applies the rule's operator.
func (r Rule) compare(v float64) bool {
	switch r.Op {
	case ">":
		return v > r.Value
	case ">=":
		return v >= r.Value
	case "<":
		return v < r.Value
	case "<=":
		return v <= r.Value
	case "==":
		return v == r.Value
	case "!=":
		return v != r.Value
	}
	return false
}

// ParseRules decodes a rules document: either a bare JSON array of rules
// or an object with a "rules" key, so a rules file can carry a comment
// field or future settings without breaking old files.
func ParseRules(data []byte) ([]Rule, error) {
	var doc struct {
		Rules []Rule `json:"rules"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		if arrErr := json.Unmarshal(data, &doc.Rules); arrErr != nil {
			return nil, fmt.Errorf("parse alert rules: %w", err)
		}
	}
	seen := make(map[string]bool, len(doc.Rules))
	out := make([]Rule, 0, len(doc.Rules))
	for _, r := range doc.Rules {
		r = r.withDefaults()
		if err := r.validate(); err != nil {
			return nil, err
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
		out = append(out, r)
	}
	return out, nil
}

// LoadRules reads and parses a rules file.
func LoadRules(path string) ([]Rule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rules, err := ParseRules(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rules, nil
}

// DefaultRules is the built-in rule set a daemon runs when no -alert-rules
// file is given. It covers the failure modes the rest of the stack can
// already detect but could previously only count:
//
//   - policy drift and safety regression from the shadow evaluator
//     (both armed for watchdog rollback),
//   - serving degradation (degraded recommendations, restore failures),
//   - replication lag on a hot standby (the burn gauge reads zero on a
//     daemon that follows no one, so the rule is inert on primaries),
//   - observability loss (telemetry event-ring drops).
func DefaultRules() []Rule {
	rules := []Rule{
		{
			Name:   "policy-drift",
			Metric: GaugeDivergenceRate,
			Op:     ">", Value: 0.5,
			For: 1, ClearFor: 1,
			Severity: SeverityCritical,
			Rollback: true,
			Description: "shadow evaluation: live policy disagrees with the checkpoint trajectory " +
				"on a majority of recommendations",
		},
		{
			Name:   "shadow-safety-regression",
			Metric: GaugeViolationDelta,
			Op:     ">", Value: 0,
			For: 1, ClearFor: 1,
			Severity:    SeverityCritical,
			Rollback:    true,
			Description: "shadow evaluation: live policy causes more safety violations than the checkpoint trajectory",
		},
		{
			Name:   "degraded-recommendations",
			Metric: "rl.recommend.degraded",
			Delta:  true,
			Op:     ">", Value: 0,
			For: 1, ClearFor: 2,
			Severity:    SeverityCritical,
			Description: "recommendations served as degraded NoOp fallbacks since the last evaluation",
		},
		{
			Name:   "watchdog-restore-failures",
			Metric: "rl.watchdog.restore.failures",
			Delta:  true,
			Op:     ">", Value: 0,
			For: 1, ClearFor: 2,
			Severity:    SeverityCritical,
			Description: "the watchdog tripped but could not restore a checkpoint generation",
		},
		{
			Name:   "replication-lag",
			Metric: "health.slo.burn.replication-lag",
			Op:     ">", Value: 1,
			For: 2, ClearFor: 2,
			Severity: SeverityWarn,
			Description: "hot standby trails the primary past its lag budget " +
				"(gauge is absent — reads 0 — on daemons not following anyone)",
		},
	}
	for i := range rules {
		rules[i] = rules[i].withDefaults()
	}
	return rules
}
