package health

import (
	"fmt"
	"time"

	"jarvis/internal/telemetry"
	"jarvis/internal/tsdb"
)

// Objective is one service-level objective scored over the tracker's
// rolling window. Exactly one of four kinds, chosen by which fields are
// set:
//
//   - latency: Histogram + ThresholdNs — the fraction of window
//     observations at or under ThresholdNs must be ≥ Target;
//   - ratio: Bad + Total counters — the windowed Bad/Total fraction must
//     stay ≤ 1−Target;
//   - budget: Counter + Budget — at most Budget windowed increments;
//   - gauge: Gauge + Budget — the gauge's current level must stay at or
//     under Budget. Unlike the windowed kinds, this scores an
//     instantaneous level (e.g. replication lag in records), so burn is
//     simply level/Budget at the newest point.
type Objective struct {
	Name string `json:"name"`
	// Target is the good fraction for latency and ratio kinds, e.g. 0.99.
	Target float64 `json:"target,omitempty"`

	Histogram   string `json:"histogram,omitempty"`
	ThresholdNs int64  `json:"thresholdNs,omitempty"`

	Bad   string `json:"bad,omitempty"`
	Total string `json:"total,omitempty"`

	Counter string  `json:"counter,omitempty"`
	Budget  float64 `json:"budget,omitempty"`

	// Gauge names a telemetry gauge whose current value is the objective's
	// level; a gauge missing from the snapshot reads as zero.
	Gauge string `json:"gauge,omitempty"`
}

func (o Objective) kind() string {
	switch {
	case o.Histogram != "":
		return "latency"
	case o.Gauge != "":
		return "gauge"
	case o.Counter != "":
		return "budget"
	default:
		return "ratio"
	}
}

func (o Objective) validate() error {
	switch o.kind() {
	case "latency":
		if o.ThresholdNs <= 0 || o.Target <= 0 || o.Target >= 1 {
			return fmt.Errorf("objective %q: latency kind needs thresholdNs > 0 and target in (0,1)", o.Name)
		}
	case "budget":
		if o.Budget <= 0 {
			return fmt.Errorf("objective %q: budget kind needs budget > 0", o.Name)
		}
	case "gauge":
		if o.Budget <= 0 {
			return fmt.Errorf("objective %q: gauge kind needs budget > 0", o.Name)
		}
	case "ratio":
		if o.Bad == "" || o.Total == "" || o.Target <= 0 || o.Target >= 1 {
			return fmt.Errorf("objective %q: ratio kind needs bad, total, and target in (0,1)", o.Name)
		}
	}
	if o.Name == "" {
		return fmt.Errorf("objective missing name")
	}
	return nil
}

// ObjectiveStatus is one objective scored over the current window.
type ObjectiveStatus struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Target float64 `json:"target,omitempty"`
	Budget float64 `json:"budget,omitempty"`
	Good   int64   `json:"good"`
	Bad    int64   `json:"bad"`
	Total  int64   `json:"total"`
	// BadFraction is Bad/Total over the window (0 when the window is empty).
	BadFraction float64 `json:"badFraction"`
	// BurnRate is the error-budget burn: badFraction / (1 − target) for
	// latency and ratio kinds, windowed-count / budget for budget kinds.
	// 1.0 means the window consumes its budget exactly; > 1 is out of SLO.
	BurnRate float64 `json:"burnRate"`
	// P99Ns reports the windowed p99 for latency objectives.
	P99Ns int64 `json:"p99Ns,omitempty"`
	Met   bool  `json:"met"`
}

// Report is the /debug/slo document.
type Report struct {
	WindowMs int64 `json:"windowMs"`
	// SpanMs is how much of the window the stored points actually cover.
	SpanMs int64 `json:"spanMs"`
	// Samples counts the stored points the window spans, both edges
	// included.
	Samples    int               `json:"samples"`
	Objectives []ObjectiveStatus `json:"objectives"`
}

// Tracker scores objectives over the newest window of the daemon's metric
// history: from the newest point at or before the store's newest minus
// the window (tsdb.DB.Window) through the newest, by each counter's
// increase and each latency histogram's bucket increases across the
// window's points (tsdb.DB.Delta, HistogramDelta), so a restart inside
// the window counts the restarted process's observations. The store is
// the only window authority — the tracker keeps no samples and reads no
// clock, since points carry their own time — so /debug/slo and a
// /debug/tsdb range query over the same span agree by construction. Burn
// rates are published as gauges (health.slo.burn.<name>) so alert rules
// can fire on them.
type Tracker struct {
	store      *tsdb.DB
	window     time.Duration
	objectives []Objective
	burn       map[string]*telemetry.Gauge
}

// NewTracker builds a tracker over store. Window <= 0 defaults to 10
// minutes.
func NewTracker(store *tsdb.DB, window time.Duration, objectives []Objective, reg *telemetry.Registry) (*Tracker, error) {
	if window <= 0 {
		window = 10 * time.Minute
	}
	if reg == nil {
		reg = telemetry.Default
	}
	t := &Tracker{
		store:  store,
		window: window,
		burn:   make(map[string]*telemetry.Gauge, len(objectives)),
	}
	for _, o := range objectives {
		if err := o.validate(); err != nil {
			return nil, err
		}
		t.objectives = append(t.objectives, o)
		t.burn[o.Name] = reg.Gauge("health.slo.burn." + o.Name)
	}
	return t, nil
}

// Publish re-scores every objective over the store's newest window and
// republishes its burn-rate gauge. The daemon calls it once per tick,
// right after appending that tick's point.
func (t *Tracker) Publish() {
	for _, st := range t.Report().Objectives {
		t.burn[st.Name].Set(st.BurnRate)
	}
}

// Report scores every objective over the window [EdgeBefore(latest −
// window), latest]. One point is an empty window: a store that has seen
// a single point scores no burn, whatever its counters held at boot.
func (t *Tracker) Report() Report {
	prev, cur, n := t.store.Window(t.window)
	r := Report{
		WindowMs:   t.window.Milliseconds(),
		SpanMs:     (cur.TsNs - prev.TsNs) / int64(time.Millisecond),
		Samples:    n,
		Objectives: make([]ObjectiveStatus, 0, len(t.objectives)),
	}
	for _, o := range t.objectives {
		r.Objectives = append(r.Objectives, t.score(o, prev, cur))
	}
	return r
}

// score scores one objective over the window between the prev and cur
// points.
func (t *Tracker) score(o Objective, prev, cur tsdb.Point) ObjectiveStatus {
	st := ObjectiveStatus{Name: o.Name, Kind: o.kind(), Target: o.Target, Budget: o.Budget}
	counterDelta := func(name string) int64 {
		d, _ := t.store.Delta(name, prev.TsNs, cur.TsNs)
		return int64(d)
	}
	var level float64 // gauge kind only
	switch st.Kind {
	case "latency":
		h, _ := t.store.HistogramDelta(o.Histogram, prev.TsNs, cur.TsNs)
		over, total := telemetry.CountOver(h, o.ThresholdNs)
		st.Bad, st.Total, st.Good = over, total, total-over
		if p99, ok := telemetry.Quantile(h, 0.99); ok {
			st.P99Ns = p99
		}
	case "ratio":
		st.Bad = counterDelta(o.Bad)
		st.Total = counterDelta(o.Total)
		if st.Bad > st.Total { // racing snapshot straddle
			st.Bad = st.Total
		}
		st.Good = st.Total - st.Bad
	case "budget":
		st.Bad = counterDelta(o.Counter)
		st.Total = st.Bad
	case "gauge":
		// An instantaneous level, not a windowed delta: only the newest
		// point matters, and negatives clamp to an empty budget.
		if level = cur.Gauges[o.Gauge]; level < 0 {
			level = 0
		}
		st.Bad = int64(level)
		st.Total = st.Bad
	}
	if st.Total > 0 {
		st.BadFraction = float64(st.Bad) / float64(st.Total)
	}
	switch {
	case st.Kind == "budget":
		st.BurnRate = float64(st.Bad) / o.Budget
	case st.Kind == "gauge":
		st.BurnRate = level / o.Budget
	case o.Target < 1:
		st.BurnRate = st.BadFraction / (1 - o.Target)
	}
	st.Met = st.BurnRate <= 1
	return st
}
