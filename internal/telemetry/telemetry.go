// Package telemetry is a dependency-free runtime metrics layer for the
// Jarvis pipeline: atomic counters and gauges, bounded log-linear latency
// histograms with quantile estimates, all collected behind a named
// registry that serializes to one JSON snapshot.
//
// The package exists so the hot paths — the batched DQN update, the safety
// policy check, the anomaly filter score, the daemon's request loop — can
// be instrumented without perturbing what they measure. The contract:
//
//   - Counter.Inc/Add, Gauge.Set, and Histogram.Observe are allocation-free
//     and lock-free (a handful of atomic operations each), asserted by
//     testing.AllocsPerRun in the package tests.
//   - Metric handles are resolved by name once, at package init, so the hot
//     path never touches the registry's map or mutex.
//   - A registry can be disabled (SetEnabled(false)); every write then
//     reduces to one atomic load and a branch, which is how the
//     instrumented-vs-bare benchmark comparisons establish the overhead.
//
// Snapshots are taken without stopping writers: a snapshot is internally
// consistent per metric but may straddle concurrent updates across metrics,
// which is the usual and acceptable contract for scrape-style monitoring.
package telemetry

import (
	"expvar"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	en *atomic.Bool
	v  atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c.en.Load() {
		c.v.Add(1)
	}
}

// Add adds n (negative n is ignored: counters are monotone).
func (c *Counter) Add(n int64) {
	if n > 0 && c.en.Load() {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float64 value (last write wins).
type Gauge struct {
	en   *atomic.Bool
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g.en.Load() {
		g.bits.Store(math.Float64bits(v))
	}
}

// SetInt stores an integer value.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Snapshot is one JSON-ready view of a registry. Non-finite gauge values
// are sanitized to 0 so the snapshot always marshals.
type Snapshot struct {
	UnixNs     int64                        `json:"unixNs"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramStats    `json:"histograms"`
	Infos      map[string]map[string]string `json:"infos,omitempty"`
}

// Registry is a named collection of metrics. The zero value is not
// usable; call New.
type Registry struct {
	enabled atomic.Bool

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() float64
	hists    map[string]*Histogram
	infos    map[string]map[string]string
	cvecs    map[string]*CounterVec
	gvecs    map[string]*GaugeVec
	hvecs    map[string]*HistogramVec
	helps    map[string]string
}

// New returns an enabled registry.
func New() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		gaugeFns: make(map[string]func() float64),
		hists:    make(map[string]*Histogram),
		infos:    make(map[string]map[string]string),
		cvecs:    make(map[string]*CounterVec),
		gvecs:    make(map[string]*GaugeVec),
		hvecs:    make(map[string]*HistogramVec),
		helps:    make(map[string]string),
	}
	r.enabled.Store(true)
	return r
}

// Default is the process-wide registry every instrumented package resolves
// its handles from.
var Default = New()

// SetEnabled turns collection on or off. Disabled metrics keep their
// accumulated values but ignore writes.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether the registry is collecting.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// Counter returns the named counter, creating it on first use. Resolve
// handles once at init, not on the hot path.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{en: &r.enabled}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{en: &r.enabled}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a callback evaluated at snapshot time; its result
// appears among the gauges. Use it for values that already live somewhere
// (uptime, ring sizes) rather than mirroring them into a Gauge on every
// change. The callback runs outside the registry lock, so it may itself
// read registry metrics, but it must be safe to call from any goroutine.
// Re-registering a name replaces the callback.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = fn
}

// SetInfo records a labelled constant-1 info metric (build version, go
// version, ...) rendered as `name{k="v",...} 1` in the Prometheus
// exposition and under "infos" in JSON snapshots. The labels map is
// copied; re-setting a name replaces its labels.
func (r *Registry) SetInfo(name string, labels map[string]string) {
	cp := make(map[string]string, len(labels))
	for k, v := range labels {
		cp[k] = v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.infos[name] = cp
}

// SetHelp records an exposition-format help string for a metric name,
// rendered as an escaped `# HELP` line before the metric's samples. The
// name is the base (un-labeled) metric name; vec families share one help
// line across their children.
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.helps[name] = help
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(&r.enabled)
		r.hists[name] = h
	}
	return h
}

// sanitize maps non-finite values to 0 so snapshots always marshal to JSON.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	s := Snapshot{
		UnixNs:     time.Now().UnixNano(),
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)+len(r.gaugeFns)),
		Histograms: make(map[string]HistogramStats, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = sanitize(g.Value())
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Stats()
	}
	// Labeled series flatten into the same maps under name{k="v",...}
	// keys, so every snapshot consumer — jarvisctl stats, SLO objectives,
	// alert rules, the tsdb — addresses a labeled series by one string.
	for _, v := range r.cvecs {
		for _, c := range v.core.snapshot() {
			s.Counters[c.flat] = c.v.Value()
		}
	}
	for _, v := range r.gvecs {
		for _, c := range v.core.snapshot() {
			s.Gauges[c.flat] = sanitize(c.v.Value())
		}
	}
	for _, v := range r.hvecs {
		for _, c := range v.core.snapshot() {
			s.Histograms[c.flat] = c.v.Stats()
		}
	}
	if len(r.infos) > 0 {
		s.Infos = make(map[string]map[string]string, len(r.infos))
		for name, labels := range r.infos {
			s.Infos[name] = labels // never mutated after SetInfo's copy
		}
	}
	var fns map[string]func() float64
	if len(r.gaugeFns) > 0 {
		fns = make(map[string]func() float64, len(r.gaugeFns))
		for name, fn := range r.gaugeFns {
			fns[name] = fn
		}
	}
	r.mu.Unlock()
	// Gauge callbacks run outside the lock so they may touch the registry
	// (or anything that does) without deadlocking.
	for name, fn := range fns {
		s.Gauges[name] = sanitize(fn())
	}
	return s
}

// SortedNames returns the sorted keys of a snapshot section (render
// helper for CLIs).
func SortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ValidMetricName reports whether a base metric name fits the registry's
// naming contract: ^[a-z][a-z0-9._]*$ (lower-case dotted names; the
// Prometheus exporter maps dots onto underscores). The CI metric-name
// lint enforces this over every registration site; labeled series derive
// their flat names from a valid base plus a label block.
func ValidMetricName(name string) bool {
	if name == "" || name[0] < 'a' || name[0] > 'z' {
		return false
	}
	for i := 1; i < len(name); i++ {
		c := name[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '.' && c != '_' {
			return false
		}
	}
	return true
}

var expvarOnce sync.Once

// PublishExpvar registers the Default registry under the expvar name
// "telemetry" so /debug/vars exposes the same snapshot as /metrics. Safe
// to call any number of times.
func PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("telemetry", expvar.Func(func() any { return Default.Snapshot() }))
	})
}
