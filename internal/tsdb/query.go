package tsdb

import (
	"sort"
	"time"

	"jarvis/internal/telemetry"
)

// Query semantics. Every window function takes [fromNs, toNs] and works
// on two edge points:
//
//   - cur  = the newest point at or before toNs,
//   - prev = the newest point at or before fromNs, falling back to the
//     oldest retained point when none precedes fromNs.
//
// That prev fallback is deliberate: during warm-up, when history is
// shorter than the window, the window starts at the first point, and the
// SLO tracker (health.Tracker, which scores Window) and a range query
// over the same span resolve the same edges. Counter deltas clamp at zero
// so a daemon restart (counter reset) reads as a quiet window, not a
// negative rate.

// Sample is one scalar observation of a series.
type Sample struct {
	TsNs  int64   `json:"tsNs"`
	Value float64 `json:"value"`
}

// EdgeBefore returns the newest point at or before cutoffNs, falling
// back to the oldest retained point. ok is false when the store is
// empty.
func (db *DB) EdgeBefore(cutoffNs int64) (Point, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.edgeBeforeLocked(cutoffNs)
}

func (db *DB) edgeBeforeLocked(cutoffNs int64) (Point, bool) {
	if len(db.points) == 0 {
		return Point{}, false
	}
	return db.points[db.edgeIndexLocked(cutoffNs)], true
}

// edgeIndexLocked indexes the newest point at or before cutoffNs, or the
// oldest point when none precedes it. The store must not be empty.
func (db *DB) edgeIndexLocked(cutoffNs int64) int {
	// First index with TsNs > cutoff; the point before it is the edge.
	i := sort.Search(len(db.points), func(i int) bool { return db.points[i].TsNs > cutoffNs })
	if i == 0 {
		return 0
	}
	return i - 1
}

// Latest returns the newest point.
func (db *DB) Latest() (Point, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.points) == 0 {
		return Point{}, false
	}
	return db.points[len(db.points)-1], true
}

// Window resolves the newest span-long window: cur is the newest point,
// prev = EdgeBefore(cur.TsNs − span), and n counts the points from prev
// to cur inclusive (0 when the store is empty, 1 when prev is cur).
func (db *DB) Window(span time.Duration) (prev, cur Point, n int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.points) == 0 {
		return Point{}, Point{}, 0
	}
	cur = db.points[len(db.points)-1]
	i := db.edgeIndexLocked(cur.TsNs - span.Nanoseconds())
	return db.points[i], cur, len(db.points) - i
}

// edges resolves the window's (prev, cur) pair.
func (db *DB) edges(fromNs, toNs int64) (prev, cur Point, ok bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	cur, ok = db.edgeBeforeLocked(toNs)
	if !ok {
		return Point{}, Point{}, false
	}
	prev, _ = db.edgeBeforeLocked(fromNs)
	return prev, cur, true
}

// lookupScalar finds a series by name in a point: counters first, then
// gauges, then histogram counts (so rate() over a histogram series is
// its observation rate).
func lookupScalar(p Point, name string) (v float64, isCounter, ok bool) {
	if c, ok := p.Counters[name]; ok {
		return float64(c), true, true
	}
	if g, ok := p.Gauges[name]; ok {
		return g, false, true
	}
	if h, ok := p.Histograms[name]; ok {
		return float64(h.Count), true, true
	}
	return 0, false, false
}

// Delta returns the change in a series across the window: cur − prev,
// clamped at zero for counters (a reset reads as zero, matching the SLO
// tracker), signed for gauges. ok is false when the series is absent
// from the window's cur edge or the store is empty.
func (db *DB) Delta(name string, fromNs, toNs int64) (float64, bool) {
	prev, cur, ok := db.edges(fromNs, toNs)
	if !ok {
		return 0, false
	}
	cv, counter, ok := lookupScalar(cur, name)
	if !ok {
		return 0, false
	}
	pv, _, _ := lookupScalar(prev, name) // absent from prev → 0 baseline
	d := cv - pv
	if counter && d < 0 {
		d = 0
	}
	return d, true
}

// Rate returns a counter series' per-second increase across the window.
// Gauge series have no rate; ok is false for them, for unknown series,
// and for windows narrower than one sample interval.
func (db *DB) Rate(name string, fromNs, toNs int64) (float64, bool) {
	prev, cur, ok := db.edges(fromNs, toNs)
	if !ok || cur.TsNs == prev.TsNs {
		return 0, false
	}
	cv, counter, ok := lookupScalar(cur, name)
	if !ok || !counter {
		return 0, false
	}
	pv, _, _ := lookupScalar(prev, name)
	d := cv - pv
	if d < 0 {
		d = 0
	}
	return d / (float64(cur.TsNs-prev.TsNs) / 1e9), true
}

// QuantileOverTime estimates the q-quantile of a histogram series'
// observations recorded inside the window, by windowed bucket
// subtraction (telemetry.DeltaQuantile). ok is false for unknown series
// and empty windows.
func (db *DB) QuantileOverTime(name string, q float64, fromNs, toNs int64) (ns int64, ok bool) {
	prev, cur, ok := db.edges(fromNs, toNs)
	if !ok {
		return 0, false
	}
	ch, ok := cur.Histograms[name]
	if !ok {
		return 0, false
	}
	return telemetry.DeltaQuantile(ch, prev.Histograms[name], q)
}

// Series returns one sample per retained point inside [fromNs, toNs] for
// a series: counter and gauge values directly; histogram series yield
// the per-point P99 in nanoseconds, which is what the fleet view
// sparklines.
func (db *DB) Series(name string, fromNs, toNs int64) []Sample {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []Sample
	for _, p := range db.points {
		if p.TsNs < fromNs || p.TsNs > toNs {
			continue
		}
		if h, ok := p.Histograms[name]; ok {
			out = append(out, Sample{TsNs: p.TsNs, Value: float64(h.P99Ns)})
			continue
		}
		if v, _, ok := lookupScalar(p, name); ok {
			out = append(out, Sample{TsNs: p.TsNs, Value: v})
		}
	}
	return out
}

// SeriesNames lists every series name in the newest point, sorted —
// the /debug/tsdb index response.
func (db *DB) SeriesNames() []string {
	p, ok := db.Latest()
	if !ok {
		return nil
	}
	names := make([]string, 0, len(p.Counters)+len(p.Gauges)+len(p.Histograms))
	for n := range p.Counters {
		names = append(names, n)
	}
	for n := range p.Gauges {
		names = append(names, n)
	}
	for n := range p.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
