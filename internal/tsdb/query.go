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
// over the same span resolve the same edges.
//
// A counter's change across the window is its increase, as Prometheus'
// increase() computes it: the sum of the steps between consecutive
// points, where a step that drops is a counter reset (the daemon
// restarted) and the value after it counts from zero. A restart inside
// the window therefore neither reads as a negative rate nor hides the
// restarted process's counts behind the old process's higher edge.
// Histogram buckets follow the same rule, bucket by bucket.

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

// spanLocked returns the window's points, oldest first: the prev edge
// through the cur edge (just cur when prev would follow it). ok is false
// when the store is empty. The caller holds db.mu and must not keep the
// slice past it.
func (db *DB) spanLocked(fromNs, toNs int64) (pts []Point, ok bool) {
	if len(db.points) == 0 {
		return nil, false
	}
	j := db.edgeIndexLocked(toNs)
	i := min(db.edgeIndexLocked(fromNs), j)
	return db.points[i : j+1], true
}

// step is one increase step from prev to cur: a drop is a reset, after
// which cur counts from zero.
func step[T int64 | float64](prev, cur T) T {
	if cur < prev {
		return cur
	}
	return cur - prev
}

// increase sums a counter series' steps across pts; a point without the
// series reads 0.
func increase(pts []Point, name string) float64 {
	var sum, last float64
	for i, p := range pts {
		v, _, _ := lookupScalar(p, name)
		if i > 0 {
			sum += step(last, v)
		}
		last = v
	}
	return sum
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

// Delta returns the change in a series across the window: the increase
// for counters (histogram series count their observations), cur − prev
// for gauges. ok is false when the series is absent from the window's
// cur edge or the store is empty.
func (db *DB) Delta(name string, fromNs, toNs int64) (float64, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	pts, ok := db.spanLocked(fromNs, toNs)
	if !ok {
		return 0, false
	}
	cv, counter, ok := lookupScalar(pts[len(pts)-1], name)
	if !ok {
		return 0, false
	}
	if counter {
		return increase(pts, name), true
	}
	pv, _, _ := lookupScalar(pts[0], name) // absent from prev → 0 baseline
	return cv - pv, true
}

// Rate returns a counter series' per-second increase across the window.
// Gauge series have no rate; ok is false for them, for unknown series,
// and for windows narrower than one sample interval.
func (db *DB) Rate(name string, fromNs, toNs int64) (float64, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	pts, ok := db.spanLocked(fromNs, toNs)
	if !ok {
		return 0, false
	}
	prev, cur := pts[0], pts[len(pts)-1]
	if cur.TsNs == prev.TsNs {
		return 0, false
	}
	if _, counter, ok := lookupScalar(cur, name); !ok || !counter {
		return 0, false
	}
	return increase(pts, name) / (float64(cur.TsNs-prev.TsNs) / 1e9), true
}

// HistogramDelta returns the observations a histogram series recorded
// across the window, as a histogram holding only Count and Buckets: each
// bucket's increase over the window's points. ok is false for unknown
// series and an empty store.
func (db *DB) HistogramDelta(name string, fromNs, toNs int64) (telemetry.HistogramStats, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	pts, ok := db.spanLocked(fromNs, toNs)
	if !ok {
		return telemetry.HistogramStats{}, false
	}
	if _, ok := pts[len(pts)-1].Histograms[name]; !ok {
		return telemetry.HistogramStats{}, false
	}
	counts := make(map[int64]telemetry.BucketCount)
	for i := 1; i < len(pts); i++ {
		prev, k := pts[i-1].Histograms[name].Buckets, 0
		for _, b := range pts[i].Histograms[name].Buckets {
			// Both bucket lists ascend by LowNs.
			for k < len(prev) && prev[k].LowNs < b.LowNs {
				k++
			}
			var old int64
			if k < len(prev) && prev[k].LowNs == b.LowNs {
				old = prev[k].Count
			}
			if d := step(old, b.Count); d > 0 {
				acc := counts[b.LowNs]
				acc.LowNs, acc.WidthNs, acc.Count = b.LowNs, b.WidthNs, acc.Count+d
				counts[b.LowNs] = acc
			}
		}
	}
	var h telemetry.HistogramStats
	for _, b := range counts {
		h.Buckets = append(h.Buckets, b)
		h.Count += b.Count
	}
	sort.Slice(h.Buckets, func(i, j int) bool { return h.Buckets[i].LowNs < h.Buckets[j].LowNs })
	return h, true
}

// QuantileOverTime estimates the q-quantile of a histogram series'
// observations recorded inside the window (HistogramDelta), by the rank
// walk of telemetry.Quantile. ok is false for unknown series and
// empty windows.
func (db *DB) QuantileOverTime(name string, q float64, fromNs, toNs int64) (ns int64, ok bool) {
	h, ok := db.HistogramDelta(name, fromNs, toNs)
	if !ok {
		return 0, false
	}
	return telemetry.Quantile(h, q)
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
