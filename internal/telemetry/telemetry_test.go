package telemetry

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterSemantics(t *testing.T) {
	r := New()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	c.Add(-3) // negative ignored: counters are monotone
	c.Add(0)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if same := r.Counter("c"); same != c {
		t.Error("second resolve returned a different handle")
	}
	r.SetEnabled(false)
	c.Inc()
	if got := c.Value(); got != 5 {
		t.Errorf("disabled counter moved to %d", got)
	}
	r.SetEnabled(true)
	c.Inc()
	if got := c.Value(); got != 6 {
		t.Errorf("re-enabled counter = %d, want 6", got)
	}
}

func TestGaugeSemantics(t *testing.T) {
	r := New()
	g := r.Gauge("g")
	g.Set(1.5)
	g.Set(-2.5)
	if got := g.Value(); got != -2.5 {
		t.Fatalf("gauge = %v, want -2.5", got)
	}
	g.SetInt(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
	r.SetEnabled(false)
	g.Set(99)
	if got := g.Value(); got != 7 {
		t.Errorf("disabled gauge moved to %v", got)
	}
}

func TestBucketOfMonotoneAndBounded(t *testing.T) {
	values := []int64{0, 1, 7, 8, 9, 15, 16, 100, 1000, 123456, 1 << 30, 1<<62 + 12345, math.MaxInt64}
	prev := -1
	for _, v := range values {
		b := bucketOf(v)
		if b < 0 || b >= numBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, b)
		}
		if b < prev {
			t.Fatalf("bucketOf not monotone at %d: %d < %d", v, b, prev)
		}
		prev = b
		low, width := bucketBounds(b)
		if v < low || v >= low+width {
			// The last bucket's upper bound may overflow int64; tolerate it.
			if low+width > low {
				t.Fatalf("value %d outside its bucket [%d, %d)", v, low, low+width)
			}
		}
	}
	// Exhaustive small range: every value lands in a bucket containing it.
	for v := int64(0); v < 4096; v++ {
		low, width := bucketBounds(bucketOf(v))
		if v < low || v >= low+width {
			t.Fatalf("value %d outside bucket [%d, %d)", v, low, low+width)
		}
	}
}

func TestHistogramStats(t *testing.T) {
	r := New()
	h := r.Histogram("h")
	if s := h.Stats(); s.Count != 0 {
		t.Fatalf("empty histogram stats = %+v", s)
	}
	// 1..1000 ns: p50 ≈ 500, p99 ≈ 990, exact min/max.
	for i := int64(1); i <= 1000; i++ {
		h.ObserveNs(i)
	}
	s := h.Stats()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.MinNs != 1 || s.MaxNs != 1000 {
		t.Errorf("min/max = %d/%d, want 1/1000", s.MinNs, s.MaxNs)
	}
	if s.MeanNs != 500 {
		t.Errorf("mean = %d, want 500", s.MeanNs)
	}
	// Bucket width is ≤ 25%, so the quantile estimates are within 25%.
	within := func(got, want int64, name string) {
		lo, hi := want*3/4, want*5/4
		if got < lo || got > hi {
			t.Errorf("%s = %d, want within [%d, %d]", name, got, lo, hi)
		}
	}
	within(s.P50Ns, 500, "p50")
	within(s.P95Ns, 950, "p95")
	within(s.P99Ns, 990, "p99")
	if s.P50Ns > s.P95Ns || s.P95Ns > s.P99Ns {
		t.Errorf("quantiles not ordered: %d %d %d", s.P50Ns, s.P95Ns, s.P99Ns)
	}
}

func TestHistogramNegativeClampsAndDisabled(t *testing.T) {
	r := New()
	h := r.Histogram("h")
	h.ObserveNs(-5)
	if s := h.Stats(); s.Count != 1 || s.MinNs != 0 || s.MaxNs != 0 {
		t.Fatalf("negative observation: %+v", s)
	}
	r.SetEnabled(false)
	h.ObserveNs(100)
	if h.Count() != 1 {
		t.Error("disabled histogram recorded")
	}
	if h.Enabled() {
		t.Error("Enabled() true on disabled registry")
	}
	h.Observe(3 * time.Microsecond) // still disabled; no-op
	if h.Count() != 1 {
		t.Error("disabled Observe recorded")
	}
}

func TestSnapshotJSONAndSanitize(t *testing.T) {
	r := New()
	r.Counter("reqs").Add(3)
	r.Gauge("eps").Set(0.5)
	r.Gauge("bad").Set(math.NaN())
	r.Gauge("inf").Set(math.Inf(1))
	r.Histogram("lat").ObserveNs(1000)

	s := r.Snapshot()
	if s.Counters["reqs"] != 3 || s.Gauges["eps"] != 0.5 {
		t.Fatalf("snapshot: %+v", s)
	}
	if s.Gauges["bad"] != 0 || s.Gauges["inf"] != 0 {
		t.Errorf("non-finite gauges not sanitized: %+v", s.Gauges)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	if back.Histograms["lat"].Count != 1 {
		t.Errorf("histogram lost in round-trip: %+v", back.Histograms)
	}
}

func TestSortedNames(t *testing.T) {
	m := map[string]int64{"b": 1, "a": 2, "c": 3}
	got := SortedNames(m)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("SortedNames = %v", got)
	}
}

// TestHotPathAllocationFree is the package's core contract: Counter.Inc,
// Gauge.Set and Histogram.ObserveNs allocate nothing, enabled or not.
func TestHotPathAllocationFree(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	for _, enabled := range []bool{true, false} {
		r.SetEnabled(enabled)
		if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
			t.Errorf("Counter.Inc (enabled=%v): %v allocs/op", enabled, n)
		}
		if n := testing.AllocsPerRun(1000, func() { c.Add(3) }); n != 0 {
			t.Errorf("Counter.Add (enabled=%v): %v allocs/op", enabled, n)
		}
		if n := testing.AllocsPerRun(1000, func() { g.Set(1.5) }); n != 0 {
			t.Errorf("Gauge.Set (enabled=%v): %v allocs/op", enabled, n)
		}
		if n := testing.AllocsPerRun(1000, func() { h.ObserveNs(12345) }); n != 0 {
			t.Errorf("Histogram.ObserveNs (enabled=%v): %v allocs/op", enabled, n)
		}
	}
}

// TestConcurrentScrapeAndWrite runs writers against snapshotters; the race
// detector proves the scrape-without-stopping contract.
func TestConcurrentScrapeAndWrite(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			h := r.Histogram("h")
			g := r.Gauge("g")
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(float64(j))
				h.ObserveNs(int64(j % 100000))
			}
		}()
	}
	for i := 0; i < 50; i++ {
		s := r.Snapshot()
		if _, err := json.Marshal(s); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	// Counters are monotone: a final snapshot sees at least what any earlier
	// one saw.
	s1 := r.Snapshot()
	s2 := r.Snapshot()
	if s2.Counters["c"] < s1.Counters["c"] {
		t.Errorf("counter went backwards: %d then %d", s1.Counters["c"], s2.Counters["c"])
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := New()
	c := r.Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := New()
	h := r.Histogram("h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveNs(int64(i))
	}
}
