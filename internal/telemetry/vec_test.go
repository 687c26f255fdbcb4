package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterVecBasics(t *testing.T) {
	r := New()
	v := r.CounterVec("jarvisd.requests", "op")
	v.With("recommend").Add(3)
	v.With("state").Inc()
	v.With("recommend").Inc()

	snap := r.Snapshot()
	if got := snap.Counters[`jarvisd.requests{op="recommend"}`]; got != 4 {
		t.Fatalf("recommend = %d, want 4", got)
	}
	if got := snap.Counters[`jarvisd.requests{op="state"}`]; got != 1 {
		t.Fatalf("state = %d, want 1", got)
	}
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}
}

func TestVecSameHandleOnRepeatResolve(t *testing.T) {
	r := New()
	a := r.CounterVec("x", "k").With("v")
	b := r.CounterVec("x", "k").With("v")
	if a != b {
		t.Fatal("resolving the same tuple twice returned distinct children")
	}
}

func TestVecMultiLabelFlatName(t *testing.T) {
	r := New()
	v := r.GaugeVec("replica.lag", "peer", "role")
	v.With("10.0.0.2:7777", "follower").Set(12)
	snap := r.Snapshot()
	want := `replica.lag{peer="10.0.0.2:7777",role="follower"}`
	if _, ok := snap.Gauges[want]; !ok {
		t.Fatalf("snapshot gauges missing %q; have %v", want, SortedNames(snap.Gauges))
	}
}

func TestVecLabelValueEscaping(t *testing.T) {
	r := New()
	v := r.CounterVec("weird", "k")
	v.With("a\"b\\c\nd").Inc()
	snap := r.Snapshot()
	want := `weird{k="a\"b\\c\nd"}`
	if _, ok := snap.Counters[want]; !ok {
		t.Fatalf("snapshot counters missing %q; have %v", want, SortedNames(snap.Counters))
	}
}

func TestVecCardinalityCap(t *testing.T) {
	r := New()
	v := r.CounterVec("burst", "id")
	v.SetCap(4)
	ids := []string{"a", "b", "c", "d", "e", "f"}
	for _, id := range ids {
		v.With(id).Inc()
	}
	if v.Len() != 4 {
		t.Fatalf("Len = %d, want cap 4", v.Len())
	}
	if got := r.LabelsDropped(); got != 2 {
		t.Fatalf("LabelsDropped = %d, want 2 (e and f)", got)
	}
	// Overflow writes share one detached sink: repeat writes to a rejected
	// tuple keep counting drops but never appear in snapshots.
	v.With("e").Inc()
	v.With("f").Inc()
	snap := r.Snapshot()
	for _, name := range SortedNames(snap.Counters) {
		if strings.Contains(name, `id="e"`) || strings.Contains(name, `id="f"`) {
			t.Fatalf("overflow tuple leaked into snapshot: %s", name)
		}
	}
	if got := snap.Counters["telemetry.labels.dropped"]; got != 4 {
		t.Fatalf("telemetry.labels.dropped = %d, want 4", got)
	}
}

func TestVecArityMismatchDrops(t *testing.T) {
	r := New()
	v := r.CounterVec("pair", "a", "b")
	v.With("only-one").Inc()
	if got := r.LabelsDropped(); got != 1 {
		t.Fatalf("LabelsDropped = %d, want 1", got)
	}
	if v.Len() != 0 {
		t.Fatalf("arity-mismatched tuple was interned")
	}
}

func TestVecFirstRegistrationWins(t *testing.T) {
	r := New()
	a := r.CounterVec("dup", "x")
	b := r.CounterVec("dup", "y", "z")
	if a != b {
		t.Fatal("second registration created a new vec")
	}
	// Keys stay from the first registration: a two-value With is an arity
	// mismatch against ["x"].
	b.With("1", "2").Inc()
	if r.LabelsDropped() != 1 {
		t.Fatal("arity check did not use first-registration keys")
	}
}

func TestVecHistogram(t *testing.T) {
	r := New()
	v := r.HistogramVec("lat", "op")
	h := v.With("recommend")
	for i := 0; i < 100; i++ {
		h.Observe(time.Microsecond)
	}
	snap := r.Snapshot()
	hs, ok := snap.Histograms[`lat{op="recommend"}`]
	if !ok {
		t.Fatalf("snapshot histograms missing labeled series; have %v", SortedNames(snap.Histograms))
	}
	if hs.Count != 100 {
		t.Fatalf("Count = %d, want 100", hs.Count)
	}
}

func TestVecCachedChildWriteAllocs(t *testing.T) {
	r := New()
	c := r.CounterVec("hot", "op").With("x")
	g := r.GaugeVec("hotg", "op").With("x")
	h := r.HistogramVec("hoth", "op").With("x")
	if n := testing.AllocsPerRun(200, func() {
		c.Inc()
		g.Set(1)
		h.Observe(time.Microsecond)
	}); n != 0 {
		t.Fatalf("cached-child writes allocate: %v allocs/op", n)
	}
}

func TestVecSingleLabelHitPathAllocs(t *testing.T) {
	r := New()
	v := r.CounterVec("hot", "op")
	v.With("x").Inc() // intern outside the measured loop
	vals := []string{"x"}
	if n := testing.AllocsPerRun(200, func() {
		v.core.with(vals).Inc()
	}); n != 0 {
		t.Fatalf("single-label hit path allocates: %v allocs/op", n)
	}
}

func TestVecConcurrentIntern(t *testing.T) {
	r := New()
	v := r.CounterVec("conc", "id")
	v.SetCap(1024)
	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// All goroutines fight over the same tuples.
				v.With(string(rune('a' + i%26))).Inc()
			}
		}()
	}
	wg.Wait()
	if v.Len() != 26 {
		t.Fatalf("Len = %d, want 26", v.Len())
	}
	var total int64
	snap := r.Snapshot()
	for name, n := range snap.Counters {
		if strings.HasPrefix(name, "conc{") {
			total += n
		}
	}
	if total != goroutines*perG {
		t.Fatalf("total = %d, want %d (lost increments)", total, goroutines*perG)
	}
}

func TestVecDisabledRegistry(t *testing.T) {
	r := New()
	c := r.CounterVec("off", "k").With("v")
	r.SetEnabled(false)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("disabled registry counted a vec write")
	}
}

func TestSeriesCount(t *testing.T) {
	r := New()
	r.Counter("a")
	r.Gauge("b")
	r.Histogram("c")
	v := r.CounterVec("d", "k")
	v.With("1").Inc()
	v.With("2").Inc()
	// a + b + c + the lazily-registered telemetry.labels.dropped + two vec
	// children = 6.
	if got := r.SeriesCount(); got != 6 {
		t.Fatalf("SeriesCount = %d, want 6", got)
	}
}

func TestValidMetricName(t *testing.T) {
	good := []string{"a", "jarvisd.requests", "rl.update.latency", "x_y.z9"}
	bad := []string{"", "9a", "A.b", "a-b", "a b", "a{k=\"v\"}", ".a", "_a"}
	for _, n := range good {
		if !ValidMetricName(n) {
			t.Errorf("ValidMetricName(%q) = false, want true", n)
		}
	}
	for _, n := range bad {
		if ValidMetricName(n) {
			t.Errorf("ValidMetricName(%q) = true, want false", n)
		}
	}
}
