package telemetry

import (
	"strings"
	"testing"
)

// Windowed-quantile math: the SLO layer depends on snapshot deltas being a
// faithful histogram of just the interval, so these tests drive two
// snapshots of one histogram and check the delta sees only the newer
// observations.

func TestDeltaQuantileWindowsOutOldObservations(t *testing.T) {
	r := New()
	h := r.Histogram("h")
	// First epoch: fast observations around 1µs.
	for i := 0; i < 100; i++ {
		h.ObserveNs(1000)
	}
	prev := h.Stats()
	// Second epoch: slow observations around 1ms.
	for i := 0; i < 50; i++ {
		h.ObserveNs(1_000_000)
	}
	cur := h.Stats()

	if n := DeltaCount(cur, prev); n != 50 {
		t.Fatalf("DeltaCount = %d, want 50", n)
	}
	p99, ok := DeltaQuantile(cur, prev, 0.99)
	if !ok {
		t.Fatal("DeltaQuantile not ok")
	}
	// The window contains only ~1ms samples; the cumulative p99 would be
	// dragged toward 1µs by the first epoch's 100 samples.
	if p99 < 900_000 || p99 > 1_300_000 {
		t.Fatalf("windowed p99 = %dns, want ~1ms", p99)
	}
	if full := cur.P50Ns; full > 500_000 {
		t.Fatalf("sanity: cumulative p50 = %dns, expected fast-epoch dominated", full)
	}
}

func TestDeltaQuantileZeroPrevIsFullHistogram(t *testing.T) {
	r := New()
	h := r.Histogram("h")
	for i := 1; i <= 100; i++ {
		h.ObserveNs(int64(i) * 1000)
	}
	s := h.Stats()
	p50, ok := DeltaQuantile(s, HistogramStats{}, 0.50)
	if !ok {
		t.Fatal("not ok")
	}
	// Same rank walk as Stats but without the min/max clamp; allow a bucket
	// of slack.
	if p50 < 40_000 || p50 > 70_000 {
		t.Fatalf("p50 = %dns, want ≈50µs", p50)
	}
}

func TestDeltaQuantileEmptyWindow(t *testing.T) {
	r := New()
	h := r.Histogram("h")
	h.ObserveNs(5000)
	s := h.Stats()
	if _, ok := DeltaQuantile(s, s, 0.99); ok {
		t.Fatal("empty window should report !ok")
	}
	if _, ok := DeltaQuantile(HistogramStats{}, HistogramStats{}, 0.5); ok {
		t.Fatal("two zero snapshots should report !ok")
	}
}

func TestDeltaCountOverSplitsGoodBad(t *testing.T) {
	r := New()
	h := r.Histogram("h")
	prev := h.Stats()
	for i := 0; i < 90; i++ {
		h.ObserveNs(1000) // well under
	}
	for i := 0; i < 10; i++ {
		h.ObserveNs(50_000_000) // well over
	}
	cur := h.Stats()
	over, total := DeltaCountOver(cur, prev, 10_000_000)
	if total != 100 {
		t.Fatalf("total = %d, want 100", total)
	}
	if over != 10 {
		t.Fatalf("over = %d, want 10", over)
	}
}

func TestDeltaClampsCounterReset(t *testing.T) {
	// prev claiming more observations than cur (e.g. restarted process)
	// must clamp to zero, not go negative.
	prev := HistogramStats{Buckets: []BucketCount{{LowNs: 8, WidthNs: 2, Count: 100}}}
	cur := HistogramStats{Buckets: []BucketCount{{LowNs: 8, WidthNs: 2, Count: 40}}}
	if n := DeltaCount(cur, prev); n != 0 {
		t.Fatalf("DeltaCount after reset = %d, want 0", n)
	}
	if over, total := DeltaCountOver(cur, prev, 5); over != 0 || total != 0 {
		t.Fatalf("DeltaCountOver after reset = %d/%d, want 0/0", over, total)
	}
}

func TestGaugeFuncAppearsInSnapshotAndProm(t *testing.T) {
	r := New()
	r.GaugeFunc("test.fn", func() float64 { return 42.5 })
	snap := r.Snapshot()
	if v := snap.Gauges["test.fn"]; v != 42.5 {
		t.Fatalf("gauge func value = %v, want 42.5", v)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "test_fn 42.5") {
		t.Fatalf("prometheus output missing gauge func sample:\n%s", sb.String())
	}
}

func TestGaugeFuncMayTouchRegistry(t *testing.T) {
	// The callback contract allows reading the registry; a deadlock here
	// hangs the test and fails on timeout.
	r := New()
	c := r.Counter("base")
	c.Add(7)
	r.GaugeFunc("derived", func() float64 { return float64(r.Counter("base").Value()) * 2 })
	if v := r.Snapshot().Gauges["derived"]; v != 14 {
		t.Fatalf("derived = %v, want 14", v)
	}
}

func TestSetInfoRendersLabels(t *testing.T) {
	r := New()
	r.SetInfo("build.info", map[string]string{"version": `v1.0"q\e`, "goversion": "go1.x"})
	snap := r.Snapshot()
	if snap.Infos["build.info"]["goversion"] != "go1.x" {
		t.Fatalf("snapshot infos = %+v", snap.Infos)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `build_info{goversion="go1.x",version="v1.0\"q\\e"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("prometheus output missing %q:\n%s", want, sb.String())
	}
}
