package telemetry

import (
	"strings"
	"testing"
)

// Windowed-quantile math: the SLO layer scores a window's histogram
// (each bucket's increase across the window, from the metric history),
// so these tests check the rank walk and the good/bad split over one
// histogram's buckets.

func TestDeltaQuantileZeroPrevIsFullHistogram(t *testing.T) {
	r := New()
	h := r.Histogram("h")
	for i := 1; i <= 100; i++ {
		h.ObserveNs(int64(i) * 1000)
	}
	p50, ok := Quantile(h.Stats(), 0.50)
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
	// A window is its buckets: lifetime scalars without buckets hold no
	// windowed observation.
	if _, ok := Quantile(HistogramStats{Count: 5, P99Ns: 5000}, 0.99); ok {
		t.Fatal("a histogram without buckets should report !ok")
	}
	if over, total := CountOver(HistogramStats{Count: 5}, 1); over != 0 || total != 0 {
		t.Fatalf("CountOver without buckets = %d/%d, want 0/0", over, total)
	}
}

func TestDeltaCountOverSplitsGoodBad(t *testing.T) {
	r := New()
	h := r.Histogram("h")
	for i := 0; i < 90; i++ {
		h.ObserveNs(1000) // well under
	}
	for i := 0; i < 10; i++ {
		h.ObserveNs(50_000_000) // well over
	}
	over, total := CountOver(h.Stats(), 10_000_000)
	if total != 100 {
		t.Fatalf("total = %d, want 100", total)
	}
	if over != 10 {
		t.Fatalf("over = %d, want 10", over)
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
