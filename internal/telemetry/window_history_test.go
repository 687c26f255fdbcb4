package telemetry_test

import (
	"testing"
	"time"

	"jarvis/internal/telemetry"
	"jarvis/internal/tsdb"
)

// A window of a histogram is what the SLO layer scores: snapshots of the
// histogram recorded in the metric history, each bucket's increase across
// them (tsdb.HistogramDelta), then the rank walk of telemetry.Quantile.
// These tests drive snapshots through that path and check the window holds
// exactly the observations made inside it.

// window records snaps one second apart in a memory-only history and
// returns the histogram of the window from the first to the last.
func window(t *testing.T, snaps ...telemetry.HistogramStats) telemetry.HistogramStats {
	t.Helper()
	db, err := tsdb.Open("", tsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sec := int64(time.Second)
	for i, s := range snaps {
		p := tsdb.Point{TsNs: int64(i+1) * sec, Histograms: map[string]telemetry.HistogramStats{"h": s}}
		if err := db.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	h, ok := db.HistogramDelta("h", sec, int64(len(snaps))*sec)
	if !ok {
		t.Fatal("HistogramDelta: histogram missing from the window")
	}
	return h
}

func TestDeltaQuantileWindowsOutOldObservations(t *testing.T) {
	h := telemetry.New().Histogram("h")
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

	w := window(t, prev, cur)
	if w.Count != 50 {
		t.Fatalf("window count = %d, want 50", w.Count)
	}
	p99, ok := telemetry.Quantile(w, 0.99)
	if !ok {
		t.Fatal("window reported empty")
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

func TestDeltaQuantileIdenticalSnapshotsIsEmptyWindow(t *testing.T) {
	h := telemetry.New().Histogram("h")
	for i := 0; i < 50; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.Stats()
	// Two identical snapshots: zero observations in the window, however
	// much lifetime history the histogram carries.
	w := window(t, s, s)
	if _, ok := telemetry.Quantile(w, 0.99); ok {
		t.Fatal("identical snapshots reported a non-empty window")
	}
	if over, total := telemetry.CountOver(w, 0); w.Count != 0 || over != 0 || total != 0 {
		t.Fatalf("window count = %d, CountOver = %d/%d, want 0 and 0/0", w.Count, over, total)
	}
}

func TestDeltaQuantileCounterResetAfterRestart(t *testing.T) {
	// Before the restart: a long-lived histogram with plenty of slow
	// observations.
	before := telemetry.New().Histogram("h")
	for i := 0; i < 1000; i++ {
		before.Observe(100 * time.Millisecond)
	}
	prev := before.Stats()

	// The daemon restarts: the histogram starts over and records a few
	// fast observations. Every bucket count is now below prev's.
	after := telemetry.New().Histogram("h")
	for i := 0; i < 10; i++ {
		after.Observe(time.Microsecond)
	}
	cur := after.Stats()

	// The reset neither goes negative nor carries the pre-restart tail
	// into the window: it holds the successor's observations only.
	w := window(t, prev, cur)
	if w.Count != 10 {
		t.Fatalf("window count = %d, want 10 (post-restart observations only)", w.Count)
	}
	for _, b := range w.Buckets {
		if b.Count <= 0 {
			t.Fatalf("non-positive bucket in the window: %+v", b)
		}
	}
	q, ok := telemetry.Quantile(w, 0.99)
	if !ok {
		t.Fatal("post-restart window reported empty")
	}
	if q > int64(10*time.Microsecond) {
		t.Fatalf("p99 = %dns, want ~1µs (the pre-restart 100ms tail must not survive the reset)", q)
	}
}
