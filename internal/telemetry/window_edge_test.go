package telemetry

import (
	"sync/atomic"
	"testing"
	"time"
)

// Edge cases of the one-histogram window arithmetic: an empty window
// and a window whose observations all share one bucket.

func newTestHist() *Histogram {
	en := &atomic.Bool{}
	en.Store(true)
	return newHistogram(en)
}

func TestDeltaQuantileBothEmpty(t *testing.T) {
	var zero HistogramStats
	if _, ok := Quantile(zero, 0.5); ok {
		t.Fatal("a zero-value histogram reported a non-empty window")
	}
	if over, total := CountOver(zero, 1); over != 0 || total != 0 {
		t.Fatalf("CountOver(zero) = %d/%d, want 0/0", over, total)
	}
}

func TestDeltaQuantileSingleBucketSpike(t *testing.T) {
	// A burst of identical observations: the whole window lives in one
	// bucket, so every quantile interpolates inside it.
	h := newTestHist()
	const spike = 500
	for i := 0; i < spike; i++ {
		h.Observe(10 * time.Millisecond)
	}
	cur := h.Stats()

	if _, total := CountOver(cur, 0); total != spike {
		t.Fatalf("window total = %d, want %d", total, spike)
	}
	low, width := bucketBounds(bucketOf(int64(10 * time.Millisecond)))
	for _, q := range []float64{0.01, 0.5, 0.99, 1.0} {
		ns, ok := Quantile(cur, q)
		if !ok {
			t.Fatalf("q=%v: empty window", q)
		}
		if ns < low || ns > low+width {
			t.Fatalf("q=%v landed at %dns, outside the spike bucket [%d, %d]", q, ns, low, low+width)
		}
	}
	// Quantiles are monotone across the bucket interpolation.
	p50, _ := Quantile(cur, 0.5)
	p99, _ := Quantile(cur, 0.99)
	if p99 < p50 {
		t.Fatalf("p99 (%d) < p50 (%d)", p99, p50)
	}
}

func TestDeltaCountOverSingleBucketSpikeProration(t *testing.T) {
	h := newTestHist()
	const spike = 1000
	for i := 0; i < spike; i++ {
		h.Observe(10 * time.Millisecond)
	}
	cur := h.Stats()

	// Threshold far above the spike bucket: nothing over.
	if over, total := CountOver(cur, int64(time.Second)); over != 0 || total != spike {
		t.Fatalf("high threshold: over=%d total=%d, want 0/%d", over, total, spike)
	}
	// Threshold far below: everything over.
	if over, _ := CountOver(cur, int64(time.Microsecond)); over != spike {
		t.Fatalf("low threshold: over=%d, want %d", over, spike)
	}
	// Threshold inside the spike bucket: the prorated split stays within
	// the bucket's population.
	low, width := bucketBounds(bucketOf(int64(10 * time.Millisecond)))
	mid := low + width/2
	over, total := CountOver(cur, mid)
	if total != spike {
		t.Fatalf("total = %d, want %d", total, spike)
	}
	if over <= 0 || over >= spike {
		t.Fatalf("mid-bucket threshold: over=%d, want a strict interior split of %d", over, spike)
	}
}
