package telemetry

import (
	"sync"
	"testing"
)

// Quantile edge cases: the rank walk has off-by-one hazards exactly where
// the data is degenerate — no observations, one observation, and all mass
// in a single bucket.

func TestQuantileEmptyHistogram(t *testing.T) {
	r := New()
	h := r.Histogram("h")
	s := h.Stats()
	if s.Count != 0 || s.P50Ns != 0 || s.P99Ns != 0 || len(s.Buckets) != 0 {
		t.Fatalf("empty histogram stats = %+v, want zero value", s)
	}
}

func TestQuantileSingleObservation(t *testing.T) {
	r := New()
	h := r.Histogram("h")
	h.ObserveNs(12345)
	s := h.Stats()
	if s.Count != 1 {
		t.Fatalf("count = %d", s.Count)
	}
	// With one observation every quantile is that observation, exactly: the
	// interpolated value clamps to min == max.
	for name, got := range map[string]int64{"p50": s.P50Ns, "p95": s.P95Ns, "p99": s.P99Ns} {
		if got != 12345 {
			t.Errorf("%s = %d, want 12345", name, got)
		}
	}
	if s.MinNs != 12345 || s.MaxNs != 12345 || s.MeanNs != 12345 {
		t.Errorf("min/max/mean = %d/%d/%d, want 12345 each", s.MinNs, s.MaxNs, s.MeanNs)
	}
}

func TestQuantileSinglePopulatedBucket(t *testing.T) {
	r := New()
	h := r.Histogram("h")
	// 1000 identical observations: one populated bucket; the p99 rank walk
	// must stop inside it and clamp interpolation to the exact value.
	for i := 0; i < 1000; i++ {
		h.ObserveNs(4096)
	}
	s := h.Stats()
	if s.P50Ns != 4096 || s.P95Ns != 4096 || s.P99Ns != 4096 {
		t.Fatalf("quantiles = %d/%d/%d, want 4096 each", s.P50Ns, s.P95Ns, s.P99Ns)
	}
}

func TestQuantileRankWalkDirect(t *testing.T) {
	// Drive the rank walk directly: one populated bucket far down the
	// layout, with min/max clamps wider than the bucket.
	var counts [numBuckets]int64
	bkt := bucketOf(1 << 20)
	counts[bkt] = 10
	low, width := bucketBounds(bkt)
	for _, q := range []float64{0.01, 0.5, 0.99, 1.0} {
		v := quantile(&counts, 10, q, 0, 1<<62)
		if v < low || v > low+width {
			t.Errorf("q=%g: %d outside populated bucket [%d, %d]", q, v, low, low+width)
		}
	}
	// Degenerate rank: q so small the rank clamps up to 1.
	if v := quantile(&counts, 10, 0.0, 0, 1<<62); v < low || v > low+width {
		t.Errorf("q=0: %d outside populated bucket", v)
	}
}

// TestConcurrentSnapshotDuringRecord hammers one histogram from writers
// while snapshotting; under -race this proves Stats' bucket-then-summary
// read order is safe, and every snapshot must be internally sane (ordered
// quantiles within [min, max], count never behind an earlier snapshot).
func TestConcurrentSnapshotDuringRecord(t *testing.T) {
	r := New()
	h := r.Histogram("h")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				h.ObserveNs(int64(worker*1000 + j%5000))
			}
		}(i)
	}
	var prevCount int64
	for i := 0; i < 200; i++ {
		s := h.Stats()
		if s.Count < prevCount {
			t.Fatalf("snapshot %d: count went backwards %d -> %d", i, prevCount, s.Count)
		}
		prevCount = s.Count
		if s.Count == 0 {
			continue
		}
		if s.P50Ns > s.P95Ns || s.P95Ns > s.P99Ns {
			t.Fatalf("snapshot %d: quantiles unordered %d/%d/%d", i, s.P50Ns, s.P95Ns, s.P99Ns)
		}
		if s.P50Ns < s.MinNs || s.P99Ns > s.MaxNs {
			t.Fatalf("snapshot %d: quantiles outside [min,max]: %+v", i, s)
		}
	}
	close(stop)
	wg.Wait()
}
