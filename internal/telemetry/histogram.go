package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram buckets: exact for values 0..7, then four log-linear
// sub-buckets per power of two up to 2^63-1, so every bucket's relative
// width is at most 25% and the whole structure is a fixed 2 KB of atomics.
// Exponents run 3..62 (int64 nanosecond observations), giving
// 8 + 60*4 = 248 buckets.
const numBuckets = 8 + (62-3+1)*4

// bucketOf maps a non-negative value onto its bucket index. Monotone:
// v1 <= v2 implies bucketOf(v1) <= bucketOf(v2).
func bucketOf(v int64) int {
	u := uint64(v)
	if u < 8 {
		return int(u)
	}
	exp := bits.Len64(u) - 1          // 3..62 for int64 inputs
	sub := (u >> (uint(exp) - 2)) & 3 // two bits below the leading bit
	return 8 + (exp-3)*4 + int(sub)
}

// bucketBounds returns the inclusive lower bound and the width of bucket i.
func bucketBounds(i int) (low, width int64) {
	if i < 8 {
		return int64(i), 1
	}
	i -= 8
	exp := uint(i/4 + 3)
	sub := int64(i % 4)
	width = 1 << (exp - 2)
	return 1<<exp + sub*width, width
}

// Histogram is a bounded-bucket latency histogram. Observe is lock- and
// allocation-free; Stats estimates p50/p95/p99 by linear interpolation
// inside the matched bucket (≤ 25% relative bucket width), clamped to the
// exact observed min/max.
type Histogram struct {
	en    *atomic.Bool
	count atomic.Int64
	sum   atomic.Int64
	min   atomic.Int64
	max   atomic.Int64
	b     [numBuckets]atomic.Int64
}

func newHistogram(en *atomic.Bool) *Histogram {
	h := &Histogram{en: en}
	h.min.Store(math.MaxInt64)
	return h
}

// Enabled reports whether observations are currently collected. Call
// sites use it to skip the time.Now() pair when telemetry is off, so a
// disabled run is indistinguishable from uninstrumented code.
func (h *Histogram) Enabled() bool { return h.en.Load() }

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNs(int64(d)) }

// ObserveNs records one latency in nanoseconds (negative clamps to 0).
func (h *Histogram) ObserveNs(ns int64) {
	if !h.en.Load() {
		return
	}
	if ns < 0 {
		ns = 0
	}
	h.b[bucketOf(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.min.Load()
		if ns >= cur || h.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// BucketCount is one populated bucket of a histogram snapshot: inclusive
// lower bound, bucket width, and the observations that landed inside.
// Exporting the raw (sparse) buckets is what lets the metric history
// window a histogram — each bucket's increase across the window — and
// re-derive quantiles over just the interval, which the cumulative
// p50/p95/p99 summaries cannot express. See Quantile and CountOver.
type BucketCount struct {
	LowNs   int64 `json:"lowNs"`
	WidthNs int64 `json:"widthNs"`
	Count   int64 `json:"count"`
}

// HistogramStats is the JSON-ready summary of a histogram.
type HistogramStats struct {
	Count  int64 `json:"count"`
	SumNs  int64 `json:"sumNs"`
	MinNs  int64 `json:"minNs"`
	MaxNs  int64 `json:"maxNs"`
	MeanNs int64 `json:"meanNs"`
	P50Ns  int64 `json:"p50Ns"`
	P95Ns  int64 `json:"p95Ns"`
	P99Ns  int64 `json:"p99Ns"`
	// Buckets lists the populated buckets in ascending order.
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Stats summarizes the histogram. An empty histogram returns the zero
// value.
func (h *Histogram) Stats() HistogramStats {
	var counts [numBuckets]int64
	var total int64
	for i := range h.b {
		counts[i] = h.b[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return HistogramStats{}
	}
	// count/sum/min/max are read after the buckets; racing writers can make
	// them momentarily ahead of the bucket totals, which quantile walking
	// below tolerates by clamping ranks to the bucket total.
	s := HistogramStats{
		Count: h.count.Load(),
		SumNs: h.sum.Load(),
		MinNs: h.min.Load(),
		MaxNs: h.max.Load(),
	}
	if s.Count > 0 {
		s.MeanNs = s.SumNs / s.Count
	}
	s.P50Ns = quantile(&counts, total, 0.50, s.MinNs, s.MaxNs)
	s.P95Ns = quantile(&counts, total, 0.95, s.MinNs, s.MaxNs)
	s.P99Ns = quantile(&counts, total, 0.99, s.MinNs, s.MaxNs)
	for i, n := range counts {
		if n == 0 {
			continue
		}
		low, width := bucketBounds(i)
		s.Buckets = append(s.Buckets, BucketCount{LowNs: low, WidthNs: width, Count: n})
	}
	return s
}

// quantile estimates the q-quantile from a bucket snapshot by rank walk
// plus intra-bucket linear interpolation, clamped to [min, max].
func quantile(counts *[numBuckets]int64, total int64, q float64, min, max int64) int64 {
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i := range counts {
		n := counts[i]
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			low, width := bucketBounds(i)
			// Position of the target rank inside this bucket, in (0, 1].
			frac := float64(rank-cum) / float64(n)
			v := low + int64(frac*float64(width))
			if v < min {
				v = min
			}
			if v > max {
				v = max
			}
			return v
		}
		cum += n
	}
	return max
}
