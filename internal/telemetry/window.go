package telemetry

import "math"

// Windowed histogram arithmetic: the SLO and alerting layers score
// latency objectives over a window of the metric history, not over the
// process lifetime. The history (internal/tsdb's HistogramDelta) builds
// the window's histogram, each bucket's increase across the window; these
// functions read one histogram's sparse buckets, so they serve a window
// and a lifetime snapshot alike.

// Quantile estimates the q-quantile of a histogram's bucketed
// observations by the same rank walk and intra-bucket interpolation Stats
// uses. ok is false when the buckets hold no observations.
func Quantile(h HistogramStats, q float64) (ns int64, ok bool) {
	var total int64
	for _, b := range h.Buckets {
		total += b.Count
	}
	if total <= 0 {
		return 0, false
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for _, b := range h.Buckets {
		if cum+b.Count >= rank {
			frac := float64(rank-cum) / float64(b.Count)
			return b.LowNs + int64(frac*float64(b.WidthNs)), true
		}
		cum += b.Count
	}
	last := h.Buckets[len(h.Buckets)-1]
	return last.LowNs + last.WidthNs, true
}

// CountOver returns how many of a histogram's bucketed observations
// exceeded thresholdNs, plus their total — the good/bad split a latency
// SLO scores. The bucket straddling the threshold is prorated linearly,
// so the split degrades gracefully with the ≤25% bucket width instead of
// snapping to a bucket edge.
func CountOver(h HistogramStats, thresholdNs int64) (over, total int64) {
	for _, b := range h.Buckets {
		total += b.Count
		switch {
		case b.LowNs > thresholdNs:
			over += b.Count
		case b.LowNs+b.WidthNs <= thresholdNs:
			// entirely at or under the threshold
		default:
			inside := float64(thresholdNs-b.LowNs+1) / float64(b.WidthNs)
			over += b.Count - int64(inside*float64(b.Count))
		}
	}
	return over, total
}
