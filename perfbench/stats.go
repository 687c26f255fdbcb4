package main

import (
	"math"
	"sort"
	"time"
)

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latency summarises one op's round trips: the median, and the highest of
// p99.9, p99 and p90 that has at least ten samples beyond it.
type latency struct {
	n          int
	p50        float64 // µs
	tailQ      float64 // the tail quantile reported, e.g. 0.99 (0 = too few samples)
	tail       float64 // µs
	tailBeyond int     // samples above the tail quantile
}

func summarize(ds []time.Duration) latency {
	l := latency{n: len(ds)}
	if len(ds) == 0 {
		return l
	}
	us := make([]float64, len(ds))
	for i, d := range ds {
		us[i] = float64(d) / float64(time.Microsecond)
	}
	sort.Float64s(us)
	l.p50 = median(us)
	for _, q := range []float64{0.999, 0.99, 0.9} {
		i := int(math.Ceil(q*float64(len(us)))) - 1
		if beyond := len(us) - 1 - i; beyond >= 10 {
			l.tailQ, l.tail, l.tailBeyond = q, us[i], beyond
			break
		}
	}
	return l
}

func durationsMedian(ds []time.Duration) time.Duration {
	f := make([]float64, len(ds))
	for i, d := range ds {
		f[i] = float64(d)
	}
	return time.Duration(median(f))
}
