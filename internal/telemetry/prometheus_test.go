package telemetry

import (
	"strconv"
	"strings"
	"testing"
)

func TestWritePrometheusScalars(t *testing.T) {
	r := New()
	r.Counter("jarvisd.requests.recommend").Add(7)
	r.Gauge("rl.train.epsilon").Set(0.25)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE jarvisd_requests_recommend counter\n",
		"jarvisd_requests_recommend 7\n",
		"# TYPE rl_train_epsilon gauge\n",
		"rl_train_epsilon 0.25\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, ".") && strings.Contains(out, "requests.") {
		t.Error("unsanitized dotted name leaked into exposition")
	}
}

func TestWritePrometheusHistogram(t *testing.T) {
	r := New()
	h := r.Histogram("rl.update.latency")
	// Two distinct buckets: 100ns x3 and ~1ms x2.
	for i := 0; i < 3; i++ {
		h.ObserveNs(100)
	}
	for i := 0; i < 2; i++ {
		h.ObserveNs(1_000_000)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "# TYPE rl_update_latency_seconds histogram\n") {
		t.Fatalf("missing histogram TYPE line:\n%s", out)
	}
	if !strings.Contains(out, `rl_update_latency_seconds_bucket{le="+Inf"} 5`) {
		t.Errorf("missing +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, "rl_update_latency_seconds_count 5") {
		t.Errorf("missing _count:\n%s", out)
	}
	wantSum := float64(3*100+2*1_000_000) / 1e9
	if !strings.Contains(out, "rl_update_latency_seconds_sum "+strconv.FormatFloat(wantSum, 'g', -1, 64)) {
		t.Errorf("missing _sum %g:\n%s", wantSum, out)
	}
	// Bucket counts must be cumulative and non-decreasing in le order.
	var prevCum int64
	var buckets int
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "rl_update_latency_seconds_bucket{") {
			continue
		}
		buckets++
		val, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if val < prevCum {
			t.Fatalf("bucket counts not cumulative: %q after %d", line, prevCum)
		}
		prevCum = val
	}
	// Two populated buckets plus +Inf.
	if buckets != 3 {
		t.Errorf("emitted %d bucket lines, want 3 (two populated + +Inf):\n%s", buckets, out)
	}
}

func TestWritePrometheusEmptyHistogram(t *testing.T) {
	r := New()
	r.Histogram("empty.hist")
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`empty_hist_seconds_bucket{le="+Inf"} 0`,
		"empty_hist_seconds_sum 0",
		"empty_hist_seconds_count 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("empty histogram missing %q:\n%s", want, out)
		}
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"jarvisd.requests.state": "jarvisd_requests_state",
		"wal-append":             "wal_append",
		"9lives":                 "_9lives",
		"ok_name:x":              "ok_name:x",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
