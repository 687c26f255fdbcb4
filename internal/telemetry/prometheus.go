package telemetry

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples, labeled
// vec families as one TYPE block with a sample per label tuple, and
// histograms as cumulative `le`-labelled bucket series plus `_sum` and
// `_count`. Metric names are sanitized to the Prometheus charset (dots
// and dashes become underscores), label values and help strings are
// escaped per the exposition grammar (`\\`, `\"` in values, `\n` in
// both), and histogram values are converted from nanoseconds to seconds
// per Prometheus convention. Only populated buckets are emitted (plus the
// mandatory `+Inf`), which keeps the 248-bucket log-linear layout from
// exploding the scrape size.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Copy the handle maps under the registry mutex, then read values from
	// atomics outside it: same straddling contract as Snapshot.
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	gaugeFns := make(map[string]func() float64, len(r.gaugeFns))
	for name, fn := range r.gaugeFns {
		gaugeFns[name] = fn
	}
	infos := make(map[string]map[string]string, len(r.infos))
	for name, labels := range r.infos {
		infos[name] = labels
	}
	cvecs := make(map[string]*CounterVec, len(r.cvecs))
	for name, v := range r.cvecs {
		cvecs[name] = v
	}
	gvecs := make(map[string]*GaugeVec, len(r.gvecs))
	for name, v := range r.gvecs {
		gvecs[name] = v
	}
	hvecs := make(map[string]*HistogramVec, len(r.hvecs))
	for name, v := range r.hvecs {
		hvecs[name] = v
	}
	helps := make(map[string]string, len(r.helps))
	for name, h := range r.helps {
		helps[name] = h
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	head := func(name, kind string) string {
		pn := promName(name)
		if h, ok := helps[name]; ok {
			bw.WriteString("# HELP " + pn + " " + escapeHelp(h) + "\n")
		}
		bw.WriteString("# TYPE " + pn + " " + kind + "\n")
		return pn
	}
	for _, name := range SortedNames(counters) {
		pn := head(name, "counter")
		bw.WriteString(pn + " " + strconv.FormatInt(counters[name].Value(), 10) + "\n")
	}
	for _, name := range SortedNames(cvecs) {
		pn := head(name, "counter")
		for _, c := range cvecs[name].core.snapshot() {
			bw.WriteString(pn + c.promLabels + " " + strconv.FormatInt(c.v.Value(), 10) + "\n")
		}
	}
	for _, name := range SortedNames(gauges) {
		pn := head(name, "gauge")
		bw.WriteString(pn + " " + formatFloat(sanitize(gauges[name].Value())) + "\n")
	}
	for _, name := range SortedNames(gvecs) {
		pn := head(name, "gauge")
		for _, c := range gvecs[name].core.snapshot() {
			bw.WriteString(pn + c.promLabels + " " + formatFloat(sanitize(c.v.Value())) + "\n")
		}
	}
	for _, name := range SortedNames(gaugeFns) {
		pn := head(name, "gauge")
		bw.WriteString(pn + " " + formatFloat(sanitize(gaugeFns[name]())) + "\n")
	}
	for _, name := range SortedNames(infos) {
		pn := head(name, "gauge")
		bw.WriteString(pn + promLabels(infos[name]) + " 1\n")
	}
	for _, name := range SortedNames(hists) {
		pn := head(name+".seconds", "histogram")
		writePromHistogram(bw, pn, "", hists[name])
	}
	for _, name := range SortedNames(hvecs) {
		pn := head(name+".seconds", "histogram")
		for _, c := range hvecs[name].core.snapshot() {
			writePromHistogram(bw, pn, c.promLabels, c.v)
		}
	}
	return bw.Flush()
}

// writePromHistogram emits one histogram as cumulative le-bucket samples.
// Bucket upper bounds come from the log-linear layout's exclusive upper
// edge (low + width), converted to seconds. labels is an optional
// pre-rendered `{k="v",...}` block merged with the le label (vec
// children).
func writePromHistogram(bw *bufio.Writer, pn, labels string, h *Histogram) {
	var counts [numBuckets]int64
	var total, sum int64
	for i := range counts {
		counts[i] = h.b[i].Load()
		total += counts[i]
	}
	sum = h.sum.Load()
	open := `{`
	var base string
	if labels != "" {
		// `{k="v"}` → `{k="v",le="..."}` for buckets, `{k="v"}` for sum/count.
		open = labels[:len(labels)-1] + ","
		base = labels
	}
	var cum int64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		cum += n
		low, width := bucketBounds(i)
		le := float64(low+width) / 1e9
		bw.WriteString(pn + "_bucket" + open + `le="` + formatFloat(le) + `"} ` + strconv.FormatInt(cum, 10) + "\n")
	}
	bw.WriteString(pn + "_bucket" + open + `le="+Inf"} ` + strconv.FormatInt(total, 10) + "\n")
	bw.WriteString(pn + "_sum" + base + " " + formatFloat(float64(sum)/1e9) + "\n")
	// Use the bucket total, not h.count, so _count always equals the +Inf
	// bucket even while writers race the scrape.
	bw.WriteString(pn + "_count" + base + " " + strconv.FormatInt(total, 10) + "\n")
}

// promName maps a dotted registry name onto the Prometheus metric charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabels renders a label set as `{k="v",...}` with keys sorted and
// values escaped per the exposition format (backslash, quote, newline).
func promLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range SortedNames(labels) {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(promName(k))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeHelp escapes a help string per the exposition format: backslash
// and newline (quotes are legal in help text).
func escapeHelp(h string) string {
	if !strings.ContainsAny(h, "\\\n") {
		return h
	}
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
