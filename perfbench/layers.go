package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// layerMetric is one per-layer metric: its name, unit, and what it is.
type layerMetric struct {
	name, unit string
}

// layerMetrics lists the --trace 1 metrics in print order. Times are the
// median self time per call of the traced in-process replay; ratios and
// rates come from the daemon's own counters of the same run.
var layerMetrics = []layerMetric{
	{"wire.decode_ns", "ns"},
	{"wire.encode_ns", "ns"},
	{"jsonlines.decode_ns", "ns"},
	{"jsonlines.encode_ns", "ns"},
	{"server.lock_wait_ns", "ns"},
	{"server.shared_eval_ratio", "ratio"},
	{"compiled.lookup_ns", "ns"},
	{"compiled.hit_ratio", "ratio"},
	{"compiled.build_ms", "ms"},
	{"compiled.build_alloc_mb", "MiB"},
	{"compiled.rebuilds_per_kevent", "count"},
	{"rl.select_ns", "ns"},
	{"rl.observe_ns", "ns"},
	{"rl.learn_ns", "ns"},
	{"rl.learn_steps", "count"},
	{"policy.audit_ns", "ns"},
	{"policy.denials", "count"},
	{"env.transition_ns", "ns"},
	{"anomaly.score_ns", "ns"},
	{"replay.encode_ns", "ns"},
	{"replay.decisionlog_ns", "ns"},
	{"wal.append_ns", "ns"},
	{"wal.bytes_per_op", "bytes"},
	{"checkpoint.save_ms", "ms"},
	{"health.shadow_ms", "ms"},
	{"health.shadow_run_ratio", "ratio"},
	{"runtime.gc_per_kop", "count"},
	{"setup.learn_ms", "ms"},
	{"setup.train_ms", "ms"},
	{"setup.compile_ms", "ms"},
	{"trace.overhead_ns_per_op", "ns"},
	{"trace.unattributed_ns_per_op", "ns"},
	{"transport_us.recommend", "us"},
	{"transport_us.event", "us"},
}

// spanMetric maps the time metrics onto the layer whose spans they read.
var spanMetric = map[string]layer{
	"wire.decode_ns":        lWireDecode,
	"wire.encode_ns":        lWireEncode,
	"jsonlines.decode_ns":   lJSONDecode,
	"jsonlines.encode_ns":   lJSONEncode,
	"server.lock_wait_ns":   lLockWait,
	"compiled.lookup_ns":    lCompiledLookup,
	"rl.select_ns":          lRLSelect,
	"rl.observe_ns":         lRLObserve,
	"rl.learn_ns":           lRLLearn,
	"policy.audit_ns":       lPolicyAudit,
	"env.transition_ns":     lEnvTransition,
	"anomaly.score_ns":      lAnomalyScore,
	"replay.encode_ns":      lReplayEncode,
	"replay.decisionlog_ns": lDecisionLog,
	"wal.append_ns":         lWALAppend,
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer is the --trace 1 metric set. An idle layer reports 0.
func perLayer(w *workload, e2e *e2eRun, un, tr, al *passResult) map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64) {
		for _, lm := range layerMetrics {
			if lm.name == name {
				m[name] = metric{v, lm.unit}
				return
			}
		}
		panic("unlisted layer metric " + name)
	}
	for name, l := range spanMetric {
		set(name, median(tr.layers[l].selfPerCall))
	}
	ms := func(l layer) float64 { return median(tr.layers[l].selfPerCall) / 1e6 }
	set("compiled.build_ms", ms(lCompiledBuild))
	set("checkpoint.save_ms", ms(lCheckpointSave))
	set("health.shadow_ms", ms(lShadow))
	var allocs []float64
	if al != nil {
		for _, b := range al.buildAllocs {
			allocs = append(allocs, float64(b)/(1<<20))
		}
	}
	set("compiled.build_alloc_mb", median(allocs))

	h, c := e2e.health, e2e.counters
	recs := float64(e2e.client.learn.Recommends)
	events := float64(e2e.client.learn.Events)
	set("server.shared_eval_ratio", ratio(float64(h.WireSharedEvals), recs))
	if cp := h.CompiledPolicy; cp != nil {
		set("compiled.hit_ratio", ratio(float64(cp.Hits), float64(cp.Hits+cp.Misses)))
		// The first compile at boot is not a serving-phase rebuild.
		set("compiled.rebuilds_per_kevent", 1000*ratio(float64(cp.Rebuilds-1), events))
	} else {
		set("compiled.hit_ratio", 0)
		set("compiled.rebuilds_per_kevent", 0)
	}
	set("rl.learn_steps", float64(h.LearnSteps))
	set("policy.denials", float64(c["policy.audit.denials"]))
	set("wal.bytes_per_op", ratio(float64(un.counts.walBytes), float64(un.ops)))
	set("health.shadow_run_ratio", ratio(float64(c["health.shadow.runs"]), float64(h.LearnSteps/shadowEvery)))
	set("runtime.gc_per_kop", 1000*ratio(float64(e2e.gcs), float64(e2e.timedOps)))
	set("setup.learn_ms", float64(tr.setup.learn)/1e6)
	set("setup.train_ms", float64(tr.setup.train)/1e6)
	set("setup.compile_ms", float64(tr.setup.compile)/1e6)

	// The whole request: the traced pass's median call time minus the
	// untraced pass's, per op kind (weighted by calls, per request), is
	// the tracing overhead — medians, because both passes' wall times are
	// dominated by however long the background rebuilds held the lock;
	// traced wall time minus the layers' self times is what no layer
	// covers (the op spans' own self time and the loop between calls);
	// the daemon's round trip minus the untraced in-process call is the
	// transport (socket, scheduling, client codec).
	var over float64
	for op, un := range un.callDur {
		over += float64(len(un)) * float64(durationsMedian(tr.callDur[op])-durationsMedian(un))
	}
	set("trace.overhead_ns_per_op", over/float64(un.timedOps))
	ops := float64(tr.ops)
	var self int64
	for l, st := range tr.layers {
		if l != int(lOp) && l != int(lCompiledBuild) && l != int(lShadow) {
			self += st.selfTotal
		}
	}
	set("trace.unattributed_ns_per_op", (float64(tr.wall)-float64(self))/ops)
	e2eMetrics := endToEnd(w, e2e)
	for _, op := range []string{opRecommend, opEvent} {
		p50, in := e2eMetrics[op+"_p50_us"].Value, un.callDur[op]
		if p50 == 0 || len(in) == 0 {
			set("transport_us."+op, 0)
			continue
		}
		set("transport_us."+op, p50-float64(durationsMedian(in))/float64(time.Microsecond))
	}
	return m
}

func printLayers(out io.Writer, tr *passResult, m map[string]metric) {
	fmt.Fprintln(out, "traced in-process replay, by layer (self time; share of the summed op time):")
	var opTotal int64 = tr.layers[lOp].selfTotal
	for l, st := range tr.layers {
		if layer(l) != lOp && layer(l) != lCompiledBuild && layer(l) != lShadow {
			opTotal += st.selfTotal
		}
	}
	order := make([]int, 0, nLayers)
	for l := range tr.layers {
		order = append(order, l)
	}
	sort.Slice(order, func(i, j int) bool { return tr.layers[order[i]].selfTotal > tr.layers[order[j]].selfTotal })
	for _, l := range order {
		st := tr.layers[l]
		if st.calls == 0 {
			continue
		}
		share := "background"
		if layer(l) != lCompiledBuild && layer(l) != lShadow {
			share = fmt.Sprintf("%5.1f%%", 100*ratio(float64(st.selfTotal), float64(opTotal)))
		}
		fmt.Fprintf(out, "  %-20s calls %-9d median self %10.0f ns  %s\n",
			layerNames[l], st.calls, median(st.selfPerCall), share)
	}
	fmt.Fprintln(out, "per-layer metrics:")
	for _, lm := range layerMetrics {
		fmt.Fprintf(out, "  %-30s %14.4f %s\n", lm.name, m[lm.name].Value, lm.unit)
	}
}
