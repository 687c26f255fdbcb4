package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// layer names one span kind: a call into one of the repository's layers,
// or the root span of one client call.
type layer uint8

const (
	lOp layer = iota // root: one client call, as the workload issues it
	lWireDecode
	lWireEncode
	lJSONDecode
	lJSONEncode
	lLockWait
	lCompiledLookup
	lCompiledBuild // async: the compiled cache's rebuild goroutine
	lRLSelect
	lRLObserve
	lRLLearn
	lPolicyAudit
	lEnvTransition
	lAnomalyScore
	lReplayEncode
	lDecisionLog
	lWALAppend
	lCheckpointSave
	lShadow // async: the shadow evaluation goroutine
	nLayers
)

var layerNames = [nLayers]string{
	lOp:             "op",
	lWireDecode:     "wire.decode",
	lWireEncode:     "wire.encode",
	lJSONDecode:     "jsonlines.decode",
	lJSONEncode:     "jsonlines.encode",
	lLockWait:       "server.lock_wait",
	lCompiledLookup: "compiled.lookup",
	lCompiledBuild:  "compiled.build",
	lRLSelect:       "rl.select",
	lRLObserve:      "rl.observe",
	lRLLearn:        "rl.learn",
	lPolicyAudit:    "policy.audit",
	lEnvTransition:  "env.transition",
	lAnomalyScore:   "anomaly.score",
	lReplayEncode:   "replay.encode",
	lDecisionLog:    "replay.decisionlog",
	lWALAppend:      "wal.append",
	lCheckpointSave: "checkpoint.save",
	lShadow:         "health.shadow",
}

// span is one recorded call. start is nanoseconds since the recorder's
// epoch and dur nanoseconds (saturating at about 4.3 s; a span is 24
// bytes because a traced run keeps millions); parent indexes the same
// slice (-1 for a root); calls > 1 marks a span that covers a loop of
// identical calls (the frames of one batch).
type span struct {
	start  int64
	dur    uint32
	id     uint32 // the client call this span belongs to
	parent int32
	layer  layer
	calls  uint16
}

func clampDur(ns int64) uint32 { return uint32(min(max(ns, 0), math.MaxUint32)) }

// recorder keeps every span in memory. The dispatch goroutine appends to
// spans without locking; the compiled rebuild and shadow goroutines append
// to async under mu. A nil recorder records nothing (the untraced pass).
type recorder struct {
	epoch time.Time
	spans []span
	mu    sync.Mutex
	async []span
}

// newRecorder sizes the span slice up front (about spans per call ×
// calls), so recording never copies it while it grows.
func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// now is the time since the recorder's epoch (0 when not recording).
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

func (r *recorder) begin(l layer, id uint32, parent int32) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{start: r.now(), id: id, parent: parent, layer: l, calls: 1})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) {
	if r != nil {
		r.spans[i].dur = clampDur(r.now() - r.spans[i].start)
	}
}

func (r *recorder) endCalls(i int32, calls int) {
	if r != nil {
		r.end(i)
		r.spans[i].calls = uint16(calls)
	}
}

// asyncSpan records a root span from a background goroutine.
func (r *recorder) asyncSpan(l layer, id uint32, start, end int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.async = append(r.async, span{start: start, dur: clampDur(end - start), id: id, parent: -1, layer: l, calls: 1})
	r.mu.Unlock()
}

// layerStats is one layer's share of a traced pass.
type layerStats struct {
	calls       int
	selfTotal   int64     // ns, summed over spans
	selfPerCall []float64 // ns, one sample per span (self ÷ calls)
}

// aggregate computes every layer's self times: a span's duration minus
// the durations of its children (the dispatch goroutine's spans nest
// without overlap, so the children's sum is the part they cover).
func (r *recorder) aggregate() [nLayers]*layerStats {
	child := make([]int64, len(r.spans))
	var n [nLayers]int
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += int64(s.dur)
		}
		n[s.layer]++
	}
	for _, s := range r.async {
		n[s.layer]++
	}
	var out [nLayers]*layerStats
	for l := range out {
		out[l] = &layerStats{selfPerCall: make([]float64, 0, n[l])}
	}
	add := func(s span, self int64) {
		st := out[s.layer]
		st.calls += int(s.calls)
		st.selfTotal += self
		st.selfPerCall = append(st.selfPerCall, float64(self)/float64(s.calls))
	}
	for i, s := range r.spans {
		add(s, int64(s.dur)-child[i])
	}
	for _, s := range r.async {
		add(s, int64(s.dur))
	}
	return out
}

// write saves every span as gzipped tab-separated lines:
// layer, call id, span index, parent index, start ns, end ns, calls.
// Background spans follow the dispatch spans with index -1.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriterSize(zw, 1<<16)
	fmt.Fprintln(bw, "layer\tcall\tspan\tparent\tstart_ns\tend_ns\tcalls")
	for i, s := range r.spans {
		fmt.Fprintf(bw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\n", layerNames[s.layer], s.id, i, s.parent, s.start, s.start+int64(s.dur), s.calls)
	}
	async := append([]span(nil), r.async...)
	sort.Slice(async, func(i, j int) bool { return async[i].start < async[j].start })
	for _, s := range async {
		fmt.Fprintf(bw, "%s\t%d\t-1\t-1\t%d\t%d\t%d\n", layerNames[s.layer], s.id, s.start, s.start+int64(s.dur), s.calls)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
