// Package trace is a sampling span tracer for the Jarvis pipeline: the
// causal-chain counterpart of internal/telemetry. Where telemetry answers
// "how many and how fast in aggregate", trace answers "what did THIS
// request's journey through the pipeline look like": one sampled recommend
// request yields a span tree covering the server op, queue wait, the RL
// action selection, the safety-policy audit, the anomaly score, the WAL
// append, and the online learning step, tied together by one trace ID that
// is also stamped into the daemon's decision log.
//
// The contract mirrors the telemetry layer's zero-perturbation promise:
//
//   - Tracer.Start head-samples 1-in-N requests. A disabled tracer (or an
//     unsampled request) returns a nil *Span, and every Span method is
//     nil-safe, so the instrumented hot paths pay one atomic load plus nil
//     checks — no allocations, no locks (asserted by the package tests and
//     by TestDQNUpdateTraceOverhead in internal/rl).
//   - Spans are threaded explicitly (no context.Context): call sites pass
//     the *Span down the pipeline and create children with span.Child.
//   - Timestamps are monotonic offsets from the trace's start (time.Time's
//     monotonic reading), so spans order correctly across clock steps.
//   - Trace IDs derive from a splitmix64 mix of the tracer's seed and a
//     sampled-trace counter — a daemon replaying the same traffic from the
//     same seed reproduces the same IDs, which keeps decision-log joins
//     stable across deterministic replays.
//
// Completed traces land in a bounded in-memory ring and export as JSONL or
// Chrome trace_event JSON (loadable in chrome://tracing or Perfetto); see
// export.go.
package trace

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultRingCapacity bounds a tracer's completed-trace ring when New is
// given no explicit capacity.
const DefaultRingCapacity = 256

// Tracer owns the sampling decision, the trace-ID sequence, and the ring
// of completed traces. The zero value is not usable; call New.
type Tracer struct {
	// every is the head-sampling rate: 1-in-every requests start a trace.
	// <= 0 disables tracing entirely (Start returns nil).
	every atomic.Int64
	// seq counts Start calls (sampled or not) for the 1-in-N decision.
	seq atomic.Uint64
	// ids counts sampled traces; trace i gets ID splitmix64(seed, i).
	ids  atomic.Uint64
	seed atomic.Uint64
	ring *Ring
}

// New returns a disabled tracer whose completed-trace ring holds up to
// ringCapacity traces (<= 0 uses DefaultRingCapacity). Enable with
// SetSampleEvery.
func New(ringCapacity int) *Tracer {
	if ringCapacity <= 0 {
		ringCapacity = DefaultRingCapacity
	}
	return &Tracer{ring: NewRing(ringCapacity)}
}

// SetSampleEvery sets head-based sampling to 1-in-n requests. n == 1
// traces everything; n <= 0 disables tracing.
func (t *Tracer) SetSampleEvery(n int) { t.every.Store(int64(n)) }

// SetSeed seeds the deterministic trace-ID sequence.
func (t *Tracer) SetSeed(seed uint64) { t.seed.Store(seed) }

// Enabled reports whether any request can currently be sampled.
func (t *Tracer) Enabled() bool { return t.every.Load() > 0 }

// Ring exposes the completed-trace ring.
func (t *Tracer) Ring() *Ring { return t.ring }

// Start begins a trace for one request and returns its root span, or nil
// when tracing is disabled or this request lost the 1-in-N draw. The nil
// result is the fast path: it costs one atomic load (disabled) or one
// atomic add (unsampled) and allocates nothing.
func (t *Tracer) Start(name string) *Span {
	every := t.every.Load()
	if every <= 0 {
		return nil
	}
	if n := t.seq.Add(1); (n-1)%uint64(every) != 0 {
		return nil
	}
	tr := &trace{
		tracer: t,
		id:     mix64(t.seed.Load(), t.ids.Add(1)),
		start:  time.Now(),
	}
	root := &Span{tr: tr, parent: -1, name: name}
	tr.spans = append(tr.spans, root)
	mSampled.Inc()
	return root
}

// trace is one in-flight trace: the arena its spans live in.
type trace struct {
	tracer *Tracer
	id     uint64
	start  time.Time // wall + monotonic anchor

	mu    sync.Mutex
	spans []*Span
	done  bool
}

// sinceNs returns the monotonic offset from the trace start.
func (tr *trace) sinceNs() int64 { return time.Since(tr.start).Nanoseconds() }

// Span is one timed region of a trace. A nil *Span is valid and inert:
// every method checks the receiver, so call sites thread spans without
// branching on whether the request was sampled.
type Span struct {
	tr      *trace
	idx     int32 // position in the trace's span arena
	parent  int32 // arena index of the parent; -1 for the root
	name    string
	startNs int64
	endNs   int64
	ended   bool
	annots  []Annotation
}

// Annotation is one key/value pair attached to a span. Values are strings
// so the export formats stay uniform; use AnnotateInt/AnnotateFloat for
// numbers.
type Annotation struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Child starts a sub-span. Safe for concurrent use across goroutines
// sharing one trace; nil-safe.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	tr := s.tr
	tr.mu.Lock()
	child := &Span{
		tr:      tr,
		idx:     int32(len(tr.spans)),
		parent:  s.idx,
		name:    name,
		startNs: tr.sinceNs(),
	}
	tr.spans = append(tr.spans, child)
	tr.mu.Unlock()
	mSpans.Inc()
	return child
}

// Annotate attaches a key/value pair to the span; nil-safe.
func (s *Span) Annotate(k, v string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.annots = append(s.annots, Annotation{K: k, V: v})
	s.tr.mu.Unlock()
}

// AnnotateInt attaches an integer annotation; nil-safe (the receiver is
// checked before the value is formatted, so the disabled path allocates
// nothing).
func (s *Span) AnnotateInt(k string, v int64) {
	if s == nil {
		return
	}
	s.Annotate(k, strconv.FormatInt(v, 10))
}

// AnnotateFloat attaches a float annotation; nil-safe.
func (s *Span) AnnotateFloat(k string, v float64) {
	if s == nil {
		return
	}
	s.Annotate(k, strconv.FormatFloat(v, 'g', 6, 64))
}

// TraceID returns the span's trace ID (0 for a nil span, and never 0 for a
// sampled one — the mixer maps a zero output to 1).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.tr.id
}

// End closes the span. Ending the root span completes the trace: it is
// snapshotted into an exportable TraceData and pushed onto the tracer's
// ring. Double-End is a no-op; nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	tr := s.tr
	tr.mu.Lock()
	if !s.ended {
		s.ended = true
		s.endNs = tr.sinceNs()
	}
	root := s.parent < 0
	tr.mu.Unlock()
	if root {
		tr.complete()
	}
}

// complete snapshots the trace into its exportable form and retires it to
// the ring. Runs once per trace.
func (tr *trace) complete() {
	tr.mu.Lock()
	if tr.done {
		tr.mu.Unlock()
		return
	}
	tr.done = true
	data := tr.snapshotLocked()
	tr.mu.Unlock()
	mCompleted.Inc()
	tr.tracer.ring.Push(data)
}

// snapshotLocked converts the live span arena into TraceData. Spans that
// were never ended (a handler returned early) are closed at the trace's
// completion time so durations stay well-formed.
func (tr *trace) snapshotLocked() *TraceData {
	root := tr.spans[0]
	data := &TraceData{
		ID:     IDString(tr.id),
		Name:   root.name,
		UnixNs: tr.start.UnixNano(),
		DurNs:  root.endNs - root.startNs,
		Spans:  make([]SpanData, len(tr.spans)),
	}
	for i, sp := range tr.spans {
		end := sp.endNs
		if !sp.ended {
			end = root.endNs
			if end < sp.startNs {
				end = sp.startNs
			}
		}
		sd := SpanData{
			Name:    sp.name,
			Parent:  int(sp.parent),
			StartNs: sp.startNs,
			DurNs:   end - sp.startNs,
		}
		if len(sp.annots) > 0 {
			sd.Annotations = append([]Annotation(nil), sp.annots...)
		}
		data.Spans[i] = sd
	}
	return data
}

// mix64 is the splitmix64 finalizer over (seed, n) — the same mixer the
// daemon uses for per-step learning seeds, so trace IDs are a pure function
// of the configured seed and the sampled-trace ordinal. A zero output is
// remapped to 1 because 0 is the "no trace" sentinel.
func mix64(seed, n uint64) uint64 {
	x := seed + 0x9e3779b97f4a7c15*n
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		return 1
	}
	return x
}
