package main

import (
	"errors"
	"time"

	"jarvis"
	"jarvis/internal/device"
	"jarvis/internal/env"
	"jarvis/internal/replay"
	"jarvis/internal/telemetry"
	"jarvis/internal/trace"
	"jarvis/internal/wire"
)

// The op core: both codecs decode into opRequests, run them through
// serveOps, and encode the opResults it hands back. Admission control,
// per-op counting, tracing, the state lock, the minute of day, the batch
// recommend memo and the one switch over ops live here, so the JSON and
// binary protocols cannot drift apart.

// op is one request operation. The binary codec's opcodes (wire.OpState
// through wire.OpLearnState) are the same numbers; promote is JSON-only.
type op uint8

const (
	opUnknown    op = 0
	opState      op = wire.OpState
	opEvent      op = wire.OpEvent
	opRecommend  op = wire.OpRecommend
	opViolations op = wire.OpViolations
	opCheckpoint op = wire.OpCheckpoint
	opLearnState op = wire.OpLearnState
	opPromote    op = wire.OpLearnState + 1
	numOps          = int(opPromote) + 1
)

// opInfo describes one op for both codecs: its JSON name, the root span
// name of a sampled trace, and its jarvisd.requests{op} counter.
type opInfo struct {
	name, span string
	requests   *telemetry.Counter
}

// ops is indexed by op, so the core's per-request bookkeeping is an array
// index; opUnknown counts every op neither codec knows.
var ops = func() (t [numOps]opInfo) {
	names := [numOps]string{"unknown", "state", "event", "recommend", "violations", "checkpoint", "learnstate", "promote"}
	for i, name := range names {
		t[i] = opInfo{name: name, span: "jarvisd." + name, requests: mRequestsVec.With(name)}
	}
	return t
}()

// parseOp maps a JSON op name onto its op (opUnknown when it names none).
func parseOp(name string) op {
	for i := 1; i < numOps; i++ {
		if ops[i].name == name {
			return op(i)
		}
	}
	return opUnknown
}

// opRequest is one request as the core sees it, whichever codec carried
// it: the op and, for an event, the device index and the device-local
// action ID. A device the codec could not resolve is -1; an action it
// could not resolve is device.NoAction, which no event may carry.
type opRequest struct {
	op  op
	dev int
	act device.ActionID
}

// opResult is the codec-neutral answer to one request. The core fills
// the server's one result (guarded by mu) per request and hands the codec
// a pointer to it, so a batch copies and allocates no results; state and
// action alias server state. A codec must therefore encode a result inside
// emit, before the core serves the next request.
type opResult struct {
	err error
	// retryAfterMs > 0 marks a recommendation shed by admission control.
	retryAfterMs int
	unsafe       bool
	minute       int
	violations   int
	state        env.State  // state and event
	action       env.Action // recommend
	q            float64
	degraded     int
	// learn is a learnstate answer's online-learning fingerprint (set
	// when hasLearn).
	hasLearn bool
	learn    learnFingerprint
	// role is the replication role; only the JSON codec carries it.
	role string
}

// learnFingerprint is the online-learning fingerprint: replay buffer size,
// ingest/learn counters, and a digest of the serialized Q function. Two
// daemons with equal fingerprints are in identical training states, which
// is what the crash-recovery and failover harnesses assert.
type learnFingerprint struct {
	replaySize, events, onlineSteps int
	learnSteps, recommends          int
	qsum                            string
}

// Errors whose text is the same on both codecs, and the three whose text
// each codec words itself (the JSON codec names the device, action or op
// it could not resolve; the binary codec sends these texts as they are).
var (
	errReadOnly      = errors.New(errFollowerReadOnly)
	errShed          = errors.New("overloaded: recommendation shed")
	errNoCheckpoint  = errors.New("daemon started without -checkpoint")
	errUnknownOp     = errors.New("unknown op")
	errUnknownDevice = errors.New("unknown device index")
	errUnknownAction = errors.New("unknown action index")
)

// shedRetryAfterMs is the back-off hint a shed recommendation carries.
const shedRetryAfterMs = 250

// maxBatch caps how many requests one lock acquisition serves. The binary
// codec coalesces up to this many already-buffered requests; JSON always
// serves a batch of one.
const maxBatch = 64

// serveOps serves one batch of at most maxBatch requests and calls emit
// with each result, in order, under the state lock. The batch counts
// toward the inflight depth admission control sheds against, and is one
// request-latency observation. Each sampled request gets a root span named
// after its op, whose queue.wait child ends once the lock is held: every
// request of a batch waited for the same acquisition. One minute of day
// serves the whole batch, so consecutive recommends can share one
// evaluation (recMemo).
func (s *server) serveOps(reqs []opRequest, emit func(*opResult)) {
	n := int64(len(reqs))
	depth := s.inflight.Add(n)
	defer s.inflight.Add(-n)
	mQueueDepth.SetInt(depth)
	if mRequestLatency.Enabled() {
		defer func(t0 time.Time) { mRequestLatency.Observe(time.Since(t0)) }(time.Now())
	}
	var spans, waits [maxBatch]*trace.Span
	for i, r := range reqs {
		ops[r.op].requests.Inc()
		if sp := s.tracer.Start(ops[r.op].span); sp != nil {
			sp.AnnotateInt("depth", depth)
			sp.AnnotateInt("batch", n)
			spans[i], waits[i] = sp, sp.Child("queue.wait")
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range waits[:len(reqs)] {
		w.End()
	}
	minute := s.minuteOfDay(time.Now())
	var memo recMemo
	res := &s.result
	for i, r := range reqs {
		*res = opResult{}
		s.do(res, r, depth, minute, spans[i], &memo)
		emit(res)
		spans[i].End()
	}
}

// recMemo is a batch's shared recommend evaluation. Consecutive
// recommends at the same state and minute are deterministic, so the
// policy runs once and each request still journals its own served
// decision. It stays because it was measured: without it, perfbench's
// recommend-binary workload spent about a quarter more CPU per op
// (DESIGN.md §13.2).
type recMemo struct {
	d  jarvis.Decision
	ok bool
}

// do serves one request into res under the state lock: the one switch
// over ops.
func (s *server) do(res *opResult, r opRequest, depth int64, minute int, sp *trace.Span, memo *recMemo) {
	res.minute = minute
	if r.op == opEvent || r.op == opCheckpoint {
		// A write: the environment or the policy may change, so a
		// memoized recommendation is stale, and a follower refuses it.
		memo.ok = false
		if s.following.Load() {
			res.err = errReadOnly
			return
		}
	}
	switch r.op {
	case opState:
		res.state, res.violations, res.role = s.stream.State, s.stream.Violations, s.role()

	case opEvent:
		switch {
		case r.dev < 0 || r.dev >= s.home.Env.K():
			res.err = errUnknownDevice
		case r.act < 0 || int(r.act) >= s.home.Env.Device(r.dev).NumActions():
			// An event acts (device.NoAction is -1), with an action
			// its device has.
			res.err = errUnknownAction
		default:
			res.unsafe, res.err = s.applyEvent(sp, depth, minute, r.dev, r.act)
			if res.err == nil {
				res.state, res.violations = s.stream.State, s.stream.Violations
			}
		}

	case opRecommend:
		if s.shedRecommend(depth) {
			s.shedRecommends++
			mShedRecommends.Inc()
			res.err, res.retryAfterMs = errShed, shedRetryAfterMs
			break
		}
		var d jarvis.Decision
		var err error
		switch {
		case s.following.Load():
			// Read-only replica serve: the decision stream (journal,
			// log, counters) belongs to the primary, so nothing is
			// memoized, journaled or logged.
			if d, err = s.sys.RecommendDecisionTraced(sp, s.stream.State, minute); err == nil {
				s.replicaReads++
				mReplicaReads.Inc()
				res.role = roleFollower
			}
		case memo.ok && sp == nil && s.decisions == nil:
			// Reuse the batch's evaluation, but journal this served
			// recommendation like any other: replay regenerates one
			// decision per journaled record. A sampled request and a
			// decision-logging daemon skip the memo, so every span tree
			// covers the selection and every served recommendation has
			// its own audit record; the result is bit-identical.
			d = memo.d
			s.journal(sp, replay.Record{K: replay.KindRecommend, N: s.stream.Served(), M: minute})
			mWireSharedEvals.Inc()
		default:
			d, err = s.recommendOne(sp, minute)
			memo.d, memo.ok = d, err == nil
		}
		if err != nil {
			res.err = err
			break
		}
		res.action, res.q, res.degraded = d.Action, d.Value, s.sys.DegradedRecommendations()

	case opViolations:
		res.violations = s.stream.Violations

	case opCheckpoint:
		if s.store == nil {
			res.err = errNoCheckpoint
			break
		}
		res.err = s.saveCheckpointLocked()

	case opLearnState:
		fp, err := s.sys.QFingerprint()
		if err != nil {
			res.err = err
			break
		}
		st := s.stream
		res.violations, res.role, res.hasLearn = st.Violations, s.role(), true
		res.learn = learnFingerprint{
			replaySize:  s.sys.Agent().ReplayBuffer().Len(),
			events:      st.Events,
			onlineSteps: st.OnlineSteps,
			learnSteps:  st.LearnSteps,
			recommends:  st.Recommends,
			qsum:        fp,
		}

	case opPromote:
		res.err = s.requestPromote()
		res.role = s.role()

	default:
		res.err = errUnknownOp
	}
}

// shedLearning reports whether the learning half of an event should be
// shed at this queue depth; shedRecommend likewise for recommendations.
// Learning sheds first (at half the threshold): the audit check and the
// state transition are the safety surface and always run, while the
// learner can catch up from later traffic. Recommendations shed last —
// they are the product — and reject loudly with a retry hint.
func (s *server) shedLearning(depth int64) bool {
	return s.cfg.MaxQueue > 0 && depth > int64(s.cfg.MaxQueue)/2
}

func (s *server) shedRecommend(depth int64) bool {
	return s.cfg.MaxQueue > 0 && depth > int64(s.cfg.MaxQueue)
}

// servedAudit is the serve path's P_safe check: counted in
// policy.audit.checks and policy.audit.denials, and traced as a
// policy.audit child of a sampled request's span. Replays audit with the
// uncounted Table.SafeTransition instead.
func (s *server) servedAudit(sp *trace.Span) replay.Audit {
	t := s.sys.SafeTable()
	return func(from, to uint64, a env.Action) bool { return t.SafeTransitionTraced(sp, from, to, a) }
}

// applyEvent is the event op once the core has checked the device and
// action: the stream's event step (transition, P_safe audit, counters),
// then the journal and, when not shed, the learner.
func (s *server) applyEvent(sp *trace.Span, depth int64, minute, di int, act device.ActionID) (unsafe bool, err error) {
	ev, err := s.stream.Event(s.servedAudit(sp), di, act)
	if err != nil {
		return false, err
	}
	s.noteStep(di, ev)
	s.journal(sp, replay.Record{K: replay.KindEvent, N: ev.Seq, M: minute, D: di, A: act, U: ev.Unsafe})
	// The audit check above is never shed; under pressure only the
	// learning ingestion below is dropped.
	if s.shedLearning(depth) {
		s.shedEvents++
		mShedEvents.Inc()
	} else {
		li := sp.Child("learn.ingest")
		s.journal(li, replay.Record{K: replay.KindTransition, N: s.stream.OnlineSteps + 1, M: minute, D: di, A: act, S: ev.Prev})
		s.noteStep(di, s.stream.Observe(li, ev.Prev, ev.Action, minute))
		li.End()
	}
	if s.decisions != nil {
		s.logDecision(sp, s.stream.EventDecision(ev, minute), 0)
	}
	return ev.Unsafe, nil
}

// recommendOne is one full recommend evaluation (shedding and the batch
// memo are the core's): the stream's policy evaluation and P_safe
// cross-check, the anomaly score, and the journaled served
// recommendation.
func (s *server) recommendOne(sp *trace.Span, minute int) (jarvis.Decision, error) {
	r, err := s.stream.Decide(s.servedAudit(sp), sp, minute)
	if err != nil {
		return jarvis.Decision{}, err
	}
	var score float64
	if s.filter != nil && r.Next != nil {
		// Score the transition through the benign-anomaly ANN — the
		// daemon's answer to "how unusual is the action I am about to
		// suggest".
		score = s.filter.ScoreTraced(sp, env.Transition{
			From: s.stream.State, Act: r.Action, To: r.Next,
			Instance: minute,
			At:       s.startOfDay.Add(time.Duration(minute) * time.Minute),
		})
	}
	// Journal the served recommendation: recovery only counts it, but the
	// offline replay engine re-executes the policy at this point in the
	// stream to regenerate (or counterfactually rewrite) the decision.
	seq := s.stream.Served()
	s.journal(sp, replay.Record{K: replay.KindRecommend, N: seq, M: minute})
	if s.decisions != nil {
		s.logDecision(sp, s.stream.RecommendDecision(r, seq, minute), score)
	}
	return r.Decision, nil
}

// noteStep bumps the daemon metrics an applied step moves, live, in boot
// replay and on a follower alike: the unsafe-event counters for a denied
// event, the learner counters for a transition, and the shadow-evaluation
// cadence on a learn step.
func (s *server) noteStep(di int, st replay.Step) {
	if st.Unsafe {
		mEventsUnsafe.Inc()
		s.mUnsafeByDevice[di].Inc()
	}
	if st.Observed {
		mOnlineObserved.Inc()
	}
	if st.Learned {
		mOnlineLearnSteps.Inc()
		s.maybeShadowEval()
	}
}
