package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"jarvis"
	"jarvis/internal/anomaly"
	"jarvis/internal/checkpoint"
	"jarvis/internal/compiled"
	"jarvis/internal/device"
	"jarvis/internal/env"
	"jarvis/internal/health"
	"jarvis/internal/replay"
	"jarvis/internal/rl"
	"jarvis/internal/wal"
	"jarvis/internal/wire"
)

// The in-process replay feeds a run's request stream through the same
// public calls jarvisd's dispatch makes, in the same order, against assets
// built the way jarvisd builds them (replay.Build, Assets.Train, the same
// WAL, checkpoint store, decision log, compiled cache and shadow
// evaluator). It runs in three modes: untraced (the oracle's expected
// answers and the in-process latency baseline), traced (one span per layer
// call), and alloc (untraced, counting the compiled rebuilds' allocations
// with runtime.ReadMemStats, which stops the world and so never runs
// beside spans).
type passMode int

const (
	passUntraced passMode = iota
	passTraced
	passAlloc
)

// daemonSeed is jarvisd's default -seed: the learning phase's seed. The
// workload seed only shapes the request stream.
const daemonSeed = 1

// shadowEvery is jarvisd's default -shadow-every.
const shadowEvery = 32

// engine is one in-process replay of a plan.
type engine struct {
	cfg  replay.Config
	sys  *jarvis.System
	e    *env.Environment
	lock *stateLock
	rec  *recorder
	mode passMode

	state, scratch env.State
	violations     int
	events         int
	onlineSteps    int
	learnSteps     int
	recommends     int
	denials        int
	sharedEvals    int
	shadowRuns     atomic.Int64

	wal      *wal.Log
	store    *checkpoint.Store
	dlog     *replay.DecisionLog
	shadow   *health.Shadow
	shadowWG sync.WaitGroup
	filter   *anomaly.Filter
	dayStart time.Time

	// walBytes totals every appended record; walSizes holds each record's
	// on-disk size by kind, indexed by sequence number - 1.
	walBytes int64
	walSizes map[string][]int64

	// buildAllocs holds the bytes each serving-phase compiled rebuild
	// allocated (alloc pass only; guarded by lock.mu).
	buildAllocs []uint64

	// Binary codec scratch, reused across calls as jarvisd's serve loop does.
	reqs       []wire.Request
	resps      []wire.Response
	out        []byte
	wireState  []uint8
	wireAction []int16

	err error // first dispatch failure
}

// stateLock is the mutex jarvisd's dispatch and the compiled cache share.
// The cache locks it through Lock/Unlock (it is the cache's sync.Locker)
// only to rebuild, so the time between those calls is one rebuild; the
// dispatch takes the inner mutex directly and times its wait.
type stateLock struct {
	mu      sync.Mutex
	g       *engine
	serving bool // set once set-up is done; set-up's compile is timed apart

	building      atomic.Bool // the cache holds the lock for a rebuild
	start         int64
	rebuilds      uint64
	allocs        runtime.MemStats
	currentCallID uint32
}

func (l *stateLock) Lock() {
	l.mu.Lock()
	l.building.Store(true)
	if !l.serving {
		return
	}
	if c := l.g.sys.CompiledPolicy(); c != nil {
		l.rebuilds = c.Stats().Rebuilds
	}
	if l.g.mode == passAlloc {
		runtime.ReadMemStats(&l.allocs)
	}
	l.start = l.g.rec.now()
}

func (l *stateLock) Unlock() {
	if l.serving {
		if c := l.g.sys.CompiledPolicy(); c != nil && c.Stats().Rebuilds > l.rebuilds {
			if l.g.mode == passAlloc {
				before := l.allocs.TotalAlloc
				runtime.ReadMemStats(&l.allocs)
				l.g.buildAllocs = append(l.g.buildAllocs, l.allocs.TotalAlloc-before)
			}
			l.g.rec.asyncSpan(lCompiledBuild, l.currentCallID, l.start, l.g.rec.now())
		}
	}
	l.building.Store(false)
	l.mu.Unlock()
}

// setupTimes are the in-process set-up phases jarvisd's boot runs.
type setupTimes struct {
	learn, train, compile time.Duration
}

// newEngine builds the workload's daemon state in-process, in the order
// jarvisd's newServer does.
func newEngine(w *workload, dir string, mode passMode, rec *recorder) (*engine, setupTimes, error) {
	var st setupTimes
	g := &engine{
		mode:     mode,
		rec:      rec,
		walSizes: map[string][]int64{},
		dayStart: time.Now().Truncate(24 * time.Hour),
		cfg: replay.Config{
			Seed:             daemonSeed,
			LearningDays:     7,
			Episodes:         60,
			OnlineTrainEvery: 4,
			AnomalyFilter:    w.anomaly,
			UseDNN:           w.dnn,
		},
	}
	g.lock = &stateLock{g: g}
	t := time.Now()
	a, err := replay.Build(g.cfg)
	if err != nil {
		return nil, st, err
	}
	st.learn = time.Since(t)
	g.sys, g.e, g.filter = a.Sys, a.Home.Env, a.Sys.Filter()
	g.state = a.Home.InitialState()
	if w.durable {
		ckDir := filepath.Join(dir, "ck")
		if err := os.MkdirAll(ckDir, 0o755); err != nil {
			return nil, st, err
		}
		g.store, err = checkpoint.OpenStore(ckDir, "jarvisd.ckpt", 4, func() int64 { return time.Now().UnixNano() })
		if err != nil {
			return nil, st, err
		}
		g.dlog, err = replay.OpenDecisionLog(filepath.Join(dir, "decisions.log"), replay.LogOptions{})
		if err != nil {
			return nil, st, err
		}
	}
	t = time.Now()
	if err := a.Train(); err != nil {
		return nil, st, err
	}
	st.train = time.Since(t)
	if g.store != nil {
		if err := g.saveCheckpoint(); err != nil {
			return nil, st, err
		}
	}
	g.sys.Agent().AttachWatchdog(rl.WatchdogConfig{})
	if w.durable {
		g.wal, err = wal.Open(filepath.Join(dir, "wal"), wal.Options{Policy: wal.SyncEveryRecord})
		if err != nil {
			return nil, st, err
		}
	}
	if !w.compiledOff {
		t = time.Now()
		if err := g.sys.EnableCompiledPolicy(g.lock, compiled.Options{}); err != nil {
			return nil, st, fmt.Errorf("compiled policy: %w", err)
		}
		st.compile = time.Since(t)
	}
	if w.durable {
		g.shadow = health.NewShadow(health.ShadowConfig{
			Config: g.cfg,
			Source: replay.Source{
				WALDir:           filepath.Join(dir, "wal"),
				CheckpointPath:   filepath.Join(dir, "ck", "jarvisd.ckpt"),
				CheckpointRetain: 4,
			},
			Devices: g.e.K(),
		})
	}
	g.lock.serving = true
	return g, st, nil
}

// acquire takes the state lock for one dispatch, timing the wait.
func (g *engine) acquire(id uint32, parent int32) {
	sp := g.rec.begin(lLockWait, id, parent)
	// jarvisd's clients leave the lock free between requests, and a pending
	// compiled rebuild takes it then. The replay has no such gap, so it lets
	// a pending rebuild take the lock first; the wait lands here, as the
	// rebuild's lock hold does in jarvisd.
	if c := g.sys.CompiledPolicy(); c != nil {
		for c.Policy() == nil && !g.lock.building.Load() {
			if st := c.Stats(); st.Disabled || st.LastError != "" {
				break
			}
			runtime.Gosched()
		}
	}
	g.lock.mu.Lock()
	g.rec.end(sp)
	g.lock.currentCallID = id
}

func (g *engine) release() { g.lock.mu.Unlock() }

func (g *engine) fail(err error) {
	if g.err == nil {
		g.err = err
	}
}

// event is jarvisd's applyEvent: audit against P_safe, apply, journal,
// feed the learner, log the decision.
func (g *engine) event(id uint32, parent int32, di int, act device.ActionID) bool {
	e := g.e
	a := env.NoOp(e.K())
	a[di] = act
	sp := g.rec.begin(lEnvTransition, id, parent)
	next, err := e.Transition(g.state, a)
	var from, to uint64
	if err == nil {
		from, to = e.StateKey(g.state), e.StateKey(next)
	}
	g.rec.end(sp)
	if err != nil {
		g.fail(fmt.Errorf("event %d on device %d: %w", act, di, err))
		return false
	}
	sp = g.rec.begin(lPolicyAudit, id, parent)
	unsafe := !g.sys.SafeTable().SafeTransitionTraced(nil, from, to, a)
	g.rec.end(sp)
	if unsafe {
		g.violations++
		g.denials++
	}
	prev := g.state
	g.state = next
	g.events++
	g.journal(id, parent, replay.Record{K: replay.KindEvent, N: g.events, M: fixedMinute, D: di, A: act, U: unsafe})
	g.journal(id, parent, replay.Record{K: replay.KindTransition, N: g.onlineSteps + 1, M: fixedMinute, D: di, A: act, S: prev})
	g.ingest(id, parent, prev, a)
	if g.dlog != nil {
		verdict := "safe"
		if unsafe {
			verdict = "unsafe"
		}
		g.logDecision(id, parent, replay.LoggedDecision{
			Kind: "event", Minute: fixedMinute,
			State: stateNames(e, g.state), Action: e.FormatAction(a), Verdict: verdict,
		})
	}
	return unsafe
}

// ingest is jarvisd's ingestTransition: observe, and every fourth
// transition one learn step seeded by (daemon seed, transition count).
// The rl.learn span also covers the shadow evaluation's Q capture, which
// jarvisd makes inside the learn step's critical section.
func (g *engine) ingest(id uint32, parent int32, prev env.State, a env.Action) {
	g.onlineSteps++
	sp := g.rec.begin(lRLObserve, id, parent)
	_, _, err := g.sys.ObserveTransition(prev, a, fixedMinute)
	g.rec.end(sp)
	if err != nil {
		g.fail(err)
		return
	}
	if g.onlineSteps%g.cfg.OnlineTrainEvery != 0 {
		return
	}
	sp = g.rec.begin(lRLLearn, id, parent)
	ran, err := g.sys.LearnOnline(rl.StepRNG(g.cfg.Seed, g.onlineSteps))
	if err != nil {
		g.fail(err)
	} else if ran {
		g.learnSteps++
		g.maybeShadow(id)
	}
	g.rec.end(sp)
}

// maybeShadow is jarvisd's maybeShadowEval: every 32 learn steps, capture
// Q under the lock and replay the WAL window off it.
func (g *engine) maybeShadow(id uint32) {
	if g.shadow == nil || g.learnSteps%shadowEvery != 0 || !g.shadow.TryBegin() {
		return
	}
	var buf bytes.Buffer
	if err := g.sys.SaveQ(&buf); err != nil {
		g.shadow.FailCapture(err)
		return
	}
	run := func() {
		start := g.rec.now()
		if g.shadow.Run(buf.Bytes()) != nil {
			g.shadowRuns.Add(1)
		}
		g.rec.asyncSpan(lShadow, id, start, g.rec.now())
	}
	if g.mode == passAlloc {
		// Inline, so no allocation of the replay lands inside a rebuild's
		// window.
		run()
		return
	}
	g.shadowWG.Add(1)
	go func() {
		defer g.shadowWG.Done()
		run()
	}()
}

// recommend is jarvisd's recommendOne: the compiled table when it is
// clean, else the agent; the P_safe cross-check; the anomaly score; the
// journal record and the decision log line.
func (g *engine) recommend(id uint32, parent int32) jarvis.Decision {
	e := g.e
	var d jarvis.Decision
	served := false
	if c := g.sys.CompiledPolicy(); c != nil {
		if p := c.Policy(); p != nil {
			sp := g.rec.begin(lCompiledLookup, id, parent)
			cd, ok := p.Lookup(g.state, fixedMinute)
			g.rec.end(sp)
			if ok {
				c.Hit()
				d, served = jarvis.Decision{Action: cd.Action, Value: cd.Value, Degraded: cd.Degraded}, true
			}
		}
	}
	if !served {
		sp := g.rec.begin(lRLSelect, id, parent)
		var err error
		d, err = g.sys.RecommendDecision(g.state, fixedMinute)
		g.rec.end(sp)
		if err != nil {
			g.fail(err)
			return d
		}
	}
	verdict := "safe"
	if d.Degraded {
		verdict = "degraded"
	}
	if g.scratch == nil {
		g.scratch = make(env.State, e.K())
	}
	var score float64
	sp := g.rec.begin(lEnvTransition, id, parent)
	terr := e.TransitionInto(g.scratch, g.state, d.Action)
	var from, to uint64
	if terr == nil {
		from, to = e.StateKey(g.state), e.StateKey(g.scratch)
	}
	g.rec.end(sp)
	if terr == nil {
		sp = g.rec.begin(lPolicyAudit, id, parent)
		safe := g.sys.SafeTable().SafeTransitionTraced(nil, from, to, d.Action)
		g.rec.end(sp)
		if !safe {
			verdict = "unsafe"
			g.denials++
		}
		if g.filter != nil {
			sp = g.rec.begin(lAnomalyScore, id, parent)
			score = g.filter.ScoreTraced(nil, env.Transition{
				From: g.state, Act: d.Action, To: g.scratch,
				Instance: fixedMinute,
				At:       g.dayStart.Add(fixedMinute * time.Minute),
			})
			g.rec.end(sp)
		}
	}
	g.recommends++
	g.journal(id, parent, replay.Record{K: replay.KindRecommend, N: g.recommends, M: fixedMinute})
	if g.dlog != nil {
		g.logDecision(id, parent, replay.LoggedDecision{
			Kind: "recommend", Minute: fixedMinute,
			State: stateNames(e, g.state), Action: e.FormatAction(d.Action),
			Q: d.Value, Anomaly: score, Degraded: d.Degraded, Verdict: verdict,
		})
	}
	return d
}

// journal is jarvisd's journal: encode the record, append it to the WAL.
func (g *engine) journal(id uint32, parent int32, r replay.Record) {
	if g.wal == nil {
		return
	}
	sp := g.rec.begin(lReplayEncode, id, parent)
	b, err := r.Encode()
	g.rec.end(sp)
	if err != nil {
		g.fail(err)
		return
	}
	before := g.wal.SizeBytes()
	sp = g.rec.begin(lWALAppend, id, parent)
	err = g.wal.Append(b)
	g.rec.end(sp)
	if err != nil {
		g.fail(err)
		return
	}
	n := g.wal.SizeBytes() - before
	g.walBytes += n
	g.walSizes[r.K] = append(g.walSizes[r.K], n)
}

func (g *engine) logDecision(id uint32, parent int32, d replay.LoggedDecision) {
	sp := g.rec.begin(lDecisionLog, id, parent)
	d.UnixNs = time.Now().UnixNano()
	err := g.dlog.Record(d)
	g.rec.end(sp)
	if err != nil {
		g.fail(err)
	}
}

// checkpointOp is jarvisd's checkpoint op: save a generation, reset the WAL.
func (g *engine) checkpointOp(id uint32, parent int32) {
	sp := g.rec.begin(lCheckpointSave, id, parent)
	err := g.saveCheckpoint()
	if err == nil && g.wal != nil {
		err = g.wal.Reset()
	}
	g.rec.end(sp)
	if err != nil {
		g.fail(err)
	}
}

// saveCheckpoint writes a replay.Snapshot generation the way jarvisd's
// saveCheckpointLocked does.
func (g *engine) saveCheckpoint() error {
	var table, q, rbuf bytes.Buffer
	if err := g.sys.SaveTable(&table); err != nil {
		return err
	}
	if err := g.sys.SaveQ(&q); err != nil {
		return err
	}
	if err := g.sys.Agent().ReplayBuffer().Save(&rbuf); err != nil {
		return err
	}
	snap := &replay.Snapshot{
		Version:      replay.SnapshotVersion,
		Seed:         g.cfg.Seed,
		LearningDays: g.cfg.LearningDays,
		Episodes:     g.cfg.Episodes,
		Violations:   g.violations,
		State:        g.state,
		Events:       g.events,
		OnlineSteps:  g.onlineSteps,
		LearnSteps:   g.learnSteps,
		Recommends:   g.recommends,
		Epsilon:      g.sys.Agent().Epsilon(),
		UseDNN:       g.cfg.UseDNN,
		Table:        table.Bytes(),
		Q:            q.Bytes(),
		Replay:       rbuf.Bytes(),
	}
	_, err := g.store.Save(func(w io.Writer) error { return json.NewEncoder(w).Encode(snap) })
	return err
}

// binaryCall serves one binary-codec call: decode its frames, take the
// lock once, dispatch each request (consecutive recommends share one
// evaluation unless the decision log is on, as in jarvisd's batch memo),
// encode the responses. It returns the last recommendation's Q; its
// action IDs stay in g.wireAction.
func (g *engine) binaryCall(id uint32, c call, rd *wire.Reader) float64 {
	root := g.rec.begin(lOp, id, -1)
	n := 1
	if c.op == opRecommend {
		n = c.n
	}
	g.reqs = g.reqs[:0]
	sp := g.rec.begin(lWireDecode, id, root)
	for i := 0; i < n; i++ {
		frame, err := rd.ReadFrame()
		if err != nil {
			g.fail(err)
			break
		}
		req, err := wire.ParseRequest(frame)
		if err != nil {
			g.fail(err)
			break
		}
		g.reqs = append(g.reqs, req)
	}
	g.rec.endCalls(sp, n)
	g.acquire(id, root)
	var rec jarvis.Decision
	haveRec := false
	g.resps = g.resps[:0]
	for _, req := range g.reqs {
		resp := wire.Response{Minute: fixedMinute, Flags: wire.FlagOK}
		switch req.Op {
		case wire.OpEvent:
			haveRec = false
			if g.event(id, root, int(req.Device), device.ActionID(req.Action)) {
				resp.Flags |= wire.FlagUnsafe
			}
			resp.Violations = g.violations
			resp.State = g.wireStateIDs()
		case wire.OpRecommend:
			if !haveRec || g.dlog != nil {
				rec, haveRec = g.recommend(id, root), true
			} else {
				g.recommends++
				g.journal(id, root, replay.Record{K: replay.KindRecommend, N: g.recommends, M: fixedMinute})
				g.sharedEvals++
			}
			resp.Q = rec.Value
			resp.Degraded = g.sys.DegradedRecommendations()
			resp.Action = g.wireActionIDs(rec.Action)
		case wire.OpCheckpoint:
			haveRec = false
			g.checkpointOp(id, root)
		}
		g.resps = append(g.resps, resp)
	}
	sp = g.rec.begin(lWireEncode, id, root)
	g.out = g.out[:0]
	for i := range g.resps {
		g.out = wire.AppendResponse(g.out, &g.resps[i])
	}
	g.rec.endCalls(sp, len(g.resps))
	g.release()
	g.rec.end(root)
	return rec.Value
}

// jsonCall serves one JSON-lines call: decode the line, dispatch under the
// lock, encode the response after releasing it, as jarvisd's serveJSON
// and dispatch do.
func (g *engine) jsonCall(id uint32, dec *json.Decoder, enc *json.Encoder) reply {
	root := g.rec.begin(lOp, id, -1)
	sp := g.rec.begin(lJSONDecode, id, root)
	var req jsonRequest
	err := dec.Decode(&req)
	g.rec.end(sp)
	if err != nil {
		g.fail(err)
		g.rec.end(root)
		return reply{}
	}
	g.acquire(id, root)
	e := g.e
	resp := jsonResponse{OK: true, Minute: fixedMinute}
	switch req.Op {
	case opEvent:
		di, ok := e.DeviceIndex(req.Device)
		var act device.ActionID
		if ok {
			act, ok = e.Device(di).ActionID(req.Action)
		}
		if !ok {
			g.fail(fmt.Errorf("unknown event %s/%s", req.Device, req.Action))
			break
		}
		resp.Unsafe = g.event(id, root, di, act)
		resp.State = stateNames(e, g.state)
		resp.Violations = g.violations
	case opRecommend:
		d := g.recommend(id, root)
		resp.Action = e.FormatAction(d.Action)
		resp.Q = d.Value
		resp.Degraded = g.sys.DegradedRecommendations()
	case opCheckpoint:
		g.checkpointOp(id, root)
	}
	g.release()
	sp = g.rec.begin(lJSONEncode, id, root)
	if err := enc.Encode(resp); err != nil {
		g.fail(err)
	}
	g.rec.end(sp)
	g.rec.end(root)
	return reply{action: resp.Action, q: resp.Q}
}

func (g *engine) wireStateIDs() []uint8 {
	g.wireState = g.wireState[:0]
	for _, s := range g.state {
		g.wireState = append(g.wireState, uint8(s))
	}
	return g.wireState
}

func (g *engine) wireActionIDs(a env.Action) []int16 {
	g.wireAction = g.wireAction[:0]
	for _, x := range a {
		g.wireAction = append(g.wireAction, int16(x))
	}
	return g.wireAction
}

func stateNames(e *env.Environment, s env.State) []string {
	out := make([]string, len(s))
	for i, st := range s {
		out[i] = e.Device(i).Name() + "=" + e.Device(i).StateName(st)
	}
	return out
}

// passResult is what one in-process pass produced.
type passResult struct {
	setup       setupTimes
	learn       learnState
	wall        time.Duration // dispatch loop, first call to last
	ops         int           // requests dispatched (each pipelined recommend counts)
	timedOps    int           // requests of the calls in callDur
	callDur     map[string][]time.Duration
	replies     []reply // every recommend call's reply, in order
	counts      inprocCounts
	walSizes    map[string][]int64
	layers      [nLayers]*layerStats
	buildAllocs []uint64
	rec         *recorder
}

// inprocCounts are the replay's counts at the daemon's layer boundaries.
type inprocCounts struct {
	hits, misses, rebuilds uint64
	sharedEvals            int
	recommends, events     int
	denials                int
	shadowRuns             int
	walBytes               int64
}

// runPass replays the plan in-process in one mode. dir holds its durable
// state.
func runPass(w *workload, p *plan, dir string, mode passMode, names *nameTable) (*passResult, error) {
	var rec *recorder
	if mode == passTraced {
		perCall := 8 // op, decode, lock wait, transition, audit, select or learn, encode, and one spare
		if w.durable {
			perCall += 6 // two records' encode and append, the decision log, a checkpoint
		}
		rec = newRecorder(perCall * (len(p.calls) + len(p.tail)))
	}
	g, setup, err := newEngine(w, dir, mode, rec)
	if err != nil {
		return nil, fmt.Errorf("in-process set-up: %w", err)
	}
	res := &passResult{setup: setup, callDur: map[string][]time.Duration{}, rec: rec}
	// Each call's request bytes go into the feed just before the call, as a
	// client would have sent them; the codec readers drain it.
	in := &feed{}
	rd := wire.NewReader(in)
	dec := json.NewDecoder(in)
	enc := json.NewEncoder(io.Discard)
	var reqBuf bytes.Buffer
	reqEnc := json.NewEncoder(&reqBuf)
	var keys actionKeys
	var frame []byte
	id := uint32(0)
	var settled time.Duration
	start := time.Now()
	for pi, part := range [][]call{p.calls, p.tail} {
		for _, c := range part {
			id++
			reqBuf.Reset()
			switch {
			case w.codec == "json" && c.op == opEvent:
				reqEnc.Encode(names.request(c.ev))
			case w.codec == "json":
				reqEnc.Encode(jsonRequest{Op: c.op})
			default:
				req := wire.Request{Op: binOps[c.op], Device: uint16(c.ev.dev), Action: int16(c.ev.act)}
				for i := 0; i < max(c.n, 1); i++ {
					frame = wire.AppendRequest(frame[:0], req)
					reqBuf.Write(frame)
				}
			}
			in.b = reqBuf.Bytes()
			t := time.Now()
			var r reply
			if w.codec == "json" {
				r = g.jsonCall(id, dec, enc)
			} else {
				r.q = g.binaryCall(id, c, rd)
			}
			if !c.warm {
				res.callDur[c.op] = append(res.callDur[c.op], time.Since(t))
				res.timedOps += max(c.n, 1)
			}
			res.ops += max(c.n, 1)
			if c.op == opRecommend && mode == passUntraced {
				if w.codec != "json" {
					r.action = keys.of(g.wireAction)
				}
				res.replies = append(res.replies, r)
			}
			if g.err != nil {
				return nil, fmt.Errorf("in-process call %d (%s): %w", id, c.op, g.err)
			}
			// The client waits out each tail event's rebuild; so does the
			// replay, outside the call and its wall time.
			if cache := g.sys.CompiledPolicy(); pi == 1 && cache != nil {
				t := time.Now()
				cache.Wait()
				settled += time.Since(t)
			}
		}
	}
	res.wall = time.Since(start) - settled
	if c := g.sys.CompiledPolicy(); c != nil {
		c.Wait()
	}
	g.shadowWG.Wait()
	if err := g.close(); err != nil {
		return nil, err
	}
	fp, err := g.sys.QFingerprint()
	if err != nil {
		return nil, err
	}
	res.learn = learnState{
		Violations: g.violations, ReplaySize: g.sys.Agent().ReplayBuffer().Len(),
		Events: g.events, OnlineSteps: g.onlineSteps, LearnSteps: g.learnSteps,
		Recommends: g.recommends, QSum: fp,
	}
	res.counts = inprocCounts{
		sharedEvals: g.sharedEvals, recommends: g.recommends, events: g.events,
		denials: g.denials, shadowRuns: int(g.shadowRuns.Load()), walBytes: g.walBytes,
	}
	if c := g.sys.CompiledPolicy(); c != nil {
		st := c.Stats()
		// The first compile at set-up is not a serving-phase rebuild.
		res.counts.hits, res.counts.misses, res.counts.rebuilds = st.Hits, st.Misses, st.Rebuilds-1
	}
	res.walSizes = g.walSizes
	res.buildAllocs = g.buildAllocs
	if rec != nil {
		res.layers = rec.aggregate()
	}
	return res, nil
}

func (g *engine) close() error {
	var errs []error
	if g.wal != nil {
		errs = append(errs, g.wal.Close())
	}
	if g.dlog != nil {
		errs = append(errs, g.dlog.Close())
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// feed is the in-process replay's socket: the bytes of one call at a time.
type feed struct{ b []byte }

func (f *feed) Read(p []byte) (int, error) {
	if len(f.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, f.b)
	f.b = f.b[n:]
	return n, nil
}

// binOps maps the plan's ops onto binary opcodes.
var binOps = map[string]uint8{opRecommend: wire.OpRecommend, opEvent: wire.OpEvent, opCheckpoint: wire.OpCheckpoint}
