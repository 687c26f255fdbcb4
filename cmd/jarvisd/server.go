package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"jarvis"
	"jarvis/internal/anomaly"
	"jarvis/internal/checkpoint"
	"jarvis/internal/compiled"
	"jarvis/internal/device"
	"jarvis/internal/health"
	"jarvis/internal/replay"
	"jarvis/internal/replica"
	"jarvis/internal/rl"
	"jarvis/internal/smarthome"
	"jarvis/internal/telemetry"
	"jarvis/internal/trace"
	"jarvis/internal/tsdb"
	"jarvis/internal/wal"
	"jarvis/internal/wire"
)

// serverConfig sizes the daemon's startup learning phase and its
// resilience knobs.
type serverConfig struct {
	Seed         int64
	LearningDays int
	Episodes     int

	// UseDNN trains the deep Q network backend instead of the tabular
	// default (the -dnn flag). The two backends serialize differently, so
	// checkpoints record it and refuse to restore across a mismatch.
	UseDNN bool

	// Compiled enables the compiled-policy fast path: after training or
	// restore, the greedy policy is distilled into a state×bucket
	// decision table that serves steady-state recommendations without
	// touching the agent. Oversized products (e.g. the per-minute DNN
	// backend) refuse to compile and the daemon transparently keeps the
	// agent path. Disabled by CompiledOff (the -compiled=false flag).
	CompiledOff bool

	// CheckpointPath, when non-empty, enables checkpoint/restore: startup
	// restores the trained system from the newest usable generation
	// instead of retraining, and the daemon re-checkpoints after training,
	// on demand, and on shutdown. Generations live next to the path
	// (path.000001, ... plus a MANIFEST); writes are atomic and
	// checksummed, and a corrupt or mismatched generation falls back to
	// the previous one, then to fresh training.
	CheckpointPath string
	// CheckpointRetain caps how many checkpoint generations are kept
	// (default 4, minimum 1).
	CheckpointRetain int

	// WALDir, when non-empty, journals every applied event and every
	// accepted learning transition to a write-ahead log in this
	// directory. On startup, surviving records are replayed on top of the
	// restored checkpoint, so a crashed daemon resumes in the training
	// state it died in; each successful checkpoint resets the log.
	WALDir string
	// WALSync is the journal fsync cadence (default wal.SyncEveryRecord).
	WALSync wal.SyncPolicy
	// WALOpenFile substitutes the journal's segment-file opener (nil uses
	// the real filesystem) — the disk-fault injection seam the chaos tests
	// thread internal/fault through.
	WALOpenFile func(name string, flag int, perm os.FileMode) (wal.File, error)

	// FollowAddr, when non-empty, starts the daemon as a hot standby: it
	// dials the primary at this address, adopts its snapshot, applies the
	// shipped WAL stream through the same replay machinery boot recovery
	// uses, and serves read-only recommendations from the replica policy.
	// Writes (event, checkpoint) are rejected while following. On primary
	// silence past PromoteAfter — or an explicit promote op — the standby
	// seals its state and promotes to a full read-write primary.
	FollowAddr string
	// PromoteAfter is the primary-silence budget before automatic
	// promotion (default 5s; negative = never promote automatically, wait
	// for an explicit promote op).
	PromoteAfter time.Duration

	// MaxQueue is the admission-control threshold on concurrently served
	// requests. Above MaxQueue/2 the learning ingestion of events is shed
	// (the safety audit always runs); above MaxQueue, recommendations are
	// rejected with a busy response and a retry hint. 0 picks the default
	// (64); negative disables shedding entirely.
	MaxQueue int

	// OnlineTrainEvery runs one replay learn step every N accepted
	// transitions (default 4; negative disables online learning).
	OnlineTrainEvery int

	// FixedMinute, when positive, pins the minute-of-day used for every
	// request instead of deriving it from wall time — determinism for
	// crash-recovery tests that must replay into an identical state.
	FixedMinute int

	// DebugAddr, when non-empty, serves the observability endpoints
	// (/metrics, /healthz, /debug/vars, /debug/pprof) on a separate HTTP
	// listener; see debug.go.
	DebugAddr string

	// DecisionLogPath, when non-empty, appends one JSON line per
	// recommendation and per checked event to this file (replay.DecisionLog).
	DecisionLogPath string
	// DecisionLogMaxBytes, when positive, rotates the decision log once the
	// active file would exceed this size (the sealed file is fsynced and
	// renamed to path.NNNNNN); 0 keeps one unbounded file.
	DecisionLogMaxBytes int64
	// DecisionLogKeep caps the rotated decision-log files retained beside
	// the active one (default 4 when rotation is enabled).
	DecisionLogKeep int

	// TraceSample, when positive, head-samples one in every TraceSample
	// requests into the span tracer (1 traces everything). Sampled traces
	// retire into a bounded in-memory ring served by /debug/traces; their
	// trace IDs are stamped into the decision log. 0 disables tracing —
	// nil spans end to end, zero request-path overhead.
	TraceSample int
	// TraceRing caps how many completed traces the ring retains (default
	// trace.DefaultRingCapacity).
	TraceRing int

	// AnomalyFilter, when true, trains the ANN benign-anomaly filter
	// during the learning phase and scores every recommendation's
	// resulting transition through it; the score lands in the decision log
	// and, on sampled requests, in an anomaly.score span.
	AnomalyFilter bool

	// AlertRules is the alert engine's rule set (nil = health.DefaultRules,
	// empty = no rules; see the -alert-rules flag for loading a file).
	AlertRules []health.Rule
	// AlertLogPath appends one JSON line per alert firing/resolved
	// transition (empty = disabled).
	AlertLogPath string
	// SLOWindow is the rolling window SLO burn rates are computed over
	// (default 10m).
	SLOWindow time.Duration
	// ShadowEvery runs one shadow evaluation per N online learn steps
	// (default 32; <= 0 disables). Shadow evaluation also needs -wal and
	// -checkpoint: it replays the journal against the newest generation.
	ShadowEvery int

	// TSDBDir, when non-empty, persists the metric history in this
	// directory (delta-encoded samples in a wal.Log of their own; a
	// directory shared with WALDir keeps the history in memory); empty
	// keeps it in memory only. Either way the store mirrors one SLOWindow
	// in memory, the SLO tracker and the alert rules read it, and
	// /debug/tsdb serves range queries over it, so burn rates and range
	// queries agree by construction.
	TSDBDir string
	// TSInterval is the health tick (default 5s): each tick appends one
	// telemetry snapshot to the metric history, re-scores the SLOs, and
	// evaluates the alert rules.
	TSInterval time.Duration

	// Logf receives operational messages; nil discards them.
	Logf func(format string, args ...any)
}

func (c serverConfig) withDefaults() serverConfig {
	if c.LearningDays <= 0 {
		c.LearningDays = 7
	}
	if c.Episodes <= 0 {
		c.Episodes = 60
	}
	if c.CheckpointRetain <= 0 {
		c.CheckpointRetain = 4
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.OnlineTrainEvery == 0 {
		c.OnlineTrainEvery = 4
	}
	if c.SLOWindow <= 0 {
		c.SLOWindow = 10 * time.Minute
	}
	if c.ShadowEvery == 0 {
		c.ShadowEvery = 32
	}
	if c.TSInterval <= 0 {
		c.TSInterval = 5 * time.Second
	}
	if c.PromoteAfter == 0 {
		c.PromoteAfter = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Connection deadlines, shared by both codec loops and the replication
// shipper: a connection may sit silent between requests for idleTimeout
// before the daemon drops it, and one response write may take writeTimeout.
const (
	idleTimeout  = 5 * time.Minute
	writeTimeout = 10 * time.Second
)

// request is one JSON line from a client.
type request struct {
	Op     string `json:"op"`
	Device string `json:"device,omitempty"`
	Action string `json:"action,omitempty"`
}

// response is one JSON line back.
type response struct {
	OK         bool     `json:"ok"`
	Error      string   `json:"error,omitempty"`
	State      []string `json:"state,omitempty"`
	Action     string   `json:"action,omitempty"`
	Unsafe     bool     `json:"unsafe,omitempty"`
	Violations int      `json:"violations,omitempty"`
	Minute     int      `json:"minute,omitempty"`
	Degraded   int      `json:"degraded,omitempty"`
	// Q is the Q value backing a recommendation (0 on a degraded fallback).
	Q float64 `json:"q,omitempty"`
	// Busy is set when admission control rejected the request; the client
	// should back off RetryAfterMs before retrying.
	Busy         bool `json:"busy,omitempty"`
	RetryAfterMs int  `json:"retryAfterMs,omitempty"`
	// learnstate: the online-learning fingerprint (learnFingerprint).
	ReplaySize  int    `json:"replaySize,omitempty"`
	Events      int    `json:"events,omitempty"`
	OnlineSteps int    `json:"onlineSteps,omitempty"`
	LearnSteps  int    `json:"learnSteps,omitempty"`
	Recommends  int    `json:"recommends,omitempty"`
	QSum        string `json:"qsum,omitempty"`
	// Role reports the daemon's replication role ("primary" or
	// "follower") on state/learnstate/promote responses.
	Role string `json:"role,omitempty"`
}

// server owns the environment state and the trained Jarvis system. All
// state mutations are serialized by mu; connections are handled
// concurrently and tracked so Close can terminate idle clients.
type server struct {
	cfg  serverConfig
	home *smarthome.FullHome
	sys  *jarvis.System

	mu         sync.Mutex
	startOfDay time.Time

	// stream is the decision stream's position — environment state,
	// violations, and the event, transition, learn-step and recommend
	// counters — and the one apply step every event, transition and
	// recommendation goes through, live or replayed (guarded by mu).
	stream *replay.Stream

	// Requests shed by admission control (guarded by mu).
	shedEvents     int
	shedRecommends int

	// walSpans tracks the first/last kind-local sequence number currently
	// in the journal (guarded by mu; nil when empty or WAL disabled) —
	// surfaced by /healthz so an operator can see what a crash would
	// replay.
	walSpans map[string]walSpan

	// inflight counts requests currently being served; admission control
	// sheds work above the configured thresholds. Atomic because it is
	// bumped before the op core takes mu.
	inflight atomic.Int64

	// store is the checkpoint generation store (nil when checkpointing is
	// disabled or the store could not be opened).
	store *checkpoint.Store
	// wal is the event/transition journal (nil when disabled).
	wal *wal.Log
	// watchdog monitors the agent for divergence and rolls Q back to the
	// newest valid generation; always attached, but only able to restore
	// when the store is available.
	watchdog *rl.Watchdog

	ln     net.Listener
	wg     sync.WaitGroup
	stop   chan struct{}
	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// debug/debugLn serve the observability endpoints (debug.go); nil when
	// cfg.DebugAddr is empty.
	debug   *http.Server
	debugLn net.Listener

	// decisions is the structured decision log; nil when
	// cfg.DecisionLogPath is empty.
	decisions *replay.DecisionLog

	// health/slo/shadow are the policy-health subsystem (health.go): the
	// alert engine and SLO tracker run on the health tick; the shadow
	// evaluator runs on the learn-step cadence (nil without WAL +
	// checkpoint).
	health *health.Engine
	slo    *health.Tracker
	shadow *health.Shadow

	// mUnsafeByDevice holds the jarvisd.audit.denials{device} children,
	// indexed by device index — the audit path's per-device denial count
	// is a slice index plus an atomic add.
	mUnsafeByDevice []*telemetry.Counter

	// ts is the daemon's metric history, on disk under cfg.TSDBDir or in
	// memory: the health tick appends one snapshot per TSInterval, the SLO
	// tracker and the alert engine read it, and /debug/tsdb serves range
	// queries over it.
	ts *tsdb.DB

	// tracer samples request traces (disabled, never nil, when
	// cfg.TraceSample <= 0).
	tracer *trace.Tracer
	// filter is the trained benign-anomaly ANN (nil unless
	// cfg.AnomalyFilter).
	filter *anomaly.Filter

	// lastCkpt is the unix-ns time of the last successful checkpoint save
	// or restore (0 = never). Atomic because /healthz reads it off-lock.
	lastCkpt atomic.Int64

	// Replication (follow.go). following flips true while the daemon is a
	// hot standby and back to false on promotion; both serving codecs gate
	// writes on it. followStop ends the follow loop (closed exactly once,
	// via followStopOnce, by promotion request or shutdown); replica is
	// the stream client while following; promoteRequested distinguishes an
	// operator promote from a shutdown when the loop exits cleanly.
	following        atomic.Bool
	followStop       chan struct{}
	followStopOnce   sync.Once
	promoteRequested atomic.Bool
	replica          *replica.Follower
	// replicaReads counts read-only recommendations served while
	// following (guarded by mu); snapshotGen numbers outgoing replication
	// snapshots on the primary side.
	replicaReads int
	snapshotGen  atomic.Uint64
	// promotedAt is the unix-ns time of promotion (0 = never promoted, or
	// started as a primary).
	promotedAt atomic.Int64

	// restored reports whether startup served from a checkpoint instead of
	// training.
	restored bool

	// result is the op core's answer to the request it is serving
	// (guarded by mu; see opResult).
	result opResult

	// wireState/wireAction are the binary codec's response scratch buffers
	// (guarded by mu): state IDs and per-device action IDs are copied here
	// so binary responses never allocate at steady state.
	wireState  []uint8
	wireAction []int16
}

// replayConfig maps the daemon configuration onto the replay engine's
// learning configuration. The daemon builds its serving assets through
// replay.Build with exactly this value, so an offline replay (or a
// restarted daemon) constructing the same Config reproduces the same
// assets by definition.
func replayConfig(cfg serverConfig) replay.Config {
	return replay.Config{
		Seed:             cfg.Seed,
		LearningDays:     cfg.LearningDays,
		Episodes:         cfg.Episodes,
		OnlineTrainEvery: cfg.OnlineTrainEvery,
		AnomalyFilter:    cfg.AnomalyFilter,
		UseDNN:           cfg.UseDNN,
		Logf:             cfg.Logf,
	}
}

func newServer(cfg serverConfig) (*server, error) {
	cfg = cfg.withDefaults()
	// The deterministic learning phase is shared with the offline replay
	// engine: both build the same assets from the same Config.
	assets, err := replay.Build(replayConfig(cfg))
	if err != nil {
		return nil, err
	}
	s := &server{
		cfg:        cfg,
		home:       assets.Home,
		sys:        assets.Sys,
		stream:     replay.NewStream(assets, replayConfig(cfg)),
		startOfDay: time.Now().Truncate(24 * time.Hour),
		stop:       make(chan struct{}),
		conns:      make(map[net.Conn]struct{}),
		tracer:     trace.New(cfg.TraceRing),
		filter:     assets.Sys.Filter(),
		followStop: make(chan struct{}),
	}
	s.tracer.SetSeed(uint64(cfg.Seed))
	s.tracer.SetSampleEvery(cfg.TraceSample)

	// Resolve the per-device audit-denial children up front: device names
	// are fixed for the life of the environment, so the unsafe paths index
	// a slice instead of interning labels per event.
	devs := assets.Home.Env.Devices()
	s.mUnsafeByDevice = make([]*telemetry.Counter, len(devs))
	for i, d := range devs {
		s.mUnsafeByDevice[i] = mAuditDenialsVec.With(d.Name())
	}

	if cfg.DecisionLogPath != "" {
		dl, err := replay.OpenDecisionLog(cfg.DecisionLogPath,
			replay.LogOptions{MaxBytes: cfg.DecisionLogMaxBytes, Keep: cfg.DecisionLogKeep})
		if err != nil {
			return nil, fmt.Errorf("decision log: %w", err)
		}
		s.decisions = dl
	}

	if cfg.CheckpointPath != "" {
		st, err := openStore(cfg)
		if err != nil {
			// Checkpointing is a durability feature, not a liveness one:
			// run without it rather than refusing to start.
			cfg.Logf("jarvisd: checkpoint store unavailable (%v); running without checkpoints", err)
		}
		s.store = st
	}
	if s.store != nil {
		switch err := s.restoreCheckpoint(); {
		case err == nil:
			s.restored = true
			mCkptRestores.Inc()
			s.lastCkpt.Store(time.Now().UnixNano())
			cfg.Logf("jarvisd: restored trained state from %s (%d generations on disk)",
				cfg.CheckpointPath, len(s.store.Generations()))
		default:
			// Corrupt, missing, or mismatched checkpoint: fall back to
			// fresh training rather than crashing.
			mCkptRestoreFailures.Inc()
			cfg.Logf("jarvisd: checkpoint unavailable (%v); training fresh", err)
		}
	}
	if !s.restored {
		if err := assets.Train(); err != nil {
			return nil, err
		}
		if s.store != nil {
			if err := s.saveCheckpoint(); err != nil {
				cfg.Logf("jarvisd: checkpoint save failed: %v", err)
			}
		}
	}

	// The watchdog is always attached — divergence detection costs one
	// scan the agent already makes — but it can only roll back when a
	// generation store exists.
	var restoreFn func() error
	if s.store != nil {
		restoreFn = s.restoreNewestQ
	}
	s.watchdog = s.sys.Agent().AttachWatchdog(rl.WatchdogConfig{
		Restore: restoreFn,
		Logf:    cfg.Logf,
	})

	// The WAL opens last: replay applies on top of whatever base state the
	// restore/train decision produced.
	if cfg.WALDir != "" {
		s.openWAL()
	}

	// Compile the serving policy after every startup mutation (restore,
	// training, WAL replay) has landed — the table is built once here and
	// then kept fresh by invalidation hooks on the learn/rollback paths.
	if !cfg.CompiledOff {
		if err := s.sys.EnableCompiledPolicy(&s.mu, compiled.Options{}); err != nil {
			// Advisory: the daemon serves through the agent path either way.
			cfg.Logf("jarvisd: compiled policy unavailable (%v); serving via agent", err)
		} else {
			st := s.sys.CompiledPolicy().Stats()
			cfg.Logf("jarvisd: compiled policy ready (%d entries, %d learned, built in %dms)",
				st.Entries, st.Populated, st.BuildMs)
		}
	}

	// The health subsystem starts last so its first snapshot already sees
	// the fully assembled daemon (restored counters, replayed WAL).
	if err := s.initHealth(); err != nil {
		return nil, fmt.Errorf("health subsystem: %w", err)
	}

	// A standby enters follower mode only after the whole startup sequence
	// above: it begins from the same deterministic base a primary with this
	// configuration would, then converges onto the primary's state through
	// the shipped snapshot and stream.
	if cfg.FollowAddr != "" {
		s.startFollowing()
	}
	return s, nil
}

func (s *server) tableSize() int { return s.sys.SafeTable().Len() }

// listen starts accepting connections, plus the debug listener when
// configured.
func (s *server) listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	if s.cfg.DebugAddr != "" {
		if err := s.startDebug(s.cfg.DebugAddr); err != nil {
			ln.Close()
			s.ln = nil
			return fmt.Errorf("debug listener: %w", err)
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound address.
func (s *server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listeners, terminates every live connection (including
// idle clients blocked in a read), waits for the handlers to drain, writes
// a final checkpoint, and flushes the decision log.
func (s *server) Close() error {
	close(s.stop)
	// End the follow loop (no-op on a primary); shutdown is not a
	// promotion, so promoteRequested stays false and the loop just exits.
	s.followStopOnce.Do(func() { close(s.followStop) })
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	if s.debug != nil {
		// http.Server.Close shuts the debug listener and its connections,
		// letting the Serve goroutine (counted in s.wg) exit.
		if derr := s.debug.Close(); derr != nil && err == nil {
			err = derr
		}
	}
	s.connMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	// The health tick and any in-flight shadow run are drained by wg.Wait
	// above, so closing the alert log here races nothing.
	if herr := s.health.Close(); herr != nil {
		s.cfg.Logf("jarvisd: alert log close failed: %v", herr)
		if err == nil {
			err = herr
		}
	}
	if s.store != nil {
		if cerr := s.saveCheckpoint(); cerr != nil {
			s.cfg.Logf("jarvisd: final checkpoint failed: %v", cerr)
			if err == nil {
				err = cerr
			}
		}
	}
	if s.wal != nil {
		// After the final checkpoint the journal is already reset; closing
		// just syncs the empty active segment.
		if werr := s.wal.Close(); werr != nil {
			s.cfg.Logf("jarvisd: wal close failed: %v", werr)
			if err == nil {
				err = werr
			}
		}
	}
	if s.decisions != nil {
		if derr := s.decisions.Close(); derr != nil {
			s.cfg.Logf("jarvisd: decision log close failed: %v", derr)
			if err == nil {
				err = derr
			}
		}
	}
	// The health tick is drained by wg.Wait above; Close syncs the active
	// segment so the final interval survives a restart.
	if terr := s.ts.Close(); terr != nil {
		s.cfg.Logf("jarvisd: tsdb close failed: %v", terr)
		if err == nil {
			err = terr
		}
	}
	return err
}

func (s *server) trackConn(c net.Conn, add bool) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if add {
		s.conns[c] = struct{}{}
	} else {
		delete(s.conns, c)
	}
	mConnsActive.SetInt(int64(len(s.conns)))
}

// acceptLoop accepts until the listener closes. Transient accept errors
// (timeouts, EMFILE-style temporary conditions) are retried with capped
// exponential backoff instead of killing the loop.
func (s *server) acceptLoop() {
	defer s.wg.Done()
	const (
		minBackoff = 5 * time.Millisecond
		maxBackoff = time.Second
	)
	var delay time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.stop:
				return
			default:
			}
			// A closed listener is the normal shutdown signal (net wraps it,
			// so errors.Is, not equality); exit silently rather than logging
			// a spurious failure when Close races the stop channel.
			if errors.Is(err, net.ErrClosed) {
				return
			}
			if isTransient(err) {
				mAcceptRetries.Inc()
				if delay == 0 {
					delay = minBackoff
				} else if delay *= 2; delay > maxBackoff {
					delay = maxBackoff
				}
				s.cfg.Logf("jarvisd: transient accept error (retrying in %v): %v", delay, err)
				select {
				case <-time.After(delay):
					continue
				case <-s.stop:
					return
				}
			}
			mAcceptErrors.Inc()
			s.cfg.Logf("jarvisd: accept failed: %v", err)
			return
		}
		delay = 0
		mConnsAccepted.Inc()
		s.trackConn(conn, true)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.trackConn(conn, false)
			defer conn.Close()
			defer func() {
				// One misbehaving client must not take the daemon down.
				if r := recover(); r != nil {
					s.cfg.Logf("jarvisd: connection handler panicked: %v", r)
				}
			}()
			s.serve(conn)
		}()
	}
}

// isTransient reports whether an accept error is worth retrying.
func isTransient(err error) bool {
	ne, ok := err.(net.Error)
	if !ok {
		return false
	}
	if ne.Timeout() {
		return true
	}
	// Temporary is deprecated for the general case but remains the only
	// signal for retryable accept conditions like EMFILE/ECONNABORTED.
	if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() {
		return true
	}
	return false
}

// serve negotiates the codec with a one-byte peek — wire.Magic opens the
// binary protocol (binary.go), replica.Magic opens a replication stream
// to a follower (follow.go), anything else (JSON's '{') keeps the
// original JSON-lines loop — so old clients are untouched and new ones
// get length-prefixed frames and batch scoring.
func (s *server) serve(conn net.Conn) {
	if err := conn.SetReadDeadline(time.Now().Add(idleTimeout)); err != nil {
		return
	}
	br := bufio.NewReader(conn)
	first, err := br.Peek(1)
	if err != nil {
		return
	}
	switch first[0] {
	case wire.Magic:
		mWireBinary.Inc()
		s.serveBinary(conn, br)
	case replica.Magic:
		s.serveReplication(conn, br)
	default:
		mWireJSON.Inc()
		s.serveJSON(conn, br)
	}
}

func (s *server) serveJSON(conn net.Conn, br *bufio.Reader) {
	dec := json.NewDecoder(br)
	enc := json.NewEncoder(conn)
	for {
		// A connection may not sit silent forever: the read deadline turns
		// an abandoned client into a closed connection instead of a leaked
		// goroutine.
		if err := conn.SetReadDeadline(time.Now().Add(idleTimeout)); err != nil {
			return
		}
		var req request
		if err := dec.Decode(&req); err != nil {
			return
		}
		resp := s.handle(req)
		if err := conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
			return
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
		select {
		case <-s.stop:
			return
		default:
		}
	}
}

// minuteOfDay maps wall time onto the episode's time instance (or the
// pinned minute when the daemon runs in deterministic-replay mode).
func (s *server) minuteOfDay(now time.Time) int {
	if s.cfg.FixedMinute > 0 {
		return s.cfg.FixedMinute % smarthome.InstancesPerDay
	}
	m := int(now.Sub(s.startOfDay).Minutes()) % smarthome.InstancesPerDay
	if m < 0 {
		m += smarthome.InstancesPerDay
	}
	return m
}

// handle is the JSON codec's entry point: resolve the device and action
// names, run the op core on a batch of one, and build the response.
func (s *server) handle(req request) response {
	r := opRequest{op: parseOp(req.Op), dev: -1, act: device.NoAction}
	if r.op == opEvent {
		e := s.home.Env
		if di, ok := e.DeviceIndex(req.Device); ok {
			r.dev = di
			if act, ok := e.Device(di).ActionID(req.Action); ok {
				r.act = act
			}
		}
	}
	var resp response
	s.serveOps([]opRequest{r}, func(res *opResult) { resp = s.jsonResponse(req, res) })
	return resp
}

// jsonResponse encodes one core result as a JSON response. Errors carry
// no minute unless the request was shed, and name what the request named.
func (s *server) jsonResponse(req request, res *opResult) response {
	if res.err != nil {
		resp := response{Error: res.err.Error(), Role: res.role}
		switch res.err {
		case errUnknownOp:
			resp.Error = fmt.Sprintf("unknown op %q", req.Op)
		case errUnknownDevice:
			resp.Error = fmt.Sprintf("unknown device %q", req.Device)
		case errUnknownAction:
			resp.Error = fmt.Sprintf("device %q has no action %q", req.Device, req.Action)
		}
		if res.retryAfterMs > 0 {
			resp.Busy, resp.RetryAfterMs, resp.Minute = true, res.retryAfterMs, res.minute
		}
		return resp
	}
	e := s.home.Env
	resp := response{OK: true, Unsafe: res.unsafe, Violations: res.violations, Minute: res.minute,
		Degraded: res.degraded, Q: res.q, Role: res.role}
	if res.state != nil {
		resp.State = replay.StateNames(e, res.state)
	}
	if res.action != nil {
		resp.Action = e.FormatAction(res.action)
	}
	if res.hasLearn {
		l := res.learn
		resp.ReplaySize, resp.Events, resp.OnlineSteps = l.replaySize, l.events, l.onlineSteps
		resp.LearnSteps, resp.Recommends, resp.QSum = l.learnSteps, l.recommends, l.qsum
	}
	return resp
}

// logDecision stamps and appends one decision, with the recommendation's
// anomaly score, to the decision log (no-op when the log is disabled).
// Log failures are reported, never fatal: an unwritable audit trail must
// not take recommendations down with it. A sampled request's trace ID is
// stamped into the record — the join key between the decision log and
// /debug/traces.
func (s *server) logDecision(sp *trace.Span, d replay.Decision, anomaly float64) {
	if s.decisions == nil {
		return
	}
	rec := replay.LoggedDecision{
		UnixNs: time.Now().UnixNano(),
		Kind:   d.Kind, Minute: d.Minute, State: d.State, Action: d.Action,
		Q: d.Q, Degraded: d.Degraded, Verdict: d.Verdict, Anomaly: anomaly,
	}
	if id := sp.TraceID(); id != 0 {
		rec.Trace = trace.IDString(id)
	}
	if err := s.decisions.Record(rec); err != nil {
		s.cfg.Logf("jarvisd: decision log write failed: %v", err)
		return
	}
	mDecisionsLogged.Inc()
}
