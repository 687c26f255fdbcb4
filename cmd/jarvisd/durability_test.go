package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"jarvis/internal/env"
	"jarvis/internal/rl"
)

// durableConfig is the deterministic-replay daemon configuration the
// durability tests share: pinned minute, generation checkpoints, WAL.
func durableConfig(dir string) serverConfig {
	return serverConfig{
		Seed: 1, LearningDays: 2, Episodes: 2,
		CheckpointPath:  filepath.Join(dir, "ckpt", "jarvisd.ckpt"),
		WALDir:          filepath.Join(dir, "wal"),
		DecisionLogPath: filepath.Join(dir, "decisions.log"),
		// A small cap forces rotation, so the replay-verification tests
		// exercise reads across sealed files — and, in the SIGKILL harness,
		// sealed files are the only decisions that survive the crash (the
		// active file's tail is buffered). Keep is large: retention pruning
		// would delete the head of the recorded stream and break the
		// origin-aligned verification.
		DecisionLogMaxBytes: 2048,
		DecisionLogKeep:     1000,
		FixedMinute:         600,
		OnlineTrainEvery:    4,
		MaxQueue:            -1, // never shed: every event must reach the learner
	}
}

// eventScript cycles tv and fridge toggles — legal from any state they
// reach — so every event is accepted and (with shedding off) ingested.
// Shared with the SIGKILL crash harness, which must drive the victim, the
// successor, and the control through identical traffic.
var eventScript = []request{
	{Op: "event", Device: "tv", Action: "power_on"},
	{Op: "event", Device: "fridge", Action: "open_door"},
	{Op: "event", Device: "tv", Action: "power_off"},
	{Op: "event", Device: "fridge", Action: "close_door"},
}

// feedEvents drives n scripted device events through the full request
// path in-process.
func feedEvents(t *testing.T, s *server, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		req := eventScript[i%len(eventScript)]
		if resp := s.handle(req); resp.Error != "" {
			t.Fatalf("event %d (%s %s): %s", i, req.Device, req.Action, resp.Error)
		}
	}
}

// learnState fetches the online-learning fingerprint.
func learnState(t *testing.T, s *server) response {
	t.Helper()
	resp := s.handle(request{Op: "learnstate"})
	if !resp.OK {
		t.Fatalf("learnstate: %s", resp.Error)
	}
	return resp
}

// assertSameLearnState asserts two daemons are in identical training
// states: same ingest counters, same replay buffer size, same serialized
// Q function.
func assertSameLearnState(t *testing.T, want, got response) {
	t.Helper()
	if got.Events != want.Events || got.OnlineSteps != want.OnlineSteps ||
		got.LearnSteps != want.LearnSteps || got.ReplaySize != want.ReplaySize ||
		got.Violations != want.Violations {
		t.Errorf("counters diverged: got events=%d steps=%d learn=%d replay=%d viol=%d, want events=%d steps=%d learn=%d replay=%d viol=%d",
			got.Events, got.OnlineSteps, got.LearnSteps, got.ReplaySize, got.Violations,
			want.Events, want.OnlineSteps, want.LearnSteps, want.ReplaySize, want.Violations)
	}
	if got.QSum != want.QSum {
		t.Errorf("Q fingerprint diverged: got %s, want %s", got.QSum, want.QSum)
	}
}

// TestWALReplayRestoresLearningState is the in-process crash drill: feed
// enough events to run real learn steps, drop the daemon without any
// shutdown (its checkpoint predates every event), and boot a successor on
// the same directories. WAL replay must walk the successor into the exact
// training state the victim died in.
func TestWALReplayRestoresLearningState(t *testing.T) {
	cfg := durableConfig(t.TempDir())

	victim, err := newServer(cfg)
	if err != nil {
		t.Fatalf("victim: %v", err)
	}
	// 48 events: the replay buffer passes the 32-experience batch floor,
	// so the every-4th learn steps actually update Q.
	feedEvents(t, victim, 48)
	want := learnState(t, victim)
	if want.LearnSteps == 0 {
		t.Fatal("no learn steps ran; the drill would prove nothing")
	}
	// Crash: no Close, no final checkpoint, no WAL reset.

	successor, err := newServer(cfg)
	if err != nil {
		t.Fatalf("successor: %v", err)
	}
	defer successor.Close()
	if !successor.restored {
		t.Fatal("successor trained fresh instead of restoring the checkpoint")
	}
	assertSameLearnState(t, want, learnState(t, successor))

	// The successor keeps going from where the victim died: identical
	// traffic must keep identical fingerprints against a never-crashed
	// control run.
	control, err := newServer(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatalf("control: %v", err)
	}
	defer control.Close()
	feedEvents(t, control, 48)
	feedEvents(t, control, 8)
	feedEvents(t, successor, 8)
	assertSameLearnState(t, learnState(t, control), learnState(t, successor))
}

// TestWALTornTailDoesNotBlockRecovery crashes mid-append: the active
// segment ends in a torn, half-written record. Recovery must truncate the
// tail and replay every complete record.
func TestWALTornTailDoesNotBlockRecovery(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	victim, err := newServer(cfg)
	if err != nil {
		t.Fatalf("victim: %v", err)
	}
	feedEvents(t, victim, 12)
	want := learnState(t, victim)

	// Tear the tail: a length prefix promising 256 bytes, then far fewer.
	segs, err := filepath.Glob(filepath.Join(cfg.WALDir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments: %v", err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x01, 0x00, 0x00, 'n', 'o', 'p', 'e'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	successor, err := newServer(cfg)
	if err != nil {
		t.Fatalf("successor: %v", err)
	}
	defer successor.Close()
	assertSameLearnState(t, want, learnState(t, successor))
}

// TestAdmissionControlShedsByTier pins the inflight depth and checks the
// shedding ladder: learning first, recommendations later, audits never.
func TestAdmissionControlShedsByTier(t *testing.T) {
	srv, err := newServer(serverConfig{
		Seed: 1, LearningDays: 2, Episodes: 2,
		FixedMinute: 600, MaxQueue: 4,
	})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	defer srv.Close()

	// Depth 4 (3 pinned + this request): above MaxQueue/2, at MaxQueue.
	srv.inflight.Store(3)
	if resp := srv.handle(request{Op: "event", Device: "tv", Action: "power_on"}); !resp.OK {
		t.Fatalf("audited event rejected under load: %s", resp.Error)
	}
	if srv.stream.Events != 1 || srv.shedEvents != 1 || srv.stream.OnlineSteps != 0 {
		t.Errorf("events=%d shed=%d steps=%d, want audit applied (1) with learning shed (1, 0 steps)",
			srv.stream.Events, srv.shedEvents, srv.stream.OnlineSteps)
	}
	srv.inflight.Store(3)
	if resp := srv.handle(request{Op: "recommend"}); !resp.OK {
		t.Errorf("recommend shed at depth %d, threshold is > %d: %s", 4, 4, resp.Error)
	}

	// Depth 5: above MaxQueue — recommendations shed with a retry hint,
	// audits still run.
	srv.inflight.Store(4)
	resp := srv.handle(request{Op: "recommend"})
	if resp.OK || !resp.Busy || resp.RetryAfterMs <= 0 {
		t.Errorf("overloaded recommend = %+v, want busy rejection with retry hint", resp)
	}
	if srv.shedRecommends != 1 {
		t.Errorf("shedRecommends = %d, want 1", srv.shedRecommends)
	}
	srv.inflight.Store(4)
	if resp := srv.handle(request{Op: "event", Device: "tv", Action: "power_off"}); !resp.OK {
		t.Fatalf("audit shed at depth 5: %s", resp.Error)
	}
	if srv.stream.Events != 2 {
		t.Errorf("events applied = %d, want 2 (audits are never shed)", srv.stream.Events)
	}

	// Idle again: learning resumes. (Training already part-filled the
	// replay buffer, so measure growth, not absolute size.)
	replay0 := srv.sys.Agent().ReplayBuffer().Len()
	srv.inflight.Store(0)
	if resp := srv.handle(request{Op: "event", Device: "tv", Action: "power_on"}); !resp.OK {
		t.Fatalf("idle event: %s", resp.Error)
	}
	if srv.stream.OnlineSteps != 1 || srv.sys.Agent().ReplayBuffer().Len() != replay0+1 {
		t.Errorf("steps=%d replay=%d, want learning resumed (1 step, buffer +1 from %d)",
			srv.stream.OnlineSteps, srv.sys.Agent().ReplayBuffer().Len(), replay0)
	}
}

// TestWatchdogRollsBackToGenerationAndHealthzReports poisons the live Q
// table with a non-finite value, then asks for a recommendation. The
// watchdog must trip, reload Q from the newest checkpoint generation, and
// serve the request healthily — all visible through /healthz.
func TestWatchdogRollsBackToGenerationAndHealthzReports(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	cfg.WALDir = ""
	cfg.DebugAddr = "127.0.0.1:0"
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	if err := srv.listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer srv.Close()

	// Poison the exact row the pinned-minute recommendation will read.
	q, ok := srv.sys.Agent().Q().(*rl.TableQ)
	if !ok {
		t.Fatalf("agent backend is %T, want *rl.TableQ", srv.sys.Agent().Q())
	}
	state := append(env.State(nil), srv.stream.State...)
	if _, err := q.Update([]rl.Experience{{S: state, T: 600, Minis: []int{0}}},
		[]float64{math.Inf(1)}); err != nil {
		t.Fatalf("poison update: %v", err)
	}
	// The poke above bypassed System's mutation hooks; stale-mark the
	// compiled table the way any in-band mutation would. The rebuild
	// refuses the non-finite row, so the request below reaches the live
	// agent — and its watchdog.
	invalidateCompiledFor(srv)

	resp := srv.handle(request{Op: "recommend"})
	if !resp.OK {
		t.Fatalf("recommend after poisoning: %s", resp.Error)
	}
	if resp.Degraded != 0 {
		t.Errorf("recommendation degraded %d times; rollback should have healed it", resp.Degraded)
	}
	st := srv.watchdog.Stats()
	if st.Trips != 1 || st.Rollbacks != 1 || st.RestoreFailures != 0 {
		t.Fatalf("watchdog stats = %+v, want 1 trip healed by 1 rollback", st)
	}
	// The reloaded table serves without tripping again.
	if resp := srv.handle(request{Op: "recommend"}); !resp.OK {
		t.Fatalf("recommend after rollback: %s", resp.Error)
	}
	if st := srv.watchdog.Stats(); st.Trips != 1 {
		t.Errorf("trips = %d after healthy recommend, want still 1", st.Trips)
	}

	// /healthz: healthy (the broken Q never served), rollback visible.
	hres, err := http.Get(fmt.Sprintf("http://%s/healthz", srv.DebugAddr()))
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d, want 200 (rollback healed the optimizer)", hres.StatusCode)
	}
	var h healthStatus
	if err := json.NewDecoder(hres.Body).Decode(&h); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	if h.Watchdog.Rollbacks != 1 || h.Watchdog.Trips != 1 {
		t.Errorf("healthz watchdog = %+v, want 1 trip / 1 rollback", h.Watchdog)
	}
	if h.Status != "ok" {
		t.Errorf("healthz status = %q, want ok", h.Status)
	}
}

// TestFixedMinutePinsClock: with -fixed-minute every request sees the same
// time instance regardless of wall clock.
func TestFixedMinutePinsClock(t *testing.T) {
	srv, err := newServer(serverConfig{
		Seed: 1, LearningDays: 2, Episodes: 2, FixedMinute: 600,
	})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	defer srv.Close()
	for i := 0; i < 3; i++ {
		if resp := srv.handle(request{Op: "state"}); resp.Minute != 600 {
			t.Fatalf("minute = %d, want pinned 600", resp.Minute)
		}
	}
}
