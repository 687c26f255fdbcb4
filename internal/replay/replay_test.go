package replay

import (
	"path/filepath"
	"reflect"
	"testing"

	"jarvis/internal/env"
	"jarvis/internal/wal"
)

// testConfig keeps the learning phase cheap; every sub-run of these tests
// must use the identical value or divergence is by construction.
var testConfig = Config{Seed: 1, LearningDays: 2, Episodes: 2, OnlineTrainEvery: 4}

// buildTrained builds and trains one fresh asset set under testConfig.
func buildTrained(t testing.TB) *Assets {
	t.Helper()
	a, err := Build(testConfig)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := a.Train(); err != nil {
		t.Fatalf("train: %v", err)
	}
	return a
}

// synthesizeWAL journals a scripted run — n legal device events, each with
// its learning transition, and one recommendation after every 4th — into a
// fresh WAL directory, exactly as the daemon's serving path would.
func synthesizeWAL(t *testing.T, a *Assets, dir string, n int) {
	t.Helper()
	w, err := wal.Open(dir, wal.Options{Policy: wal.SyncOnRotate})
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	defer w.Close()
	script := []struct{ device, action string }{
		{"tv", "power_on"}, {"fridge", "open_door"},
		{"tv", "power_off"}, {"fridge", "close_door"},
	}
	e := a.Home.Env
	state := a.Home.InitialState()
	appendRec := func(rec Record) {
		t.Helper()
		b, err := rec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(b); err != nil {
			t.Fatalf("wal append: %v", err)
		}
	}
	events, recs := 0, 0
	for i := 0; i < n; i++ {
		sc := script[i%len(script)]
		di, ok := e.DeviceIndex(sc.device)
		if !ok {
			t.Fatalf("no device %q", sc.device)
		}
		act, ok := e.Device(di).ActionID(sc.action)
		if !ok {
			t.Fatalf("%s has no action %q", sc.device, sc.action)
		}
		action := env.NoOp(e.K())
		action[di] = act
		next, err := e.Transition(state, action)
		if err != nil {
			t.Fatalf("event %d (%s %s) illegal from %v: %v", i, sc.device, sc.action, state, err)
		}
		events++
		appendRec(Record{K: KindEvent, N: events, M: 600, D: di, A: act})
		appendRec(Record{K: KindTransition, N: events, M: 600, D: di, A: act, S: state})
		state = next
		if i%4 == 3 {
			recs++
			appendRec(Record{K: KindRecommend, N: recs, M: 600})
		}
	}
}

// writeLog persists a replayed decision stream as the daemon's decision
// log would have recorded it (through the rotating writer, so the read
// side crosses file seams), dropping the last omitTail decisions to model
// a crash losing the buffered tail.
func writeLog(t *testing.T, path string, ds []Decision, omitTail int) {
	t.Helper()
	l, err := OpenDecisionLog(path, LogOptions{MaxBytes: 600, Keep: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range ds[:len(ds)-omitTail] {
		err := l.Record(LoggedDecision{
			UnixNs: int64(i), Kind: d.Kind, Minute: d.Minute, State: d.State,
			Action: d.Action, Q: d.Q, Degraded: d.Degraded, Verdict: d.Verdict,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayerIsSelfConsistent is the engine's determinism contract, with
// no daemon in the loop: replay a synthetic WAL once and record its
// decision stream, then Verify — which rebuilds everything from scratch —
// must reproduce that stream bit for bit, and a crash-truncated log must
// verify only under AllowTruncatedTail.
func TestReplayerIsSelfConsistent(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	a1 := buildTrained(t)
	synthesizeWAL(t, a1, walDir, 32)

	r1 := NewReplayer(a1, testConfig)
	if err := r1.Run(walDir); err != nil {
		t.Fatalf("replay: %v", err)
	}
	d1 := r1.Decisions()
	st := r1.Stats()
	if st.Events != 32 || st.Transitions != 32 || st.Recommends != 8 {
		t.Fatalf("stats = %+v, want 32 events, 32 transitions, 8 recommends", st)
	}
	if len(d1) != 40 {
		t.Fatalf("replay emitted %d decisions, want 40 (32 events + 8 recommends)", len(d1))
	}
	if st.LearnSteps == 0 {
		t.Fatal("no online learn steps ran; the determinism claim would be vacuous")
	}
	fp1, err := a1.Sys.QFingerprint()
	if err != nil {
		t.Fatal(err)
	}

	// Verify rebuilds its own assets from the same Config, re-trains, and
	// re-replays: the regenerated stream must match the recorded one.
	logPath := filepath.Join(dir, "decisions.log")
	writeLog(t, logPath, d1, 0)
	rep, err := Verify(VerifyOptions{
		Config:      testConfig,
		Source:      Source{WALDir: walDir},
		DecisionLog: logPath,
	})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !rep.Match {
		t.Fatalf("independent rebuild diverged: %+v", rep.Divergence)
	}
	if rep.Compared != len(d1) || rep.TailLoss != 0 {
		t.Errorf("compared %d with tail loss %d, want all %d and none lost", rep.Compared, rep.TailLoss, len(d1))
	}
	if rep.QFingerprint != fp1 {
		t.Errorf("final Q fingerprints differ (%s vs %s): replay is not deterministic", rep.QFingerprint, fp1)
	}

	// A log that lost its buffered tail to a crash: rejected by default,
	// tolerated (and quantified) under AllowTruncatedTail.
	shortPath := filepath.Join(dir, "short.log")
	writeLog(t, shortPath, d1, 3)
	rep, err = Verify(VerifyOptions{
		Config:      testConfig,
		Source:      Source{WALDir: walDir},
		DecisionLog: shortPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Match || rep.Divergence == nil || rep.Divergence.Reason != "missing-recorded" {
		t.Fatalf("truncated log passed strict verify: %+v", rep)
	}
	rep, err = Verify(VerifyOptions{
		Config:             testConfig,
		Source:             Source{WALDir: walDir},
		DecisionLog:        shortPath,
		AllowTruncatedTail: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match || rep.TailLoss != 3 || rep.Compared != len(d1)-3 {
		t.Fatalf("tolerant verify: match=%v tailLoss=%d compared=%d, want match with 3 lost over %d",
			rep.Match, rep.TailLoss, rep.Compared, len(d1)-3)
	}
}

// TestForkEmitsAlignedTail pins the fork contract: a replay forked at
// event k with no mutation emits exactly the tail of the full stream —
// which is what makes a what-if baseline and variant comparable
// position by position.
func TestForkEmitsAlignedTail(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	a1 := buildTrained(t)
	synthesizeWAL(t, a1, walDir, 24)
	r1 := NewReplayer(a1, testConfig)
	if err := r1.Run(walDir); err != nil {
		t.Fatal(err)
	}
	d1 := r1.Decisions()

	a2 := buildTrained(t)
	r2 := NewReplayer(a2, testConfig)
	r2.ForkAt(13, nil)
	if err := r2.Run(walDir); err != nil {
		t.Fatal(err)
	}
	d2 := r2.Decisions()
	if len(d2) == 0 || len(d2) >= len(d1) {
		t.Fatalf("forked replay emitted %d decisions, want a strict tail of %d", len(d2), len(d1))
	}
	if !reflect.DeepEqual(d2, d1[len(d1)-len(d2):]) {
		t.Fatalf("forked tail diverged from the full stream:\n got %+v\nwant %+v", d2, d1[len(d1)-len(d2):])
	}
	if got := r2.Stats().Decisions; got != len(d2) {
		t.Errorf("stats count %d decisions, stream has %d", got, len(d2))
	}
}
