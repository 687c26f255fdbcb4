package main

import (
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"jarvis/internal/replay"
	"jarvis/internal/smarthome"
	"jarvis/internal/telemetry"
	"jarvis/internal/wal"
)

// unsafeEvent powers the door sensor off, which P_safe never admits.
var unsafeEvent = request{Op: "event", Device: "door-sensor", Action: "power_off"}

// oracleScript cycles back to the state it starts from with events whose
// verdicts differ: the thermostat's power_off is a manual allowance, safe
// from any state, while the short learning phase of durableConfig
// whitelists none of the others.
var oracleScript = []request{
	{Op: "event", Device: "thermostat", Action: "power_off"},
	{Op: "event", Device: "tv", Action: "power_on"},
	{Op: "event", Device: "thermostat", Action: "power_on"},
	{Op: "event", Device: "tv", Action: "power_off"},
}

// recordSeededStream drives s through oracleScript in order, with the
// unsafe event and about one recommendation per three events placed by
// seed. Returns how many recommendations were served.
func recordSeededStream(t *testing.T, s *server, seed int64, events int) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	unsafeAt, recs := rng.Intn(events), 0
	for i := 0; i < events; i++ {
		if i == unsafeAt {
			if resp := s.handle(unsafeEvent); !resp.OK || !resp.Unsafe {
				t.Fatalf("unsafe event: %+v", resp)
			}
		}
		req := oracleScript[i%len(oracleScript)]
		if resp := s.handle(req); !resp.OK {
			t.Fatalf("event %d (%s %s): %s", i, req.Device, req.Action, resp.Error)
		}
		if rng.Intn(3) == 0 {
			if resp := s.handle(request{Op: "recommend"}); !resp.OK {
				t.Fatalf("recommend after event %d: %s", i, resp.Error)
			}
			recs++
		}
	}
	return recs
}

// canonicalDecisions reads a decision log without its wall-clock fields
// (UnixNs, Trace, Anomaly): the canonical stream of DESIGN §12.2.
func canonicalDecisions(t *testing.T, s *server) []replay.LoggedDecision {
	t.Helper()
	if err := s.decisions.Sync(); err != nil {
		t.Fatalf("decision log sync: %v", err)
	}
	ds, err := replay.ReadDecisions(s.cfg.DecisionLogPath)
	if err != nil {
		t.Fatalf("read decision log: %v", err)
	}
	for i := range ds {
		ds[i].UnixNs, ds[i].Trace, ds[i].Anomaly = 0, "", 0
	}
	return ds
}

// auditCounters reads the four audit counters: policy.audit.checks,
// policy.audit.denials, jarvisd.events.unsafe, and jarvisd.audit.denials
// summed over devices.
func auditCounters() [4]int64 {
	c := telemetry.Default.Snapshot().Counters
	out := [4]int64{c["policy.audit.checks"], c["policy.audit.denials"], c["jarvisd.events.unsafe"]}
	for name, v := range c {
		if strings.HasPrefix(name, "jarvisd.audit.denials{") {
			out[3] += v
		}
	}
	return out
}

// assertReplayCounted requires the audit counters to have moved from
// before as a replay of a stream with the given violations moves them:
// policy.audit.* counts live serve-path audits only, so not at all, while
// the daemon's own two count every replayed unsafe event (an offline
// replay passes 0: it counts nothing).
func assertReplayCounted(t *testing.T, before [4]int64, violations int) {
	t.Helper()
	want := before
	want[2] += int64(violations)
	want[3] += int64(violations)
	if got := auditCounters(); got != want {
		t.Errorf("audit counters %v -> %v, want %v (policy checks, policy denials, unsafe events, device denials)",
			before, got, want)
	}
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// walRecords reads every record payload journaled in dir.
func walRecords(t *testing.T, dir string) [][]byte {
	t.Helper()
	c, err := wal.OpenCursor(dir)
	if err != nil {
		t.Fatalf("open cursor: %v", err)
	}
	defer c.Close()
	var out [][]byte
	for {
		b, err := c.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("wal record %d: %v", len(out), err)
		}
		out = append(out, append([]byte(nil), b...))
	}
}

// TestApplyOracle records one seeded stream on a durable primary, then
// requires every consumer of the record-apply step to land where the
// primary did: a daemon booted on a copy of its checkpoint and WAL, a
// follower fed every WAL record through applyShippedRecord, and
// replay.Verify. Each must agree on the learnstate fingerprint and the
// violation count, and where a decision log exists, on the canonical
// decision stream. Replays move the daemon's unsafe-event counters but
// never policy.audit.*, and the offline replay moves none of them.
func TestApplyOracle(t *testing.T) {
	dir := t.TempDir()
	// Each daemon gets its own durable directories under dir.
	durable := func(name string) serverConfig {
		d := filepath.Join(dir, name)
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
		return durableConfig(d)
	}
	cfg := durable("primary")
	primary, err := newServer(cfg)
	if err != nil {
		t.Fatalf("primary: %v", err)
	}
	defer primary.Close()
	const events = 48
	recs := recordSeededStream(t, primary, 7, events)
	want := learnState(t, primary)
	wantLog := canonicalDecisions(t, primary)
	// Safe and unsafe verdicts both occur, so an audit that answers
	// either way regardless cannot pass the comparisons below.
	if want.Violations == 0 || want.Violations > events || want.LearnSteps == 0 || want.Recommends != recs {
		t.Fatalf("primary stream too thin to prove anything: %+v", want)
	}
	if len(wantLog) != events+1+recs {
		t.Fatalf("primary logged %d decisions, want %d", len(wantLog), events+1+recs)
	}
	sameState := func(t *testing.T, got response) {
		t.Helper()
		assertSameLearnState(t, want, got)
		if got.Recommends != want.Recommends {
			t.Errorf("recommends %d, want %d", got.Recommends, want.Recommends)
		}
	}

	t.Run("boot replay", func(t *testing.T) {
		bcfg := durable("boot")
		copyDir(t, filepath.Dir(cfg.CheckpointPath), filepath.Dir(bcfg.CheckpointPath))
		copyDir(t, cfg.WALDir, bcfg.WALDir)
		counters := auditCounters()
		boot, err := newServer(bcfg)
		if err != nil {
			t.Fatalf("boot: %v", err)
		}
		defer boot.Close()
		if !boot.restored {
			t.Fatal("booted daemon trained fresh instead of restoring the copied checkpoint")
		}
		sameState(t, learnState(t, boot))
		assertReplayCounted(t, counters, want.Violations)
	})

	t.Run("follower", func(t *testing.T) {
		fcfg := durable("follower")
		follower, err := newServer(fcfg)
		if err != nil {
			t.Fatalf("follower: %v", err)
		}
		defer follower.Close()
		// Seed the follower from the primary's boot generation, as a
		// shipped snapshot, so every recorded record applies on top.
		store, err := replay.OpenStore(cfg.CheckpointPath, cfg.CheckpointRetain)
		if err != nil {
			t.Fatal(err)
		}
		ck, gen, err := replay.LoadSnapshot(store, replayConfig(cfg), primary.home.Env.K())
		if err != nil {
			t.Fatal(err)
		}
		snap, err := json.Marshal(ck)
		if err != nil {
			t.Fatal(err)
		}
		if err := follower.adoptSnapshot(gen, snap); err != nil {
			t.Fatalf("adopt: %v", err)
		}
		counters := auditCounters()
		shipped := walRecords(t, cfg.WALDir)
		for _, b := range shipped {
			if err := follower.applyShippedRecord(b); err != nil {
				t.Fatalf("apply shipped record %s: %v", b, err)
			}
		}
		sameState(t, learnState(t, follower))
		assertReplayCounted(t, counters, want.Violations)
		if got := canonicalDecisions(t, follower); !reflect.DeepEqual(got, wantLog) {
			t.Errorf("follower decision stream differs from the primary's:\n got %+v\nwant %+v", got, wantLog)
		}
		if got := walRecords(t, fcfg.WALDir); !reflect.DeepEqual(got, shipped) {
			t.Errorf("follower re-journaled %d records, want the primary's %d verbatim", len(got), len(shipped))
		}
	})

	t.Run("verify", func(t *testing.T) {
		counters := auditCounters()
		rep, err := replay.Verify(replay.VerifyOptions{
			Config:      replayConfig(cfg),
			Source:      verifySource(cfg),
			DecisionLog: cfg.DecisionLogPath,
		})
		if err != nil {
			t.Fatalf("verify: %v", err)
		}
		if !rep.Match || rep.Compared != len(wantLog) {
			t.Fatalf("verify: match=%v compared=%d of %d, divergence %+v", rep.Match, rep.Compared, len(wantLog), rep.Divergence)
		}
		got := rep.Replayed
		if rep.QFingerprint != want.QSum || got.Violations != want.Violations || got.Events != want.Events ||
			got.Transitions != want.OnlineSteps || got.LearnSteps != want.LearnSteps || got.Recommends != want.Recommends {
			t.Errorf("verify landed at %+v q=%s, primary at %+v", got, rep.QFingerprint, want)
		}
		assertReplayCounted(t, counters, 0)
	})
}

// TestOutOfRangeMinuteRecordsAreSkipped feeds records whose minute lies
// outside the day to a follower (applyShippedRecord) and to the offline
// replay engine (Replayer.Step, forked from the start, which re-executes
// recommendations and sums their reward). Each must be logged and skipped:
// nothing applied, nothing re-journaled, no panic. A well-formed event
// after them still applies.
func TestOutOfRangeMinuteRecordsAreSkipped(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	follower, err := newServer(cfg)
	if err != nil {
		t.Fatalf("follower: %v", err)
	}
	defer follower.Close()
	e := follower.home.Env
	tv, _ := e.DeviceIndex("tv")
	on, _ := e.Device(tv).ActionID("power_on")
	initial := follower.home.InitialState()
	var bad []replay.Record
	for _, m := range []int{-5, smarthome.InstancesPerDay} {
		bad = append(bad,
			replay.Record{K: replay.KindRecommend, N: 1, M: m},
			replay.Record{K: replay.KindEvent, N: 1, M: m, D: tv, A: on},
			replay.Record{K: replay.KindTransition, N: 1, M: m, D: tv, A: on, S: initial})
	}
	good := replay.Record{K: replay.KindEvent, N: 1, M: 600, D: tv, A: on}

	before := learnState(t, follower)
	for _, rec := range bad {
		b, err := rec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := follower.applyShippedRecord(b); err != nil {
			t.Fatalf("apply %s: %v", b, err)
		}
	}
	assertSameLearnState(t, before, learnState(t, follower))
	if got := len(walRecords(t, cfg.WALDir)); got != 0 {
		t.Errorf("follower re-journaled %d out-of-range records, want none", got)
	}
	b, _ := good.Encode()
	if err := follower.applyShippedRecord(b); err != nil {
		t.Fatal(err)
	}
	if got := learnState(t, follower); got.Events != before.Events+1 || len(walRecords(t, cfg.WALDir)) != 1 {
		t.Errorf("a well-formed event after them did not apply and journal: events %d (was %d)", got.Events, before.Events)
	}

	a, err := replay.Build(replayConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	r := replay.NewReplayer(a, replayConfig(cfg))
	for _, rec := range bad {
		if err := r.Step(rec); err != nil {
			t.Fatalf("step %+v: %v", rec, err)
		}
	}
	if st := r.Stats(); st != (replay.StreamStats{}) || len(r.Decisions()) != 0 {
		t.Errorf("offline replay applied out-of-range records: %+v, %d decisions", st, len(r.Decisions()))
	}
	if err := r.Step(good); err != nil || len(r.Decisions()) != 1 {
		t.Errorf("a well-formed event after them: err %v, %d decisions, want 1", err, len(r.Decisions()))
	}
}
