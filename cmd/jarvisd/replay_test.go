package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"jarvis/internal/replay"
	"jarvis/internal/rl"
)

// feedMixedTraffic drives n scripted events with one recommendation after
// every 4th — the golden traffic pattern the replay tests regenerate
// offline. Returns how many recommendations were served.
func feedMixedTraffic(t *testing.T, s *server, n int) int {
	t.Helper()
	recs := 0
	for i := 0; i < n; i++ {
		req := eventScript[i%len(eventScript)]
		if resp := s.handle(req); resp.Error != "" {
			t.Fatalf("event %d (%s %s): %s", i, req.Device, req.Action, resp.Error)
		}
		if i%4 == 3 {
			if resp := s.handle(request{Op: "recommend"}); !resp.OK {
				t.Fatalf("recommend after event %d: %s", i, resp.Error)
			}
			recs++
		}
	}
	return recs
}

// verifySource maps a daemon configuration onto the replay engine's view
// of its recorded artifacts.
func verifySource(cfg serverConfig) replay.Source {
	return replay.Source{
		WALDir:           cfg.WALDir,
		CheckpointPath:   cfg.CheckpointPath,
		CheckpointRetain: cfg.CheckpointRetain,
	}
}

// TestReplayVerifyReproducesDecisionLog is the golden determinism test:
// record a daemon's day — events, learning, recommendations, decision-log
// rotation — then replay the WAL offline and require the regenerated
// decision stream to match the recorded log bit for bit, both through the
// library API and through the daemon's own /debug/replay endpoint.
func TestReplayVerifyReproducesDecisionLog(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	cfg.DebugAddr = "127.0.0.1:0"
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	if err := srv.listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer srv.Close()

	const events = 48
	recs := feedMixedTraffic(t, srv, events)
	assertMixedVerdicts(t, learnState(t, srv))
	// The verification must run against the recorded artifacts BEFORE
	// Close: shutdown saves a final checkpoint and resets the WAL.
	if err := srv.decisions.Sync(); err != nil {
		t.Fatalf("decision log sync: %v", err)
	}
	// The small size cap must actually have rotated the log, or the
	// cross-file read path is untested.
	rotated, err := filepath.Glob(cfg.DecisionLogPath + ".*")
	if err != nil || len(rotated) == 0 {
		t.Fatalf("no rotated decision-log files (err %v); the test no longer covers rotation", err)
	}

	rep, err := replay.Verify(replay.VerifyOptions{
		Config:      replayConfig(cfg),
		Source:      verifySource(cfg),
		DecisionLog: cfg.DecisionLogPath,
	})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !rep.Match {
		d := rep.Divergence
		t.Fatalf("replay diverged at index %d (seq %d, %s): %s\n  recorded action=%q q=%v verdict=%q\n  replayed action=%q q=%v verdict=%q",
			d.Index, d.Seq, d.Kind, d.Reason,
			d.RecordedAction, d.RecordedQ, d.RecordedVerdict,
			d.ReplayedAction, d.ReplayedQ, d.ReplayedVerdict)
	}
	if want := events + recs; rep.Compared != want {
		t.Errorf("compared %d decisions, want %d (%d events + %d recommendations)", rep.Compared, want, events, recs)
	}
	if rep.Replayed.Events != events || rep.Replayed.Recommends != recs {
		t.Errorf("replayed %d events / %d recommends, daemon served %d / %d",
			rep.Replayed.Events, rep.Replayed.Recommends, events, recs)
	}
	if !rep.Restored {
		t.Error("replay trained fresh; it should seed from the daemon's boot checkpoint")
	}
	if rep.Replayed.LearnSteps == 0 {
		t.Error("replay ran no learn steps; the traffic proves nothing about learning determinism")
	}

	// The same audit through the daemon itself: /debug/replay re-verifies
	// the live WAL + decision log and must agree.
	hres, err := http.Get(fmt.Sprintf("http://%s/debug/replay", srv.DebugAddr()))
	if err != nil {
		t.Fatalf("GET /debug/replay: %v", err)
	}
	defer hres.Body.Close()
	var hrep replay.VerifyReport
	if err := json.NewDecoder(hres.Body).Decode(&hrep); err != nil {
		t.Fatalf("decode /debug/replay: %v", err)
	}
	if hres.StatusCode != http.StatusOK {
		t.Fatalf("/debug/replay = %d, want 200; report: %+v", hres.StatusCode, hrep)
	}
	if !hrep.Match || hrep.Compared != rep.Compared {
		t.Errorf("/debug/replay disagrees with the direct verify: %+v", hrep)
	}
}

// TestReplayWhatIfPerturbedPolicyDiverges records a run, then counter-
// factually substitutes a policy trained under a different seed. The
// what-if report must show a non-zero action divergence whose first
// divergence is a recommendation (events replay recorded actions, so only
// the policy's own decisions can differ when just Q is swapped).
func TestReplayWhatIfPerturbedPolicyDiverges(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	recs := feedMixedTraffic(t, srv, 48)
	// No Close: the WAL must survive as recorded (Close checkpoints and
	// resets it). The leaked daemon holds no listeners.

	// The perturbed policy: the baseline Q with one row rewritten so that,
	// at the state and minute every recorded recommendation replays at,
	// the argmax provably lands on a different action. (A merely
	// differently-seeded policy can happen to agree at the handful of
	// states this traffic visits, which would make the test vacuous.)
	pa, err := replay.Build(replayConfig(cfg))
	if err != nil {
		t.Fatalf("perturbed build: %v", err)
	}
	if err := pa.Train(); err != nil {
		t.Fatalf("perturbed train: %v", err)
	}
	recState := pa.Home.InitialState() // the event script cycles back here
	base, err := pa.Sys.RecommendDecision(recState, 600)
	if err != nil {
		t.Fatalf("baseline recommendation: %v", err)
	}
	baseAction := pa.Home.Env.FormatAction(base.Action)
	tq, ok := pa.Sys.Agent().Q().(*rl.TableQ)
	if !ok {
		t.Fatalf("agent backend is %T, want *rl.TableQ", pa.Sys.Agent().Q())
	}
	width := len(tq.Q(recState, 600))
	noop := pa.Sys.Agent().Minis().NoOpIndex()
	diverted := false
	for m := 0; m < width && !diverted; m++ {
		if m == noop {
			continue // inflating "do nothing" can only entrench the baseline
		}
		if _, err := tq.Update([]rl.Experience{{S: recState, T: 600, Minis: []int{m}}},
			[]float64{1e6}); err != nil {
			t.Fatalf("boost mini %d: %v", m, err)
		}
		d, err := pa.Sys.RecommendDecision(recState, 600)
		if err != nil {
			t.Fatalf("perturbed recommendation: %v", err)
		}
		diverted = pa.Home.Env.FormatAction(d.Action) != baseAction
	}
	if !diverted {
		t.Fatal("could not construct a policy that recommends differently at the recorded state")
	}
	var q bytes.Buffer
	if err := pa.Sys.SaveQ(&q); err != nil {
		t.Fatalf("save perturbed q: %v", err)
	}

	rep, err := replay.WhatIf(replay.WhatIfOptions{
		Config:  replayConfig(cfg),
		Source:  verifySource(cfg),
		At:      0,
		PolicyQ: replay.QFromPolicyFile(q.Bytes()),
	})
	if err != nil {
		t.Fatalf("what-if: %v", err)
	}
	if rep.Compared != 48+recs {
		t.Errorf("compared %d decisions, want %d", rep.Compared, 48+recs)
	}
	if rep.ActionDivergences == 0 {
		t.Fatal("perturbed policy produced an identical decision stream; the counterfactual shows nothing")
	}
	if rep.ActionDivergences > recs {
		t.Errorf("%d action divergences from only %d recommendations: recorded events diverged, which a Q-only swap cannot cause",
			rep.ActionDivergences, recs)
	}
	if rep.FirstDivergenceSeq < 0 || rep.Divergence == nil {
		t.Fatalf("divergence reported without a first-divergence location: %+v", rep)
	}
	if rep.Divergence.Seq != rep.FirstDivergenceSeq {
		t.Errorf("FirstDivergenceSeq %d != Divergence.Seq %d", rep.FirstDivergenceSeq, rep.Divergence.Seq)
	}
	if rep.Divergence.Kind != "recommend" {
		t.Errorf("first divergence is a %q decision, want recommend (events replay recorded actions)", rep.Divergence.Kind)
	}
	if rep.Divergence.RecordedAction == rep.Divergence.ReplayedAction &&
		rep.Divergence.RecordedVerdict == rep.Divergence.ReplayedVerdict {
		t.Errorf("reported divergence does not diverge: %+v", rep.Divergence)
	}
	wantRate := float64(rep.ActionDivergences) / float64(rep.Compared)
	if math.Abs(rep.ActionDivergenceRate-wantRate) > 1e-12 {
		t.Errorf("divergence rate %v, want %v", rep.ActionDivergenceRate, wantRate)
	}
	if math.IsNaN(rep.RewardDelta) || math.IsInf(rep.RewardDelta, 0) {
		t.Errorf("reward delta %v is not finite", rep.RewardDelta)
	}
	if rep.BaselineQ == "" || rep.VariantQ == "" || rep.BaselineQ == rep.VariantQ {
		t.Errorf("Q fingerprints baseline=%q variant=%q, want distinct non-empty", rep.BaselineQ, rep.VariantQ)
	}
}

// TestCheckpointStoreLossFallsBackToFreshTraining covers the daemon-level
// generation fallback: with the MANIFEST deleted, or with every
// generation file gone, a restarting daemon must train fresh — landing in
// the same state as its first boot — and keep serving.
func TestCheckpointStoreLossFallsBackToFreshTraining(t *testing.T) {
	damage := map[string]func(t *testing.T, dir string){
		"manifest-missing": func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, "ckpt", "MANIFEST")); err != nil {
				t.Fatal(err)
			}
		},
		"generations-deleted": func(t *testing.T, dir string) {
			gens, err := filepath.Glob(filepath.Join(dir, "ckpt", "jarvisd.ckpt.*"))
			if err != nil || len(gens) == 0 {
				t.Fatalf("no generation files to delete (err %v)", err)
			}
			for _, g := range gens {
				if err := os.Remove(g); err != nil {
					t.Fatal(err)
				}
			}
		},
	}
	for name, breakStore := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableConfig(dir)
			cfg.WALDir = "" // isolate the checkpoint path

			first, err := newServer(cfg)
			if err != nil {
				t.Fatalf("first boot: %v", err)
			}
			want := learnState(t, first)
			if err := first.Close(); err != nil {
				t.Fatalf("first close: %v", err)
			}

			breakStore(t, dir)

			second, err := newServer(cfg)
			if err != nil {
				t.Fatalf("reboot over damaged store: %v", err)
			}
			defer second.Close()
			if second.restored {
				t.Fatal("daemon claims a checkpoint restore from a damaged store")
			}
			// Fresh training is deterministic: the fallback daemon lands in
			// the first boot's exact state and serves.
			assertSameLearnState(t, want, learnState(t, second))
			if resp := second.handle(request{Op: "recommend"}); !resp.OK {
				t.Fatalf("fallback daemon cannot serve: %s", resp.Error)
			}
		})
	}
}
