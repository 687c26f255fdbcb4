package replay

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"jarvis/internal/dataset"
	"jarvis/internal/device"
	"jarvis/internal/env"
	"jarvis/internal/rl"
)

// Pinned digests of TestDQNTrajectoryPinned, recorded on linux/amd64 with
// the dense nn kernels, which summed every term including exact zeros; the
// zero-skipping kernels must reproduce them bit for bit.
const (
	pinnedTrainQ  = "c5bb0890a84775f12c3acce61bec06658529844bbed901bb21d75ef66f63399d"
	pinnedStreamQ = "dd5217afe1e5cd6918f71141111faadcb327657e12d7599a012829e7b9acf736"
	pinnedServed  = "e82be4a18a4bad0660abd760c630b93e8b85d3096d794f22fdbab3feafab69cc"
)

// TestDQNTrajectoryPinned pins the deep-Q and anomaly-filter path — the
// nn kernels under ANN training, DQN training, online learn steps, every
// DQN recommend and every anomaly score — to exact values. It builds the
// daemon's -dnn -anomaly-filter assets, trains them, then drives a seeded
// stream of device events, each fed to the learner and followed by one
// recommendation, through a Stream, and compares three digests with
// constants: the Q fingerprint after training, the Q fingerprint after the
// stream, and a digest of every served decision and anomaly score (their
// float bits, not rounded text). A change to the numeric code that moves
// any weight, Q value or decision by one ulp fails here.
//
// The constants hold on amd64 only: the Go spec lets a compiler fuse x*y+z
// into one rounding, which the arm64, ppc64, s390x and riscv64 back ends
// do and the amd64 one does not, so the low bits differ elsewhere.
func TestDQNTrajectoryPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("constants recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	cfg := Config{Seed: 5, LearningDays: 2, Episodes: 4, OnlineTrainEvery: 4, AnomalyFilter: true, UseDNN: true}
	a, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	trainQ, err := a.Sys.QFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	a.Sys.Agent().AttachWatchdog(rl.WatchdogConfig{})

	e := a.Home.Env
	audit := a.Sys.SafeTable().SafeTransition
	filter := a.Sys.Filter()
	st := NewStream(a, cfg)
	h := sha256.New()
	gen := dataset.NewGenerator(a.Home, dataset.HomeAConfig())
	rng := rand.New(rand.NewSource(11))
	start := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	events := 0
	for day := 0; events < 800; day++ {
		d, _, err := gen.Day(start.AddDate(0, 0, day), st.State, rng)
		if err != nil {
			t.Fatal(err)
		}
		for minute, act := range d.Episode.Actions {
			for dev, da := range act {
				if da == device.NoAction || events == 800 {
					continue
				}
				events++
				ev, err := st.Event(audit, dev, da)
				if err != nil {
					t.Fatal(err)
				}
				st.Observe(nil, ev.Prev, ev.Action, minute)
				score := filter.Score(env.Transition{From: ev.Prev, Act: ev.Action, To: st.State, Instance: minute})
				r, err := st.Decide(audit, nil, minute)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%d %v %x | %s %x %v %s\n", events, ev.Unsafe, math.Float64bits(score),
					e.FormatAction(r.Action), math.Float64bits(r.Value), r.Degraded, r.Verdict)
			}
		}
	}
	fmt.Fprintf(h, "violations %d learn %d\n", st.Violations, st.LearnSteps)
	streamQ, err := a.Sys.QFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	served := hex.EncodeToString(h.Sum(nil))
	t.Logf("events %d, learn steps %d, violations %d", st.Events, st.LearnSteps, st.Violations)
	for _, c := range []struct{ name, got, want string }{
		{"Q after training", trainQ, pinnedTrainQ},
		{"Q after the stream", streamQ, pinnedStreamQ},
		{"served decisions", served, pinnedServed},
	} {
		if c.got != c.want {
			t.Errorf("%s: digest %s, pinned %s", c.name, c.got, c.want)
		}
	}
}
