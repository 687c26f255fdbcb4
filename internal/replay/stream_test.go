package replay

import (
	"bytes"
	"testing"

	"jarvis/internal/env"
)

// FuzzApplyRecord decodes arbitrary bytes as replication-stream or WAL
// records, one per line, and applies them through a forked Replayer — the
// stream's replay step plus the policy re-execution and reward a
// recommendation gets — positioned at one trained snapshot. Whatever the
// bytes, applying them must not panic.
func FuzzApplyRecord(f *testing.F) {
	a := buildTrained(f)
	ck, err := NewStream(a, testConfig).Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"k":"rec","n":1,"m":-5}`))
	f.Add([]byte(`{"k":"evt","n":1,"m":600,"d":9,"a":0}` + "\n" +
		`{"k":"txn","n":1,"m":600,"d":9,"a":0,"s":[0,0,0,0,0,0,0,0,0,0,0]}` + "\n" +
		`{"k":"rec","n":1,"m":600}`))
	f.Add([]byte(`{"k":"txn","n":1,"m":1439,"d":0,"a":2,"s":[0,1,0,2]}`))
	f.Add([]byte(`{"k":"evt","n":1,"m":0,"d":-1,"a":99}` + "\n" + `{"k":"evt","n":2,"m":0,"d":3,"a":-2}`))
	// Only a transition changes the system (the learner); the stream's
	// position is per input. Restoring costs far more than a step, so it
	// runs only after an input that fed the learner.
	learned := false
	f.Fuzz(func(t *testing.T, b []byte) {
		if learned {
			if err := a.RestoreSnapshot(ck, nil); err != nil {
				t.Fatal(err)
			}
		}
		r := NewReplayer(a, testConfig)
		r.SeedSnapshot(ck)
		for _, line := range bytes.Split(b, []byte("\n")) {
			rec, err := DecodeRecord(line)
			if err != nil {
				continue
			}
			if err := r.Step(rec); err != nil {
				t.Logf("step %s: %v", line, err)
			}
		}
		learned = r.Stats().Transitions != ck.OnlineSteps
	})
}

// TestLearnStepRNGAllocationFree pins the learn step's randomness to the
// stream's own reseeded source: on a trained tabular stream, four Observes
// that include one learn step allocate as many objects as four Observes
// that learn nothing.
func TestLearnStepRNGAllocationFree(t *testing.T) {
	a := buildTrained(t)
	e := a.Home.Env
	prev := a.Home.InitialState()
	tv, ok := e.DeviceIndex("tv")
	if !ok {
		t.Fatal("no tv")
	}
	on, ok := e.Device(tv).ActionID("power_on")
	if !ok {
		t.Fatal("tv has no power_on")
	}
	act := env.NoOp(e.K())
	act[tv] = on
	const minute = 600
	observe4 := func(st *Stream) func() {
		return func() {
			for i := 0; i < 4; i++ {
				if step := st.Observe(nil, prev, act, minute); !step.Observed {
					t.Fatalf("txn #%d not observed", step.Seq)
				}
			}
		}
	}
	learning := NewStream(a, testConfig)
	idleCfg := testConfig
	idleCfg.OnlineTrainEvery = -1
	idle := NewStream(a, idleCfg)
	// Warm the Q rows the replay buffer's experiences update, so the
	// measured learn steps create no table rows.
	for i := 0; i < 200; i++ {
		observe4(learning)()
	}
	learned := learning.LearnSteps
	with := testing.AllocsPerRun(100, observe4(learning))
	without := testing.AllocsPerRun(100, observe4(idle))
	if learning.LearnSteps-learned != 101 || idle.LearnSteps != 0 {
		t.Fatalf("learn steps: %d while measured, %d idle; want 101 and 0",
			learning.LearnSteps-learned, idle.LearnSteps)
	}
	if with != without {
		t.Fatalf("4 Observes allocate %.0f objects with a learn step, %.0f without", with, without)
	}
}
