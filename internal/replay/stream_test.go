package replay

import (
	"bytes"
	"testing"
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
