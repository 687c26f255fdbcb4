package replay

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"jarvis/internal/checkpoint"
	"jarvis/internal/env"
	"jarvis/internal/smarthome"
)

// validSnapshot returns a snapshot that passes Validate for cfg/k.
func validSnapshot(cfg Config, k int) *Snapshot {
	cfg = cfg.withDefaults()
	return &Snapshot{
		Version:      SnapshotVersion,
		Seed:         cfg.Seed,
		LearningDays: cfg.LearningDays,
		Episodes:     cfg.Episodes,
		State:        make(env.State, k),
		Table:        json.RawMessage(`{}`),
		Q:            json.RawMessage(`{}`),
	}
}

func TestSnapshotValidate(t *testing.T) {
	cfg := Config{Seed: 1, LearningDays: 2, Episodes: 2}
	const k = 11
	if err := validSnapshot(cfg, k).Validate(cfg, k); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Snapshot)
	}{
		{"stale version", func(ck *Snapshot) { ck.Version = SnapshotVersion - 1 }},
		{"future version", func(ck *Snapshot) { ck.Version = SnapshotVersion + 1 }},
		{"seed mismatch", func(ck *Snapshot) { ck.Seed = 99 }},
		{"learning-days mismatch", func(ck *Snapshot) { ck.LearningDays = 9 }},
		{"episodes mismatch", func(ck *Snapshot) { ck.Episodes = 9 }},
		{"missing table", func(ck *Snapshot) { ck.Table = nil }},
		{"missing q", func(ck *Snapshot) { ck.Q = nil }},
		{"wrong state width", func(ck *Snapshot) { ck.State = make(env.State, k+1) }},
	}
	for _, tc := range cases {
		ck := validSnapshot(cfg, k)
		tc.mutate(ck)
		err := ck.Validate(cfg, k)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		// Every rejection is deterministic, so it must carry ErrCorrupt —
		// that is what makes the store fall back a generation instead of
		// retrying the same bytes.
		if !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("%s: error %v does not wrap checkpoint.ErrCorrupt", tc.name, err)
		}
	}

	// An empty State is legal: v2-era snapshots saved before any runtime
	// state existed omit it.
	ck := validSnapshot(cfg, k)
	ck.State = nil
	if err := ck.Validate(cfg, k); err != nil {
		t.Errorf("empty state rejected: %v", err)
	}
}

func TestPolicyFileInterpretation(t *testing.T) {
	ck := &Snapshot{
		Version: SnapshotVersion, Seed: 1, LearningDays: 2, Episodes: 2,
		Table: json.RawMessage(`{"t":"table"}`),
		Q:     json.RawMessage(`{"q":"values"}`),
	}
	b, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(QFromPolicyFile(b)); got != `{"q":"values"}` {
		t.Errorf("QFromPolicyFile(snapshot) = %s, want the embedded Q", got)
	}
	if got := string(TableFromPolicyFile(b)); got != `{"t":"table"}` {
		t.Errorf("TableFromPolicyFile(snapshot) = %s, want the embedded table", got)
	}
	// Anything that is not a snapshot passes through as raw policy bytes.
	raw := []byte(`{"weights":[1,2,3]}`)
	if got := string(QFromPolicyFile(raw)); got != string(raw) {
		t.Errorf("QFromPolicyFile(raw) = %s, want the bytes unchanged", got)
	}
	if got := string(TableFromPolicyFile(raw)); got != string(raw) {
		t.Errorf("TableFromPolicyFile(raw) = %s, want the bytes unchanged", got)
	}
}

// TestRestoreSnapshotKeepsManualAllowances: Build sanctions the
// thermostat's power_off by hand (Section V-B1), and a restore — crash
// recovery, /debug/replay, shadow evaluation, a follower's snapshot —
// replaces the whole table, so the saved table must carry the allowance
// for the restored P_safe to audit like the live one.
func TestRestoreSnapshotKeepsManualAllowances(t *testing.T) {
	cfg := Config{Seed: 1, LearningDays: 2, Episodes: 2}
	live, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Train(); err != nil {
		t.Fatal(err)
	}
	var table, q bytes.Buffer
	if err := live.Sys.SaveTable(&table); err != nil {
		t.Fatal(err)
	}
	if err := live.Sys.SaveQ(&q); err != nil {
		t.Fatal(err)
	}
	restored, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreSnapshot(&Snapshot{Table: table.Bytes(), Q: q.Bytes()}, nil); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	off := env.NoOp(live.Home.Env.K())
	off[live.Home.Thermostat] = smarthome.ThermostatActOff
	want := live.Sys.SafeTable().ManualAllowed(off)
	if !want {
		t.Fatal("live table does not sanction the thermostat's power_off")
	}
	if got := restored.Sys.SafeTable().ManualAllowed(off); got != want {
		t.Errorf("restored ManualAllowed(thermostat power_off) = %v, live %v", got, want)
	}
}
