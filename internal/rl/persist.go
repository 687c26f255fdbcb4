package rl

import (
	"encoding/json"
	"fmt"
	"io"

	"jarvis/internal/nn"
)

// tableQJSON is the serialized form of a TableQ.
type tableQJSON struct {
	Alpha   float64              `json:"alpha"`
	Buckets int                  `json:"buckets"`
	N       int                  `json:"instances"`
	Minis   int                  `json:"miniActions"`
	Rows    map[string][]float64 `json:"rows"`
}

// Save persists the Q table as JSON, so a trained policy can be reloaded
// without retraining.
func (t *TableQ) Save(w io.Writer) error {
	out := tableQJSON{
		Alpha:   t.Alpha,
		Buckets: t.buckets,
		N:       t.n,
		Minis:   t.minis.Total(),
		Rows:    make(map[string][]float64, len(t.q)),
	}
	for key, row := range t.q {
		out.Rows[fmt.Sprintf("%d.%d", key.s, key.b)] = row
	}
	if err := json.NewEncoder(w).Encode(out); err != nil {
		return fmt.Errorf("rl: save table: %w", err)
	}
	return nil
}

// Load restores a Q table saved with Save into t. The mini-action space
// and episode shape must match.
func (t *TableQ) Load(r io.Reader) error {
	var in tableQJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return fmt.Errorf("rl: load table: %w", err)
	}
	if in.Minis != t.minis.Total() {
		return fmt.Errorf("rl: load table: %d mini-actions, environment has %d", in.Minis, t.minis.Total())
	}
	if in.Buckets != t.buckets || in.N != t.n {
		return fmt.Errorf("rl: load table: shape %d buckets/%d instances, want %d/%d",
			in.Buckets, in.N, t.buckets, t.n)
	}
	rows := make(map[tableKey][]float64, len(in.Rows))
	for keyStr, row := range in.Rows {
		var key tableKey
		if _, err := fmt.Sscanf(keyStr, "%d.%d", &key.s, &key.b); err != nil {
			return fmt.Errorf("rl: load table: bad row key %q: %w", keyStr, err)
		}
		if len(row) != in.Minis {
			return fmt.Errorf("rl: load table: row %q has %d values, want %d", keyStr, len(row), in.Minis)
		}
		rows[key] = row
	}
	if in.Alpha > 0 {
		t.Alpha = in.Alpha
	}
	t.q = rows
	return nil
}

// replayJSON is the serialized form of a Replay. The sampling permutation
// (idx) is part of the state: SampleInto's partial Fisher–Yates leaves it
// permuted between calls, so a restore that dropped it would draw
// different mini-batches than the uncrashed process and the recovered Q
// function would silently diverge from the pre-crash trajectory.
type replayJSON struct {
	Cap  int          `json:"cap"`
	Next int          `json:"next"`
	Full bool         `json:"full"`
	Buf  []Experience `json:"buf"`
	Idx  []int        `json:"idx,omitempty"`
}

// Save persists the replay buffer — contents, ring position, and sampling
// permutation — as JSON. The permutation is only meaningful while it spans
// the whole buffer: once Add has grown the buffer past it, SampleInto will
// rebuild it from scratch on the next draw, so a stale permutation is
// omitted rather than saved (Load would reject the length mismatch).
func (r *Replay) Save(w io.Writer) error {
	idx := r.idx
	if len(idx) != len(r.slots) {
		idx = nil
	}
	buf := make([]Experience, len(r.slots))
	for i := range buf {
		r.load(i, &buf[i])
	}
	out := replayJSON{Cap: cap(r.slots), Next: r.next, Full: r.full, Buf: buf, Idx: idx}
	if err := json.NewEncoder(w).Encode(out); err != nil {
		return fmt.Errorf("rl: save replay: %w", err)
	}
	return nil
}

// Load restores a replay buffer saved with Save, replacing r's contents.
// The capacity recorded in the snapshot wins, so a restored buffer evicts
// on the same schedule as the original.
func (r *Replay) Load(rd io.Reader) error {
	var in replayJSON
	if err := json.NewDecoder(rd).Decode(&in); err != nil {
		return fmt.Errorf("rl: load replay: %w", err)
	}
	if in.Cap <= 0 || len(in.Buf) > in.Cap {
		return fmt.Errorf("rl: load replay: %d experiences exceed capacity %d", len(in.Buf), in.Cap)
	}
	if in.Next < 0 || (len(in.Buf) > 0 && in.Next >= in.Cap) {
		return fmt.Errorf("rl: load replay: ring position %d out of range", in.Next)
	}
	if len(in.Idx) != 0 {
		if len(in.Idx) != len(in.Buf) {
			return fmt.Errorf("rl: load replay: %d permutation entries for %d experiences", len(in.Idx), len(in.Buf))
		}
		seen := make([]bool, len(in.Buf))
		for _, v := range in.Idx {
			if v < 0 || v >= len(in.Buf) || seen[v] {
				return fmt.Errorf("rl: load replay: idx is not a permutation of 0..%d", len(in.Buf)-1)
			}
			seen[v] = true
		}
	}
	*r = Replay{slots: make([]slot, 0, in.Cap)}
	for _, e := range in.Buf {
		r.Add(e)
	}
	r.next = in.Next
	r.full = in.Full
	r.idx = in.Idx
	return nil
}

// Save persists the DQN's online network (the target network is
// reconstructed on load).
func (d *DQN) Save(w io.Writer) error { return d.net.Save(w) }

// Load restores the DQN's weights from a model saved with Save and resets
// the target network to match.
func (d *DQN) Load(r io.Reader) error {
	loaded, err := nn.Load(r)
	if err != nil {
		return err
	}
	if loaded.Inputs() != d.net.Inputs() || loaded.Outputs() != d.net.Outputs() {
		return fmt.Errorf("rl: load dqn: model shape %d->%d, want %d->%d",
			loaded.Inputs(), loaded.Outputs(), d.net.Inputs(), d.net.Outputs())
	}
	d.net = loaded
	d.target = loaded.Clone()
	d.updates = 0
	return nil
}
