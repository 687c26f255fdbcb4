package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"jarvis/internal/checkpoint"
	"jarvis/internal/replay"
)

// The checkpoint generation layout (replay.Snapshot, currently v3) lives
// in internal/replay: the daemon writes snapshots, and both crash recovery
// and the offline replay engine read them with the same validation, so a
// generation the daemon would restore is exactly one a replay can seed
// re-execution from.

// openStore opens the generation store rooted next to cfg.CheckpointPath:
// generations are path.000001, path.000002, ... plus a MANIFEST in the
// same directory. A corrupt manifest is quarantined (renamed aside) and
// the store reopened empty rather than keeping the daemon down.
func openStore(cfg serverConfig) (*checkpoint.Store, error) {
	dir, base := filepath.Dir(cfg.CheckpointPath), filepath.Base(cfg.CheckpointPath)
	now := func() int64 { return time.Now().UnixNano() }
	st, err := checkpoint.OpenStore(dir, base, cfg.CheckpointRetain, now)
	if err == nil {
		return st, nil
	}
	cfg.Logf("jarvisd: checkpoint manifest unreadable (%v); quarantining", err)
	bad := filepath.Join(dir, "MANIFEST")
	if rerr := os.Rename(bad, bad+".corrupt"); rerr != nil {
		return nil, fmt.Errorf("checkpoint store: %w", err)
	}
	return checkpoint.OpenStore(dir, base, cfg.CheckpointRetain, now)
}

// saveCheckpoint atomically persists the daemon state as a new
// generation. Safe to call from any goroutine; it takes the state lock.
func (s *server) saveCheckpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saveCheckpointLocked()
}

// saveCheckpointLocked is saveCheckpoint for callers already holding s.mu.
// On success the WAL is reset: the checkpoint now durably covers
// everything the journal would replay. (If the process dies between the
// save and the reset, the sequence numbers persisted in the checkpoint
// make the stale records no-ops on replay.)
func (s *server) saveCheckpointLocked() error {
	if s.store == nil {
		mCkptSaveFailures.Inc()
		return fmt.Errorf("checkpoint: store unavailable")
	}
	ckpt, err := s.stream.Snapshot()
	if err != nil {
		mCkptSaveFailures.Inc()
		return err
	}
	gen, err := s.store.Save(func(w io.Writer) error {
		return json.NewEncoder(w).Encode(ckpt)
	})
	if err != nil {
		mCkptSaveFailures.Inc()
		return err
	}
	mCkptSaves.Inc()
	s.lastCkpt.Store(time.Now().UnixNano())
	if s.wal != nil {
		if err := s.wal.Reset(); err != nil {
			s.cfg.Logf("jarvisd: wal reset after checkpoint gen %d failed: %v", gen, err)
		} else {
			// The journal is empty again; /healthz spans restart from here.
			s.walSpans = nil
		}
	}
	return nil
}

// restoreCheckpoint rebuilds the trained system and the stream position
// from the newest usable generation (replay.LoadSnapshot, the loader the
// offline replay engine uses), skipping optimizer training. Any failure
// is returned so the caller can fall back to fresh training.
func (s *server) restoreCheckpoint() error {
	ck, _, err := replay.LoadSnapshot(s.store, replayConfig(s.cfg), s.home.Env.K())
	if err != nil {
		return err
	}
	return s.stream.Restore(ck)
}

// restoreNewestQ rolls only the agent's Q function back to the newest
// usable generation (replay.LoadSnapshot) — the divergence watchdog's
// recovery action. Runs on the dispatch path (caller holds s.mu).
func (s *server) restoreNewestQ() error {
	if s.store == nil {
		return fmt.Errorf("checkpoint store unavailable")
	}
	ck, gen, err := replay.LoadSnapshot(s.store, replayConfig(s.cfg), s.home.Env.K())
	if err != nil {
		return err
	}
	if err := s.sys.LoadQ(bytes.NewReader(ck.Q)); err != nil {
		return fmt.Errorf("checkpoint generation %d: load q: %w", gen, err)
	}
	s.cfg.Logf("jarvisd: watchdog rolled Q back to checkpoint generation %d", gen)
	return nil
}
