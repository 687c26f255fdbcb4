package main

import (
	"jarvis/internal/replay"
	"jarvis/internal/trace"
	"jarvis/internal/wal"
)

// The daemon journals three record kinds to its write-ahead log — evt
// (every applied device event), txn (every event the learning path
// accepted), and rec (every recommendation served). The record layout and
// the full semantics live in internal/replay (replay.Record): the same
// type is what the offline replay engine re-executes, so the daemon's
// recovery path and `jarvis whatif` read one format by construction.
//
// Records carry a per-kind sequence number. A checkpoint save persists
// all three counters and then resets the log; if the daemon crashes
// between the save and the reset, replay skips every record whose
// sequence the checkpoint already covers, so the overlap window
// double-applies nothing.

// walSpan is the first/last kind-local sequence number currently sitting
// in the journal — the /healthz view of what a crash would replay.
type walSpan struct {
	First int `json:"first"`
	Last  int `json:"last"`
}

// noteWALRecord folds one journaled (or boot-replayed) record into the
// per-kind span map. Caller holds s.mu.
func (s *server) noteWALRecord(k string, n int) {
	if s.walSpans == nil {
		s.walSpans = make(map[string]walSpan)
	}
	sp, ok := s.walSpans[k]
	if !ok {
		s.walSpans[k] = walSpan{First: n, Last: n}
		return
	}
	if n < sp.First {
		sp.First = n
	}
	if n > sp.Last {
		sp.Last = n
	}
	s.walSpans[k] = sp
}

// journal appends one record to the WAL. Append failures degrade
// durability, never availability: they are counted and logged, and the
// request proceeds. A sampled request's span gets a wal.append child
// showing the durability cost inside the request.
func (s *server) journal(sp *trace.Span, rec replay.Record) {
	if s.wal == nil {
		return
	}
	b, err := rec.Encode()
	if err == nil {
		err = s.wal.AppendTraced(sp, b)
	}
	if err != nil {
		mWALAppendFailures.Inc()
		s.cfg.Logf("jarvisd: wal append (%s #%d) failed: %v", rec.K, rec.N, err)
		return
	}
	if c, ok := mWALRecords[rec.K]; ok {
		c.Inc()
	}
	s.noteWALRecord(rec.K, rec.N)
}

// openWAL opens (or creates) the journal and replays whatever survived the
// last run on top of the restored checkpoint. Must run after the restore /
// fresh-training decision so the replay applies to the correct base state.
// A WAL that cannot be opened disables journaling for this run rather than
// keeping the daemon down — the failure is loud in the log and in
// wal.append.failures staying at zero.
func (s *server) openWAL() {
	wl, err := wal.Open(s.cfg.WALDir, wal.Options{Policy: s.cfg.WALSync, OpenFile: s.cfg.WALOpenFile})
	if err != nil {
		s.cfg.Logf("jarvisd: wal unavailable (%v); continuing without journaling", err)
		return
	}
	s.wal = wl
	if rs := wl.Recovery(); rs.TruncatedBytes > 0 {
		s.cfg.Logf("jarvisd: wal recovery truncated %d torn bytes", rs.TruncatedBytes)
	}
	events0, txns0 := s.stream.Events, s.stream.OnlineSteps
	err = wl.Replay(func(b []byte) error {
		rec, derr := replay.DecodeRecord(b)
		if derr != nil {
			// The framing CRC already passed, so this is a foreign or
			// future-format record: skip it, don't kill recovery.
			s.cfg.Logf("jarvisd: wal replay: skipping undecodable record: %v", derr)
			return nil
		}
		if _, ok := s.replayRecord("wal replay", rec); ok {
			mWALReplayed[rec.K].Inc()
		}
		// Even a record the checkpoint already covers still sits in the
		// journal until the next reset; the span map reports what is on
		// disk, not what was applied.
		s.noteWALRecord(rec.K, rec.N)
		return nil
	})
	if err != nil {
		s.cfg.Logf("jarvisd: wal replay stopped early: %v", err)
	}
	if s.stream.Events != events0 || s.stream.OnlineSteps != txns0 {
		s.cfg.Logf("jarvisd: wal replay reapplied %d events, %d learning transitions",
			s.stream.Events-events0, s.stream.OnlineSteps-txns0)
	}
}

// replayRecord applies one journaled or shipped record through the
// stream's replay step, with the uncounted audit every replay uses, and
// bumps what noteStep bumps. A record the stream rejects is logged under
// label and skipped. ok is false for it and for a record the position
// already covers (the checkpoint this run restored, or the snapshot a
// follower adopted).
func (s *server) replayRecord(label string, rec replay.Record) (step replay.Step, ok bool) {
	step, err := s.stream.Replay(rec, s.sys.SafeTable().SafeTransition)
	if err != nil {
		s.cfg.Logf("jarvisd: %s: %v", label, err)
		return step, false
	}
	s.noteStep(rec.D, step)
	return step, step.Seq > 0
}
