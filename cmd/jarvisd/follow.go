package main

// Replication roles (DESIGN.md §15). A daemon is born a primary unless
// -follow names a primary to stream from; a follower becomes a primary
// exactly once, by promotion, and never goes back within one process
// lifetime.
//
// Primary side: any connection opening with replica.Magic is handed to a
// replica.Shipper that snapshots the daemon under the state lock and then
// tails the live WAL — the same frames the daemon just fsynced — so a
// follower applies the identical records a post-crash boot replay would.
//
// Follower side: the daemon builds its deterministic base exactly like a
// primary (train or restore), then converges onto the primary's state by
// adopting shipped snapshots through replay.Stream.Restore and applying
// shipped records through replay.Stream.Replay, the skip-stale step boot
// replay uses. Every applied record is re-journaled to the follower's own
// WAL and re-audited against its own P_safe, so the follower's durability
// artifacts are always a self-consistent prefix of the primary's history —
// a promoted follower is indistinguishable from a primary that crashed and
// recovered at the same position.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"jarvis/internal/replay"
	"jarvis/internal/replica"
	"jarvis/internal/telemetry"
)

const (
	rolePrimary  = "primary"
	roleFollower = "follower"

	errFollowerReadOnly = "read-only: daemon is following a primary (promote to enable writes)"
)

var (
	mReplicaReads = telemetry.Default.Counter("jarvisd.replica.reads")
	mReplApplied  = map[string]*telemetry.Counter{
		replay.KindEvent:      telemetry.Default.Counter("jarvisd.replica.applied.events"),
		replay.KindTransition: telemetry.Default.Counter("jarvisd.replica.applied.txns"),
		replay.KindRecommend:  telemetry.Default.Counter("jarvisd.replica.applied.recs"),
	}
	mReplAdopted = telemetry.Default.Counter("jarvisd.replica.adopted.snapshots")
	mPromotions  = telemetry.Default.Counter("jarvisd.promotions")
)

// role reports the daemon's replication role.
func (s *server) role() string {
	if s.following.Load() {
		return roleFollower
	}
	return rolePrimary
}

// --- primary side -----------------------------------------------------

// serveReplication hands a replica.Magic connection to a shipper for the
// lifetime of the connection. Needs a journal to tail; a follower refuses
// to be followed (no cascading replication).
func (s *server) serveReplication(conn net.Conn, br *bufio.Reader) {
	if s.wal == nil {
		s.cfg.Logf("jarvisd: replication from %s rejected: daemon runs without -wal", conn.RemoteAddr())
		return
	}
	if s.following.Load() {
		s.cfg.Logf("jarvisd: replication from %s rejected: daemon is itself a follower", conn.RemoteAddr())
		return
	}
	sh := replica.NewShipper(replica.ShipperConfig{
		WALDir:       s.cfg.WALDir,
		Snapshot:     s.replicationSnapshot,
		Counters:     s.replicaCounters,
		WriteTimeout: writeTimeout,
		Logf:         s.cfg.Logf,
	})
	if err := sh.ServeConn(conn, br, s.stop); err != nil {
		s.cfg.Logf("jarvisd: replication stream to %s ended: %v", conn.RemoteAddr(), err)
	}
}

// replicationSnapshot serializes the daemon's state for a follower: the
// exact bytes a checkpoint save would persist, numbered by a process-local
// generation counter. The snapshot's sequence counters are what make the
// overlapping WAL re-ship idempotent on the follower.
func (s *server) replicationSnapshot() (uint64, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ck, err := s.stream.Snapshot()
	if err != nil {
		return 0, nil, err
	}
	data, err := json.Marshal(ck)
	if err != nil {
		return 0, nil, err
	}
	return s.snapshotGen.Add(1), data, nil
}

// replicaCounters reports the daemon's applied position — shipped in
// heartbeats on the primary, sent in the hello on the follower.
func (s *server) replicaCounters() replica.Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return replica.Counters{Events: s.stream.Events, Steps: s.stream.OnlineSteps, Recs: s.stream.Recommends}
}

// --- follower side ----------------------------------------------------

// startFollowing flips the daemon into follower mode and launches the
// follow loop. Called at the end of newServer, after the deterministic
// base (train or restore, plus own-WAL replay) is fully assembled.
func (s *server) startFollowing() {
	s.following.Store(true)
	telemetry.Default.GaugeFunc("jarvisd.replica.lag.records", s.replicationLag)
	s.wg.Add(1)
	go s.followLoop()
	s.cfg.Logf("jarvisd: following primary at %s (promote-after %v)", s.cfg.FollowAddr, s.cfg.PromoteAfter)
}

// followLoop drives the replication client until promotion or shutdown.
// A stalled primary promotes automatically when PromoteAfter is positive;
// a fatal apply error forces a full resync (the next connection re-seeds
// the replica from a fresh snapshot, which adoptSnapshot applies
// wholesale), so a torn or hostile frame degrades to a reconnect rather
// than a dead standby.
func (s *server) followLoop() {
	defer s.wg.Done()
	auto := s.cfg.PromoteAfter > 0
	timeout := s.cfg.PromoteAfter
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	for {
		f := replica.NewFollower(replica.FollowerConfig{
			Addr:       s.cfg.FollowAddr,
			Timeout:    timeout,
			Have:       s.replicaCounters,
			OnSnapshot: s.adoptSnapshot,
			OnRecord:   s.applyShippedRecord,
			Logf:       s.cfg.Logf,
		})
		s.mu.Lock()
		s.replica = f
		s.mu.Unlock()
		err := f.Run(s.followStop)
		switch {
		case err == nil:
			// followStop closed: an operator promote or a shutdown. The
			// follower drained its buffered tail before returning, so
			// promotion seals everything the primary handed over.
			if s.promoteRequested.Load() {
				s.promote("operator request")
			}
			return
		case errors.Is(err, replica.ErrStalled):
			if auto {
				s.promote(fmt.Sprintf("primary silent past %v", timeout))
				return
			}
			s.cfg.Logf("jarvisd: primary silent past %v; automatic promotion disabled, still following", timeout)
		default:
			s.cfg.Logf("jarvisd: replication apply failed (%v); resyncing from a fresh snapshot", err)
		}
		select {
		case <-s.followStop:
			if s.promoteRequested.Load() {
				s.promote("operator request")
			}
			return
		case <-time.After(time.Second):
		}
	}
}

// adoptSnapshot applies a shipped checkpoint wholesale: the same
// RestoreSnapshot path boot restore uses, followed by a checkpoint of the
// follower's own store and a reset of its own WAL. That last step is the
// barrier alignment: after an adopt, the follower's durability artifacts
// describe exactly the adopted state, so its own crash recovery — and any
// later promotion — replays only records applied after this point.
func (s *server) adoptSnapshot(gen uint64, data []byte) error {
	var ck replay.Snapshot
	if err := json.Unmarshal(data, &ck); err != nil {
		return fmt.Errorf("decode snapshot gen %d: %w", gen, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := ck.Validate(replayConfig(s.cfg), s.home.Env.K()); err != nil {
		return fmt.Errorf("snapshot gen %d: %w", gen, err)
	}
	if err := s.stream.Restore(&ck); err != nil {
		return fmt.Errorf("adopt snapshot gen %d: %w", gen, err)
	}
	mReplAdopted.Inc()
	// Persist the adopted state as the follower's own generation. A
	// follower without a store still resets its journal — the shipped
	// records that follow are relative to this snapshot.
	switch {
	case s.store != nil:
		if err := s.saveCheckpointLocked(); err != nil {
			s.cfg.Logf("jarvisd: checkpoint after snapshot adopt failed: %v", err)
		}
	case s.wal != nil:
		if err := s.wal.Reset(); err != nil {
			s.cfg.Logf("jarvisd: wal reset after snapshot adopt failed: %v", err)
		} else {
			s.walSpans = nil
		}
	}
	s.cfg.Logf("jarvisd: adopted primary snapshot gen %d (events=%d steps=%d recs=%d)",
		gen, ck.Events, ck.OnlineSteps, ck.Recommends)
	return nil
}

// applyShippedRecord applies one verbatim WAL record from the primary
// through the same replay step boot recovery uses, then re-journals it to
// the follower's own log and, with a decision log, records its decision —
// so a promoted follower's decision log verifies against its WAL exactly
// like a primary's does.
func (s *server) applyShippedRecord(b []byte) error {
	rec, err := replay.DecodeRecord(b)
	if err != nil {
		// Framing CRC passed on the primary and in transit: this is a
		// foreign or future-format record. Skip it, like boot replay.
		s.cfg.Logf("jarvisd: replication: skipping undecodable record: %v", err)
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	step, ok := s.replayRecord("replication", rec)
	if !ok {
		return nil
	}
	s.journal(nil, rec)
	mReplApplied[rec.K].Inc()
	if s.decisions == nil {
		return nil
	}
	switch rec.K {
	case replay.KindEvent:
		s.logDecision(nil, s.stream.EventDecision(step, rec.M), 0)
	case replay.KindRecommend:
		// Re-execute the policy at this point in the stream — the same
		// regeneration the offline replay engine performs — so the
		// follower's decision log carries its own recommendation audit
		// trail, bit-compatible with a verify replay.
		r, err := s.stream.Decide(s.sys.SafeTable().SafeTransition, nil, rec.M)
		if err != nil {
			s.cfg.Logf("jarvisd: replication: rec #%d re-execution failed: %v", rec.N, err)
			return nil
		}
		s.logDecision(nil, s.stream.RecommendDecision(r, step.Seq, rec.M), 0)
	}
	return nil
}

// requestPromote arms an operator-requested promotion. It only signals —
// the follow loop performs the promotion after draining the buffered
// stream tail — because the caller holds s.mu and the drain's apply
// callbacks need it. The role flips to primary moments later.
func (s *server) requestPromote() error {
	if !s.following.Load() {
		return fmt.Errorf("not a follower: daemon is already primary")
	}
	s.promoteRequested.Store(true)
	s.followStopOnce.Do(func() { close(s.followStop) })
	return nil
}

// promote seals the follower and turns it into a full read-write primary:
// under the state lock, the role flips and a checkpoint generation is
// saved covering everything applied (stream, buffered tail, own WAL), so
// the promoted daemon's artifacts verify exactly like a primary's.
func (s *server) promote(reason string) {
	start := time.Now()
	s.mu.Lock()
	s.replica = nil
	s.following.Store(false)
	s.promotedAt.Store(time.Now().UnixNano())
	events, steps, recs := s.stream.Events, s.stream.OnlineSteps, s.stream.Recommends
	if s.store != nil {
		if err := s.saveCheckpointLocked(); err != nil {
			s.cfg.Logf("jarvisd: promotion checkpoint failed: %v", err)
		}
	}
	s.mu.Unlock()
	mPromotions.Inc()
	s.cfg.Logf("jarvisd: promoted to primary (%s) in %v at events=%d steps=%d recs=%d",
		reason, time.Since(start).Round(time.Millisecond), events, steps, recs)
}

// replicationLag reports how many records the follower trails the
// primary's last-announced position by — the jarvisd.replica.lag.records
// gauge the replication-lag SLO burns against. Zero on a primary, before
// the first heartbeat, and after promotion.
func (s *server) replicationLag() float64 {
	if !s.following.Load() {
		return 0
	}
	s.mu.Lock()
	f := s.replica
	have := replica.Counters{Events: s.stream.Events, Steps: s.stream.OnlineSteps, Recs: s.stream.Recommends}
	s.mu.Unlock()
	if f == nil {
		return 0
	}
	at, _, ok := f.Primary()
	if !ok {
		return 0
	}
	return float64(have.Behind(at))
}

// replicationStatus is the /healthz replication block.
type replicationStatus struct {
	Role string `json:"role"`
	// FollowAddr is the primary this daemon follows (or followed, after
	// promotion).
	FollowAddr string `json:"followAddr,omitempty"`
	Connected  bool   `json:"connected"`
	// LagRecords is the current value of jarvisd.replica.lag.records.
	LagRecords float64 `json:"lagRecords"`
	// ReplicaReads counts read-only recommendations served while following.
	ReplicaReads int `json:"replicaReads,omitempty"`
	// PrimaryHeardAgoSec is the silence since the primary's last frame.
	PrimaryHeardAgoSec float64 `json:"primaryHeardAgoSec,omitempty"`
	// PromotedAgoSec is how long ago this daemon promoted (absent on a
	// born primary and on a still-following standby).
	PromotedAgoSec float64 `json:"promotedAgoSec,omitempty"`
}

// replicationHealth assembles the /healthz replication block; nil when the
// daemon was born a primary and never configured to follow.
func (s *server) replicationHealth() *replicationStatus {
	if s.cfg.FollowAddr == "" {
		return nil
	}
	st := &replicationStatus{
		Role:       s.role(),
		FollowAddr: s.cfg.FollowAddr,
		LagRecords: s.replicationLag(),
	}
	s.mu.Lock()
	f := s.replica
	st.ReplicaReads = s.replicaReads
	s.mu.Unlock()
	if f != nil {
		st.Connected = f.Connected()
		if _, heard, ok := f.Primary(); ok {
			st.PrimaryHeardAgoSec = time.Since(heard).Seconds()
		}
	}
	if at := s.promotedAt.Load(); at > 0 {
		st.PromotedAgoSec = time.Since(time.Unix(0, at)).Seconds()
	}
	return st
}
