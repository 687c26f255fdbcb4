package main

import (
	"jarvis/internal/replay"
	"jarvis/internal/telemetry"
)

// Metric handles, resolved once at init. The daemon namespace covers the
// connection lifecycle, the request loop, checkpointing, and the decision
// log; everything below it (rl.*, policy.*, anomaly.*, fault.*) is
// reported by the instrumented packages themselves through the same
// Default registry, so one /metrics scrape sees the whole pipeline.
var (
	mConnsAccepted = telemetry.Default.Counter("jarvisd.conns.accepted")
	mConnsActive   = telemetry.Default.Gauge("jarvisd.conns.active")
	mAcceptRetries = telemetry.Default.Counter("jarvisd.accept.retries")
	mAcceptErrors  = telemetry.Default.Counter("jarvisd.accept.errors")

	// Per-op request counters: one labeled family, jarvisd.requests{op}.
	// Snapshots and SLO objectives address each series by its flat name,
	// e.g. `jarvisd.requests{op="recommend"}`.
	mRequestsVec    = telemetry.Default.CounterVec("jarvisd.requests", "op")
	mRequestLatency = telemetry.Default.Histogram("jarvisd.request.latency")

	// Codec negotiation outcomes (one increment per connection) plus the
	// binary loop's batching effectiveness: requests coalesced into an
	// already-open batch, and recommend responses served from a shared
	// in-batch evaluation.
	mWireJSON        = telemetry.Default.Counter("server.wire.json")
	mWireBinary      = telemetry.Default.Counter("server.wire.binary")
	mWireCoalesced   = telemetry.Default.Counter("server.wire.coalesced")
	mWireSharedEvals = telemetry.Default.Counter("server.wire.shared_evals")

	// The daemon's safety-enforcement surface: every applied event is
	// checked against the learned P_safe, and unsafe ones are counted here
	// (the hub is a monitor, so they execute but are flagged). The scalar
	// total backs the safety-violations SLO budget; the labeled family
	// breaks denials down by offending device (children resolved by device
	// index into s.mUnsafeByDevice at newServer time, so the audit path
	// stays a slice index + atomic add).
	mEventsUnsafe    = telemetry.Default.Counter("jarvisd.events.unsafe")
	mAuditDenialsVec = telemetry.Default.CounterVec("jarvisd.audit.denials", "device")

	mCkptSaves           = telemetry.Default.Counter("jarvisd.checkpoint.saves")
	mCkptSaveFailures    = telemetry.Default.Counter("jarvisd.checkpoint.save_failures")
	mCkptRestores        = telemetry.Default.Counter("jarvisd.checkpoint.restores")
	mCkptRestoreFailures = telemetry.Default.Counter("jarvisd.checkpoint.restore_failures")

	mDecisionsLogged = telemetry.Default.Counter("jarvisd.decisions.logged")

	// Admission control: the inflight-request depth shedding decisions
	// key off, and what was actually shed at each tier (learning
	// ingestion first, recommendations last; audit checks never).
	mQueueDepth     = telemetry.Default.Gauge("jarvisd.queue.depth")
	mShedEvents     = telemetry.Default.Counter("jarvisd.shed.events")
	mShedRecommends = telemetry.Default.Counter("jarvisd.shed.recommends")

	// The durability surface: journal append failures (the daemon keeps
	// serving, but the crash-recovery guarantee narrowed), per-kind append
	// counts, and what boot replay reapplied. The per-kind family's three
	// children are resolved here so journal() writes are one map lookup +
	// atomic add.
	mWALAppendFailures = telemetry.Default.Counter("jarvisd.wal.append_failures")
	mWALRecordsVec     = telemetry.Default.CounterVec("jarvisd.wal.records", "kind")
	mWALRecords        = map[string]*telemetry.Counter{
		replay.KindEvent:      mWALRecordsVec.With(replay.KindEvent),
		replay.KindTransition: mWALRecordsVec.With(replay.KindTransition),
		replay.KindRecommend:  mWALRecordsVec.With(replay.KindRecommend),
	}
	mWALReplayed = map[string]*telemetry.Counter{
		replay.KindEvent:      telemetry.Default.Counter("jarvisd.wal.replayed.events"),
		replay.KindTransition: telemetry.Default.Counter("jarvisd.wal.replayed.txns"),
		replay.KindRecommend:  telemetry.Default.Counter("jarvisd.wal.replayed.recs"),
	}

	// Online learning driven by live (or replayed) traffic.
	mOnlineObserved   = telemetry.Default.Counter("jarvisd.online.observed")
	mOnlineLearnSteps = telemetry.Default.Counter("jarvisd.online.learn_steps")
)
