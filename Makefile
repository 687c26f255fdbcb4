GO ?= go

.PHONY: build test vet race race-daemon race-core fmt check bench serve-bench stats top lint-metrics crash failover trace replay alerts fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Full suite under the race detector (slow).
race:
	$(GO) test -race ./...

# The daemon's concurrency surface (shutdown, accept backoff, connection
# tracking) under the race detector — quick enough for every commit.
race-daemon:
	$(GO) test -race ./cmd/jarvisd/

# The concurrency surface: the batched nn and rl paths, the parallel
# experiment harness, and the metrics registry and span tracer they report
# into, plus the WAL, the replay engine built on it, and the WAL-shipping
# replication layer (shipper/follower streams) with its fault injectors.
race-core:
	$(GO) test -race ./internal/nn/ ./internal/rl/ ./internal/experiment/ ./internal/telemetry/ ./internal/trace/ ./internal/wal/ ./internal/replay/ ./internal/compiled/ ./internal/wire/ ./internal/health/ ./internal/replica/ ./internal/fault/ ./internal/tsdb/

# The crash-recovery drill: SIGKILL a real daemon mid-online-training,
# boot a successor on its checkpoint + WAL, and require the recovered
# training state to match a never-crashed control byte for byte.
crash:
	$(GO) test -run 'TestCrashRecoverySIGKILL|TestWALReplay|TestWALTornTail' -count=1 -v ./cmd/jarvisd/

# The failover drill: SIGKILL a real primary mid-load while a hot standby
# streams its WAL, require the standby to promote itself within a bounded
# lost tail of a never-crashed control, and verify the promoted daemon's
# decision log replays bit for bit — plus the operator-promotion path and
# the standby's tolerance of torn journal writes.
failover:
	$(GO) test -run 'TestFailoverPromotionSIGKILL|TestOperatorPromote|TestFollowerSurvivesTornJournalWrites' -count=1 -v ./cmd/jarvisd/

# The tracing smoke: a fully sampled daemon produces a span tree covering
# the pipeline, exports it as Chrome trace_event JSON, and stamps the trace
# ID into the decision log.
trace:
	$(GO) test -run 'TestRecommendTraceSpanTree|TestEventTraceCoversDurabilityPath|TestTraceEndpoints|TestDecisionLogCarriesTraceID' -count=1 -v ./cmd/jarvisd/

# The replay-determinism smoke: a recorded daemon day must replay into a
# bit-identical decision log, the engine must verify its own synthetic
# streams, a perturbed policy must produce a quantified counterfactual
# divergence, and every consumer of the record-apply step (boot replay, a
# follower, offline verify) must land where the recording primary did.
replay:
	$(GO) test -run 'TestReplayVerifyReproducesDecisionLog|TestReplayWhatIfPerturbedPolicyDiverges|TestReplayerIsSelfConsistent|TestForkEmitsAlignedTail|TestApplyOracle' -count=1 -v ./cmd/jarvisd/ ./internal/replay/

# The alerting smoke: a hair-trigger rule must fire under traffic, appear
# in /debug/alerts and /healthz, resolve when traffic stops, and log both
# lifecycle edges; a deliberately corrupted policy must raise the drift
# alert, roll back through the watchdog, and resolve; and a trailing hot
# standby must burn the replication-lag SLO and fire its default rule.
alerts:
	$(GO) test -run 'TestAlertSmokeHairTrigger|TestDriftAlertRollsBackAndResolves|TestReplicationLagAlertSmoke' -count=1 -v ./cmd/jarvisd/

# Short fuzz passes over every decoder that reads untrusted bytes: WAL
# segment frames, checkpoint/nn payloads, policy tables, binary wire
# frames, replication protocol messages, and the journal records those
# frames carry, decoded and applied; plus the nn kernels, which must match
# naive loops bit for bit on inputs with signed zeros. Go fuzzing allows
# one -fuzz target per invocation, hence one run per target.
FUZZTIME ?= 5s

fuzz:
	$(GO) test -run xxx -fuzz FuzzReadSegment -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -run xxx -fuzz FuzzLoad -fuzztime $(FUZZTIME) ./internal/nn/
	$(GO) test -run xxx -fuzz FuzzKernels -fuzztime $(FUZZTIME) ./internal/nn/
	$(GO) test -run xxx -fuzz FuzzLoadTable -fuzztime $(FUZZTIME) ./internal/policy/
	$(GO) test -run xxx -fuzz FuzzReadFrame -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run xxx -fuzz FuzzParseMessage -fuzztime $(FUZZTIME) ./internal/replica/
	$(GO) test -run xxx -fuzz FuzzApplyRecord -fuzztime $(FUZZTIME) ./internal/replay/

# Measure the batched compute core and write BENCH_core.json, plus the
# allocation-asserting micro-benchmarks of the root package, among them the
# deep-Q learn step at the daemon's shape.
bench:
	$(GO) run ./cmd/jarvis bench
	$(GO) test -run xxx -bench 'ForwardBatch|TrainBatch64|DQNLearnStep|ReplaySampleInto|NNTrainBatch|NNForward$$|Table3ActionQuality' -benchmem .

# Serving-path benchmark: spawn the legacy shape (JSON + DQN, compiled
# tables off) and the fast shape (binary wire + tabular + compiled tables),
# drive both with pipelined recommend load, and write BENCH_serve.json.
# SERVE_N requests per scenario; SERVE_MIN_SPEEDUP > 0 turns the report
# into a gate (CI uses 1.0 on tiny N; the real run clears 10x).
SERVE_N ?= 20000
SERVE_MIN_SPEEDUP ?= 0

serve-bench:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/jarvisd ./cmd/jarvisd; \
	$(GO) run ./cmd/jarvisload -jarvisd $$tmp/jarvisd -n $(SERVE_N) -min-speedup $(SERVE_MIN_SPEEDUP)

# Observability smoke probe: boot a small daemon, then scrape /metrics
# through `jarvisctl stats`, which exits non-zero on any non-200 answer.
STATS_ADDR ?= 127.0.0.1:7973
STATS_DEBUG_ADDR ?= 127.0.0.1:7974

stats:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$pid 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/jarvisd ./cmd/jarvisd; \
	$(GO) build -o $$tmp/jarvisctl ./cmd/jarvisctl; \
	$$tmp/jarvisd -addr $(STATS_ADDR) -debug-addr $(STATS_DEBUG_ADDR) -learning-days 2 -episodes 2 & \
	pid=$$!; \
	for i in $$(seq 1 100); do \
		if $$tmp/jarvisctl -debug-addr $(STATS_DEBUG_ADDR) -timeout 1s stats >/dev/null 2>&1; then break; fi; \
		sleep 0.2; \
	done; \
	$$tmp/jarvisctl -debug-addr $(STATS_DEBUG_ADDR) stats

# Fleet-view smoke probe: boot a primary (with a WAL to ship and an
# on-disk metric history) plus a hot standby streaming it, then render one
# `jarvisctl top` poll over both debug listeners and require the table to
# carry both roles and the follower's replication state.
TOP_ADDR ?= 127.0.0.1:7983
TOP_DEBUG_ADDR ?= 127.0.0.1:7984
TOP_FOLLOW_ADDR ?= 127.0.0.1:7985
TOP_FOLLOW_DEBUG_ADDR ?= 127.0.0.1:7986

top:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$ppid $$fpid 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/jarvisd ./cmd/jarvisd; \
	$(GO) build -o $$tmp/jarvisctl ./cmd/jarvisctl; \
	$$tmp/jarvisd -addr $(TOP_ADDR) -debug-addr $(TOP_DEBUG_ADDR) -wal $$tmp/wal -tsdb $$tmp/tsdb -ts-interval 250ms -learning-days 2 -episodes 2 & \
	ppid=$$!; \
	$$tmp/jarvisd -addr $(TOP_FOLLOW_ADDR) -debug-addr $(TOP_FOLLOW_DEBUG_ADDR) -follow $(TOP_ADDR) -promote-after=-1s -learning-days 2 -episodes 2 & \
	fpid=$$!; \
	for i in $$(seq 1 150); do \
		if $$tmp/jarvisctl -debug-addr $(TOP_DEBUG_ADDR),$(TOP_FOLLOW_DEBUG_ADDR) -timeout 1s -once -format json top 2>/dev/null \
			| grep -q '"role": "follower"'; then break; fi; \
		sleep 0.2; \
	done; \
	$$tmp/jarvisctl -debug-addr $(TOP_DEBUG_ADDR),$(TOP_FOLLOW_DEBUG_ADDR) -once top; \
	$$tmp/jarvisctl -debug-addr $(TOP_DEBUG_ADDR),$(TOP_FOLLOW_DEBUG_ADDR) -once -format json top > $$tmp/top.json; \
	grep -q '"role": "primary"' $$tmp/top.json; \
	grep -q '"role": "follower"' $$tmp/top.json; \
	grep -q '"replicaConnected": true' $$tmp/top.json

# Metric-name lint: every name registered on the telemetry registry must
# match ^[a-z][a-z0-9._]*$ — the same contract telemetry.ValidMetricName
# enforces at runtime — so a bad name fails CI before it ever runs. Test
# files are exempt: they register invalid names on purpose.
lint-metrics:
	@bad=$$(grep -rhoE '\.(Counter|Gauge|Histogram|CounterVec|GaugeVec|HistogramVec|GaugeFunc|SetInfo)\("[^"]*"' \
		--include='*.go' --exclude='*_test.go' . \
		| sed -E 's/.*\("([^"]*)"/\1/' \
		| grep -vE '^[a-z][a-z0-9._]*$$' || true); \
	if [ -n "$$bad" ]; then echo "invalid metric name(s):"; echo "$$bad"; exit 1; \
	else echo "metric names clean"; fi

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The pre-commit gate: build, format, vet, full tests, and the daemon's
# race-sensitive tests under -race.
check: build fmt vet test race-daemon
