package compiled

import "jarvis/internal/telemetry"

// Metric handles resolved at package init, so the lookup hot path touches
// only atomics. hits/misses count fast-path serves vs agent fallbacks,
// rebuilds counts table swaps, staleness_ms is the invalidate→swap gap of
// the latest rebuild (the window during which recommendations fell back to
// the agent), entries is the cells the live table covers (states ×
// buckets).
var (
	mHits      = telemetry.Default.Counter("policy.compiled.hits")
	mMisses    = telemetry.Default.Counter("policy.compiled.misses")
	mRebuilds  = telemetry.Default.Counter("policy.compiled.rebuilds")
	mStaleness = telemetry.Default.Gauge("policy.compiled.staleness_ms")
	mEntries   = telemetry.Default.Gauge("policy.compiled.entries")
)
