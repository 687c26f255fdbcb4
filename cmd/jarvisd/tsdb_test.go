package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"testing"
	"time"

	"jarvis/internal/health"
)

// TestTSDBEndpointAndSLOParity is the metric-history acceptance test, in
// memory and on disk: the daemon appends snapshots to its store,
// /debug/tsdb serves range queries over labeled series, and a burn rate
// recomputed from a /debug/tsdb delta matches what the SLO tracker
// published — both read the same window edges from the same store.
func TestTSDBEndpointAndSLOParity(t *testing.T) {
	for _, tc := range []struct {
		name string
		disk bool
	}{{"memory", false}, {"disk", true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := serverConfig{Seed: 1, LearningDays: 2, Episodes: 2, TSInterval: 20 * time.Millisecond}
			if tc.disk {
				cfg.TSDBDir = t.TempDir()
			}
			checkTSDBParity(t, startDebugTestServer(t, cfg), tc.disk)
		})
	}
}

func checkTSDBParity(t *testing.T, srv *server, disk bool) {
	// A baseline point must land before the traffic so the windowed delta
	// sees the increase. The registry is process-global, so the unsafe
	// counter may already be nonzero from other tests — everything below
	// is relative to this baseline.
	waitUntil(t, 10*time.Second, "baseline tsdb point", func() bool {
		return srv.ts.Stats().Points >= 1
	})
	base, _ := srv.ts.Latest()
	baseUnsafe := base.Counters["jarvisd.events.unsafe"]

	for i := 0; i < 7; i++ {
		if resp := srv.handle(request{Op: "recommend"}); !resp.OK {
			t.Fatalf("recommend: %+v", resp)
		}
	}
	// Powering off the door sensor is never natural, so P_safe flags it.
	// Toggle it back on between denials (off→off is a no-op the audit
	// passes): two unsafe events put the safety-violations budget
	// objective at a nonzero burn (2/5), which is what makes the parity
	// check non-trivial.
	unsafeEvents := 0
	for i := 0; i < 2; i++ {
		resp := srv.handle(request{Op: "event", Device: "door-sensor", Action: "power_off"})
		if !resp.OK {
			t.Fatalf("sensor-off: %+v", resp)
		}
		if resp.Unsafe {
			unsafeEvents++
		}
		if resp := srv.handle(request{Op: "event", Device: "door-sensor", Action: "power_on"}); !resp.OK {
			t.Fatalf("sensor-on: %+v", resp)
		}
	}
	if unsafeEvents == 0 {
		t.Fatal("no event was flagged unsafe; the parity check would be trivial")
	}

	// Wait for a post-traffic point.
	waitUntil(t, 10*time.Second, "post-traffic tsdb point", func() bool {
		p, ok := srv.ts.Latest()
		return ok && p.Counters["jarvisd.events.unsafe"] >= baseUnsafe+int64(unsafeEvents)
	})

	// Index: store footprint plus the labeled series the snapshots carry.
	code, body := httpGet(t, srv, "/debug/tsdb")
	if code != 200 {
		t.Fatalf("/debug/tsdb status = %d: %s", code, body)
	}
	var idx tsdbIndex
	if err := json.Unmarshal(body, &idx); err != nil {
		t.Fatalf("/debug/tsdb is not valid JSON: %v", err)
	}
	if idx.Stats.Points < 2 {
		t.Fatalf("store has %d points, want >= 2", idx.Stats.Points)
	}
	wantSeries := `jarvisd.requests{op="recommend"}`
	found := false
	for _, s := range idx.Series {
		if s == wantSeries {
			found = true
		}
	}
	if !found {
		t.Fatalf("series index missing %s:\n%v", wantSeries, idx.Series)
	}

	query := func(series, fn string) tsdbQuery {
		t.Helper()
		code, body := httpGet(t, srv,
			"/debug/tsdb?series="+url.QueryEscape(series)+"&fn="+fn+"&window=10m")
		if code != 200 {
			t.Fatalf("query %s %s: status %d: %s", series, fn, code, body)
		}
		var q tsdbQuery
		if err := json.Unmarshal(body, &q); err != nil {
			t.Fatalf("query %s %s: bad JSON: %v", series, fn, err)
		}
		return q
	}

	// A labeled series answers range queries by its flat name.
	if q := query(wantSeries, "delta"); !q.OK || q.Value < 7 {
		t.Errorf("delta(%s) = %+v, want ok with value >= 7", wantSeries, q)
	}
	if q := query(wantSeries, "rate"); !q.OK || q.Value <= 0 {
		t.Errorf("rate(%s) = %+v, want ok with a positive rate", wantSeries, q)
	}
	if q := query("jarvisd.request.latency", "p99"); !q.OK || q.Value <= 0 {
		t.Errorf("p99(jarvisd.request.latency) = %+v, want ok with a positive quantile", q)
	}
	if q := query(wantSeries, "raw"); !q.OK || len(q.Samples) < 2 {
		t.Errorf("raw(%s) = %+v, want >= 2 samples", wantSeries, q)
	}

	// Parity: the safety-violations objective is windowed-delta / budget
	// (budget 5). Traffic has stopped, so the unsafe counter is flat and
	// the two reads — the HTTP range query and the tracker's report —
	// resolve deltas over the same stored history.
	unsafeDelta := query("jarvisd.events.unsafe", "delta")
	if !unsafeDelta.OK || unsafeDelta.Value < float64(unsafeEvents) {
		t.Fatalf("delta(jarvisd.events.unsafe) = %+v, want >= %d", unsafeDelta, unsafeEvents)
	}
	rep := srv.slo.Report()
	burn := sloStatus(t, rep, "safety-violations").BurnRate
	if want := unsafeDelta.Value / 5; math.Abs(burn-want) > 1e-9 {
		t.Errorf("SLO burn = %v but tsdb recomputation = %v; the two windows disagree", burn, want)
	}
	if rep.Samples < 2 || rep.SpanMs <= 0 {
		t.Errorf("SLO report spans %d samples over %dms, want >= 2 over a positive span", rep.Samples, rep.SpanMs)
	}

	// /healthz surfaces the store footprint and the registry cardinality.
	code, body = httpGet(t, srv, "/healthz")
	var h healthStatus
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("/healthz is not valid JSON: %v", err)
	}
	if h.TSDB == nil || h.TSDB.Points < 2 || (h.TSDB.SizeBytes > 0) != disk {
		t.Errorf("/healthz tsdb block = %+v, want a live footprint (on disk: %v)", h.TSDB, disk)
	}
	if h.TelemetrySeries <= 0 {
		t.Errorf("/healthz telemetrySeries = %d, want > 0", h.TelemetrySeries)
	}
}

// TestTSDBRestartServesHistory: a daemon restarted on the same -tsdb
// directory serves the previous process's points from /debug/tsdb and
// appends its own after them.
func TestTSDBRestartServesHistory(t *testing.T) {
	cfg := serverConfig{Seed: 1, LearningDays: 2, Episodes: 2, TSInterval: 20 * time.Millisecond, TSDBDir: t.TempDir()}
	first, err := newServer(cfg)
	if err != nil {
		t.Fatalf("first: %v", err)
	}
	waitUntil(t, 10*time.Second, "three tsdb points", func() bool {
		return first.ts.Stats().Points >= 3
	})
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	before := first.ts.Stats()

	srv := startDebugTestServer(t, cfg)
	if rec := srv.ts.Recovery(); rec.Points != before.Points {
		t.Fatalf("restart recovered %d points, the previous process stored %d", rec.Points, before.Points)
	}
	waitUntil(t, 10*time.Second, "a tick after the restart", func() bool {
		return srv.ts.Stats().Points >= before.Points+2
	})
	code, body := httpGet(t, srv, "/debug/tsdb")
	if code != 200 {
		t.Fatalf("/debug/tsdb status = %d: %s", code, body)
	}
	var idx tsdbIndex
	if err := json.Unmarshal(body, &idx); err != nil {
		t.Fatalf("/debug/tsdb is not valid JSON: %v", err)
	}
	if idx.Stats.OldestNs != before.OldestNs || idx.Stats.NewestNs <= before.NewestNs || idx.Stats.Segments == 0 {
		t.Fatalf("/debug/tsdb after restart = %+v, want the history from %d on disk, extended past %d",
			idx.Stats, before.OldestNs, before.NewestNs)
	}
	code, body = httpGet(t, srv, fmt.Sprintf("/debug/tsdb?series=jarvisd.uptime.seconds&fn=raw&from=0&to=%d", idx.Stats.NewestNs))
	var q tsdbQuery
	if err := json.Unmarshal(body, &q); code != 200 || err != nil {
		t.Fatalf("raw query: status %d, err %v: %s", code, err, body)
	}
	old := 0
	for i, s := range q.Samples {
		if i > 0 && s.TsNs <= q.Samples[i-1].TsNs {
			t.Fatalf("samples out of order at %d: %+v", i, q.Samples)
		}
		if s.TsNs <= before.NewestNs {
			old++
		}
	}
	if old != before.Points || len(q.Samples) <= old {
		t.Fatalf("raw query serves %d samples, %d of them from the previous process; want all %d of its points and newer ones",
			len(q.Samples), old, before.Points)
	}
}

// TestTSDBInWALDirStaysInMemory: with -tsdb naming the -wal directory,
// the history stays in memory — both logs name their segments
// NNNNNNNN.wal — and the journal still replays intact after a crash.
func TestTSDBInWALDirStaysInMemory(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	cfg.TSDBDir = cfg.WALDir
	cfg.TSInterval = 20 * time.Millisecond
	// No alert rules: the process-wide registry can still carry an earlier
	// test's shadow gauges, and a rollback they fire restores Q from the
	// checkpoint without journaling it, so the successor's replay could
	// not land on the victim's state.
	cfg.AlertRules = []health.Rule{}
	victim, err := newServer(cfg)
	if err != nil {
		t.Fatalf("victim: %v", err)
	}
	for i := 0; i < 6; i++ {
		feedEvents(t, victim, 8)
		time.Sleep(cfg.TSInterval) // let ticks append points between the events
	}
	waitUntil(t, 10*time.Second, "ticks during the traffic", func() bool {
		return victim.ts.Stats().Points >= 3
	})
	if st := victim.ts.Stats(); st.Segments != 0 || st.SizeBytes != 0 {
		t.Fatalf("history in the WAL directory: %+v, want it in memory only", st)
	}
	want := learnState(t, victim)
	// Crash: no Close, no final checkpoint, no WAL reset.

	successor, err := newServer(cfg)
	if err != nil {
		t.Fatalf("successor: %v", err)
	}
	defer successor.Close()
	assertSameLearnState(t, want, learnState(t, successor))
}
