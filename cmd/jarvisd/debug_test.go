package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"jarvis/internal/env"
	"jarvis/internal/replay"
	"jarvis/internal/rl"
	"jarvis/internal/smarthome"
	"jarvis/internal/telemetry"
)

// startDebugTestServer boots a daemon with the observability surface on an
// ephemeral port.
func startDebugTestServer(t *testing.T, cfg serverConfig) *server {
	t.Helper()
	cfg.DebugAddr = "127.0.0.1:0"
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	if err := srv.listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	if srv.DebugAddr() == "" {
		t.Fatal("debug listener did not come up")
	}
	return srv
}

func httpGet(t *testing.T, srv *server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + srv.DebugAddr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s body: %v", path, err)
	}
	return resp.StatusCode, body
}

// TestMetricsEndpoint: /metrics serves valid JSON whose request counters
// are monotone across scrapes and reflect served traffic.
func TestMetricsEndpoint(t *testing.T) {
	srv := startDebugTestServer(t, serverConfig{Seed: 1, LearningDays: 2, Episodes: 2})

	code, body := httpGet(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d, want 200", code)
	}
	var snap1 telemetry.Snapshot
	if err := json.Unmarshal(body, &snap1); err != nil {
		t.Fatalf("/metrics is not valid JSON: %v", err)
	}
	if snap1.Counters == nil || snap1.Gauges == nil || snap1.Histograms == nil {
		t.Fatalf("snapshot missing sections: %+v", snap1)
	}

	// Serve some protocol traffic between scrapes.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	enc := json.NewEncoder(conn)
	dec := json.NewDecoder(bufio.NewReader(conn))
	const reqs = 5
	for i := 0; i < reqs; i++ {
		if resp := roundTrip(t, enc, dec, request{Op: "state"}); !resp.OK {
			t.Fatalf("state: %+v", resp)
		}
	}

	_, body = httpGet(t, srv, "/metrics")
	var snap2 telemetry.Snapshot
	if err := json.Unmarshal(body, &snap2); err != nil {
		t.Fatalf("second /metrics is not valid JSON: %v", err)
	}
	stateSeries := `jarvisd.requests{op="state"}`
	got := snap2.Counters[stateSeries] - snap1.Counters[stateSeries]
	if got < reqs {
		t.Errorf("%s grew by %d, want >= %d", stateSeries, got, reqs)
	}
	for name, v := range snap1.Counters {
		if snap2.Counters[name] < v {
			t.Errorf("counter %s went backwards: %d -> %d", name, v, snap2.Counters[name])
		}
	}
	if snap2.Histograms["jarvisd.request.latency"].Count < snap1.Histograms["jarvisd.request.latency"].Count+reqs {
		t.Errorf("request latency histogram did not grow: %+v -> %+v",
			snap1.Histograms["jarvisd.request.latency"], snap2.Histograms["jarvisd.request.latency"])
	}
	if snap2.Gauges["jarvisd.conns.active"] < 1 {
		t.Errorf("jarvisd.conns.active = %v with a live client", snap2.Gauges["jarvisd.conns.active"])
	}
}

// TestExpvarAndPprofEndpoints: the stock Go debug surfaces are mounted on
// the same listener and the expvar view carries the telemetry snapshot.
func TestExpvarAndPprofEndpoints(t *testing.T) {
	srv := startDebugTestServer(t, serverConfig{Seed: 1, LearningDays: 2, Episodes: 2})

	code, body := httpGet(t, srv, "/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars status = %d, want 200", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	if _, ok := vars["telemetry"]; !ok {
		t.Error("/debug/vars does not publish the telemetry snapshot")
	}

	code, body = httpGet(t, srv, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("/debug/pprof/ status = %d, want a 200 profile index", code)
	}
}

// poisonQ drives the daemon's tabular Q function to NaN for its current
// state across every time bucket, simulating a diverged optimizer: the TD
// update Q ← Q + α(NaN − Q) propagates NaN into the stored row.
func poisonQ(t *testing.T, srv *server) {
	t.Helper()
	q, ok := srv.sys.Agent().Q().(*rl.TableQ)
	if !ok {
		t.Fatalf("daemon Q function is %T, want *rl.TableQ", srv.sys.Agent().Q())
	}
	nan := math.NaN()
	srv.mu.Lock()
	state := append(env.State(nil), srv.stream.State...)
	srv.mu.Unlock()
	for inst := 0; inst < smarthome.InstancesPerDay; inst += 15 {
		exp := rl.Experience{S: state, T: inst, Minis: []int{0}}
		if _, err := q.Update([]rl.Experience{exp}, []float64{nan}); err != nil {
			t.Fatalf("poison update: %v", err)
		}
	}
	invalidateCompiledFor(srv)
}

// invalidateCompiledFor mirrors what every in-band Q mutation does through
// System's hooks: tests that poison the Q function out-of-band must mark
// the compiled serving table stale themselves, and the rebuild then
// refuses the non-finite values — so requests fall back to the live agent
// path these tests exercise.
func invalidateCompiledFor(srv *server) {
	c := srv.sys.CompiledPolicy()
	if c == nil {
		return
	}
	srv.mu.Lock()
	c.Invalidate()
	srv.mu.Unlock()
	c.Wait()
}

// TestHealthzDegradesOnNaN is the degraded-mode acceptance test: /healthz
// reports 200 on a healthy daemon and flips to 503 once a recommendation
// falls back to the safe NoOp because the Q function produced NaN.
func TestHealthzDegradesOnNaN(t *testing.T) {
	srv := startDebugTestServer(t, serverConfig{Seed: 1, LearningDays: 2, Episodes: 2})

	code, body := httpGet(t, srv, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthy /healthz status = %d, want 200 (%s)", code, body)
	}
	var h healthStatus
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("/healthz is not valid JSON: %v", err)
	}
	if h.Status != "ok" || h.DegradedRecommendations != 0 {
		t.Fatalf("healthy daemon reports %+v", h)
	}

	poisonQ(t, srv)
	resp := srv.handle(request{Op: "recommend"})
	if !resp.OK {
		t.Fatalf("recommend on poisoned daemon: %+v", resp)
	}
	if resp.Degraded == 0 {
		t.Fatal("recommendation against a NaN Q function did not degrade")
	}

	code, body = httpGet(t, srv, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded /healthz status = %d, want 503 (%s)", code, body)
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("degraded /healthz is not valid JSON: %v", err)
	}
	if h.Status != "degraded" || h.DegradedRecommendations == 0 {
		t.Errorf("degraded daemon reports %+v", h)
	}
}

// TestHealthzReportsCheckpointAge: with checkpointing on, /healthz carries
// the age of the last successful save.
func TestHealthzReportsCheckpointAge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jarvisd.ckpt")
	srv := startDebugTestServer(t, serverConfig{
		Seed: 1, LearningDays: 2, Episodes: 2, CheckpointPath: path,
	})
	code, body := httpGet(t, srv, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status = %d, want 200", code)
	}
	var h healthStatus
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("/healthz is not valid JSON: %v", err)
	}
	if h.CheckpointAgeSec <= 0 || h.CheckpointAgeSec > 600 {
		t.Errorf("checkpointAgeSec = %v, want a small positive age", h.CheckpointAgeSec)
	}
}

// TestConcurrentScrapesAndTraffic exercises /metrics and /healthz scrapes
// against live protocol traffic; run under -race (CI does) it proves the
// observability surface adds no data races to the request path.
func TestConcurrentScrapesAndTraffic(t *testing.T) {
	srv := startDebugTestServer(t, serverConfig{Seed: 1, LearningDays: 2, Episodes: 2})
	var wg sync.WaitGroup
	errc := make(chan error, 6)

	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				for _, path := range []string{"/metrics", "/healthz"} {
					resp, err := http.Get("http://" + srv.DebugAddr() + path)
					if err != nil {
						errc <- err
						return
					}
					var v any
					err = json.NewDecoder(resp.Body).Decode(&v)
					resp.Body.Close()
					if err != nil {
						errc <- fmt.Errorf("%s: %w", path, err)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				errc <- err
				return
			}
			defer conn.Close()
			enc := json.NewEncoder(conn)
			dec := json.NewDecoder(bufio.NewReader(conn))
			ops := []request{{Op: "state"}, {Op: "recommend"}, {Op: "violations"}}
			for j := 0; j < 20; j++ {
				if err := enc.Encode(ops[j%len(ops)]); err != nil {
					errc <- err
					return
				}
				var resp response
				if err := dec.Decode(&resp); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Errorf("concurrent scrape/traffic: %v", err)
	}
}

// TestDecisionLogRecordsRecommendations: with -log-decisions, every
// recommendation and checked event lands in the JSON-lines audit log with
// its verdict, and the log survives Close (flushed and fsynced).
func TestDecisionLogRecordsRecommendations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions.jsonl")
	srv, err := newServer(serverConfig{
		Seed: 1, LearningDays: 2, Episodes: 2, DecisionLogPath: path,
	})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	if resp := srv.handle(request{Op: "recommend"}); !resp.OK {
		t.Fatalf("recommend: %+v", resp)
	}
	if resp := srv.handle(request{Op: "event", Device: "door-sensor", Action: "power_off"}); !resp.Unsafe {
		t.Fatalf("sensor-off should be unsafe: %+v", resp)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read decision log: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("decision log has %d lines, want 2:\n%s", len(lines), data)
	}
	var recs []replay.LoggedDecision
	for _, line := range lines {
		var rec replay.LoggedDecision
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("decision line %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	if recs[0].Kind != "recommend" || recs[0].Verdict != "safe" || recs[0].Action == "" {
		t.Errorf("recommend record: %+v", recs[0])
	}
	if recs[0].UnixNs <= 0 || len(recs[0].State) == 0 {
		t.Errorf("recommend record missing timestamp or state: %+v", recs[0])
	}
	if recs[1].Kind != "event" || recs[1].Verdict != "unsafe" {
		t.Errorf("unsafe event record: %+v", recs[1])
	}
}

// TestDecisionLogSyncDurability: Sync makes buffered decisions durable
// while the daemon keeps running (the shutdown path relies on the same
// flush+fsync inside Close after SIGINT/SIGTERM).
func TestDecisionLogSyncDurability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions.jsonl")
	srv, err := newServer(serverConfig{
		Seed: 1, LearningDays: 2, Episodes: 2, DecisionLogPath: path,
	})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	if resp := srv.handle(request{Op: "recommend"}); !resp.OK {
		t.Fatalf("recommend: %+v", resp)
	}
	// Before Sync the record may sit in the bufio layer; after Sync it must
	// be on disk even though the server is still running.
	if err := srv.decisions.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read decision log: %v", err)
	}
	if !strings.Contains(string(data), `"kind":"recommend"`) {
		t.Errorf("synced decision log missing record: %q", data)
	}
}

// TestFinalSnapshotMarshals: the shutdown farewell line must always be
// producible — the snapshot marshals to one JSON object even while
// metrics carry data.
func TestFinalSnapshotMarshals(t *testing.T) {
	snap := telemetry.Default.Snapshot()
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("final snapshot does not marshal: %v", err)
	}
	if !json.Valid(b) || b[0] != '{' {
		t.Fatalf("final snapshot is not a JSON object: %s", b)
	}
}
