package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jarvis/internal/replay"
	"jarvis/internal/trace"
)

// bootTracedServer starts a daemon tracing every request, with the anomaly
// filter, WAL, decision log, and debug listener all on — the full pipeline
// a sampled span tree is supposed to cover.
func bootTracedServer(t *testing.T) (*server, string) {
	t.Helper()
	logPath := filepath.Join(t.TempDir(), "decisions.jsonl")
	srv := startDebugTestServer(t, serverConfig{
		Seed: 1, LearningDays: 2, Episodes: 2,
		TraceSample:     1,
		AnomalyFilter:   true,
		WALDir:          filepath.Join(t.TempDir(), "wal"),
		DecisionLogPath: logPath,
	})
	return srv, logPath
}

// findTrace returns the newest completed trace with the given root name.
func findTrace(t *testing.T, srv *server, name string) *trace.TraceData {
	t.Helper()
	for _, td := range srv.tracer.Ring().Recent(0) {
		if td.Name == name {
			return td
		}
	}
	t.Fatalf("no completed trace named %q in ring", name)
	return nil
}

// TestRecommendTraceSpanTree: a sampled recommend request produces one
// trace whose span tree covers the server op, the queue wait, the RL
// selection, the policy audit, and the anomaly score — with every child
// span parented inside the tree — over either codec.
func TestRecommendTraceSpanTree(t *testing.T) {
	for _, codec := range codecs {
		t.Run(codec, func(t *testing.T) {
			srv, _ := bootTracedServer(t)
			if resp := dialCodec(t, srv, codec)(request{Op: "recommend"}, nil); !resp.OK {
				t.Fatalf("recommend: %+v", resp)
			}
			td := findTrace(t, srv, "jarvisd.recommend")
			if len(td.ID) != 16 {
				t.Errorf("trace ID %q is not 16 hex digits", td.ID)
			}
			if td.DurNs <= 0 {
				t.Errorf("trace duration %d, want > 0", td.DurNs)
			}
			seen := map[string]bool{}
			for i, sp := range td.Spans {
				seen[sp.Name] = true
				if i == 0 {
					if sp.Parent != -1 {
						t.Errorf("root span parent = %d, want -1", sp.Parent)
					}
					continue
				}
				if sp.Parent < 0 || int(sp.Parent) >= len(td.Spans) {
					t.Errorf("span %q has out-of-tree parent %d", sp.Name, sp.Parent)
				}
			}
			for _, want := range []string{"jarvisd.recommend", "queue.wait", "rl.select", "policy.audit", "anomaly.score"} {
				if !seen[want] {
					t.Errorf("span tree missing stage %q: %v", want, names(td))
				}
			}
		})
	}
}

// TestEventTraceCoversDurabilityPath: a traced event shows the safety
// audit, the WAL append, and the learning ingestion as spans, over either
// codec.
func TestEventTraceCoversDurabilityPath(t *testing.T) {
	for _, codec := range codecs {
		t.Run(codec, func(t *testing.T) {
			srv, _ := bootTracedServer(t)
			req := request{Op: "event", Device: "fridge", Action: "open_door"}
			if resp := dialCodec(t, srv, codec)(req, nil); !resp.OK {
				t.Fatalf("event: %+v", resp)
			}
			td := findTrace(t, srv, "jarvisd.event")
			seen := map[string]bool{}
			for _, sp := range td.Spans {
				seen[sp.Name] = true
			}
			for _, want := range []string{"policy.audit", "wal.append", "learn.ingest"} {
				if !seen[want] {
					t.Errorf("event trace missing %q: %v", want, names(td))
				}
			}
		})
	}
}

func names(td *trace.TraceData) []string {
	out := make([]string, len(td.Spans))
	for i, sp := range td.Spans {
		out[i] = sp.Name
	}
	return out
}

// TestDecisionLogCarriesTraceID: the decision-log record written for a
// sampled recommendation carries the hex trace ID of the ring trace — the
// join key between the audit log and /debug/traces.
func TestDecisionLogCarriesTraceID(t *testing.T) {
	srv, logPath := bootTracedServer(t)
	if resp := srv.handle(request{Op: "recommend"}); !resp.OK {
		t.Fatalf("recommend: %+v", resp)
	}
	if err := srv.decisions.Sync(); err != nil {
		t.Fatalf("sync decision log: %v", err)
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatalf("read decision log: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var rec replay.LoggedDecision
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatalf("decision line: %v", err)
	}
	if rec.Trace == "" {
		t.Fatal("sampled recommendation logged without a trace ID")
	}
	td := findTrace(t, srv, "jarvisd.recommend")
	if rec.Trace != td.ID {
		t.Errorf("decision log trace %q != ring trace %q", rec.Trace, td.ID)
	}
	if rec.Anomaly == 0 {
		t.Log("anomaly score is exactly 0 (possible but unusual for a sigmoid output)")
	}
}

// TestTraceEndpoints: /debug/traces serves decodable JSON lines and
// /debug/traces/chrome a well-formed Chrome trace_event document whose
// complete events all name a span from the ring.
func TestTraceEndpoints(t *testing.T) {
	srv, _ := bootTracedServer(t)
	if resp := srv.handle(request{Op: "recommend"}); !resp.OK {
		t.Fatalf("recommend: %+v", resp)
	}
	if resp := srv.handle(request{Op: "state"}); !resp.OK {
		t.Fatalf("state: %+v", resp)
	}

	code, body := httpGet(t, srv, "/debug/traces")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces status = %d", code)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) < 2 {
		t.Fatalf("/debug/traces returned %d lines, want >= 2", len(lines))
	}
	for _, line := range lines {
		var td trace.TraceData
		if err := json.Unmarshal([]byte(line), &td); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if td.Name == "" || len(td.Spans) == 0 {
			t.Errorf("empty trace line: %q", line)
		}
	}

	code, body = httpGet(t, srv, "/debug/traces/chrome")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces/chrome status = %d", code)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	var complete, withTraceID int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.Name == "" || ev.Ts < 0 || ev.Dur < 0 {
				t.Errorf("malformed complete event: %+v", ev)
			}
			if _, ok := ev.Args["traceId"]; ok {
				withTraceID++
			}
		case "M":
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if complete < 2 {
		t.Errorf("chrome export has %d complete events, want >= 2", complete)
	}
	if withTraceID == 0 {
		t.Error("no complete event carries args.traceId")
	}

	// ?sort=slowest&n=1 returns exactly the slowest trace.
	code, body = httpGet(t, srv, "/debug/traces?sort=slowest&n=1")
	if code != http.StatusOK {
		t.Fatalf("slowest status = %d", code)
	}
	if n := len(strings.Split(strings.TrimSpace(string(body)), "\n")); n != 1 {
		t.Errorf("slowest n=1 returned %d traces", n)
	}
}

// TestTracingDisabledByDefault: without -trace-sample the ring stays empty
// and requests carry nil spans (no trace IDs in the decision log).
func TestTracingDisabledByDefault(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "decisions.jsonl")
	srv, err := newServer(serverConfig{
		Seed: 1, LearningDays: 2, Episodes: 2, DecisionLogPath: logPath,
	})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	defer srv.Close()
	if resp := srv.handle(request{Op: "recommend"}); !resp.OK {
		t.Fatalf("recommend: %+v", resp)
	}
	if n := srv.tracer.Ring().Len(); n != 0 {
		t.Errorf("ring holds %d traces with tracing disabled", n)
	}
	if err := srv.decisions.Sync(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	var rec replay.LoggedDecision
	if err := json.Unmarshal([]byte(strings.TrimSpace(string(data))), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Trace != "" {
		t.Errorf("untraced recommendation has trace ID %q", rec.Trace)
	}
}

// TestMetricsPrometheusFormat: /metrics negotiates into Prometheus text
// exposition via ?format=prom or an Accept header, while the default stays
// the JSON snapshot.
func TestMetricsPrometheusFormat(t *testing.T) {
	srv := startDebugTestServer(t, serverConfig{Seed: 1, LearningDays: 2, Episodes: 2})
	if resp := srv.handle(request{Op: "recommend"}); !resp.OK {
		t.Fatalf("recommend: %+v", resp)
	}

	code, body := httpGet(t, srv, "/metrics?format=prom")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	text := string(body)
	if !strings.Contains(text, "# TYPE jarvisd_requests counter") {
		t.Errorf("missing requests counter TYPE line:\n%s", text)
	}
	// The registry is process-global, so other tests may have served
	// recommends too: assert a nonzero sample, not an exact count.
	var sampled bool
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, `jarvisd_requests{op="recommend"} `); ok {
			sampled = rest != "0"
		}
	}
	if !sampled {
		t.Errorf("recommend counter sample missing or zero:\n%s", text)
	}
	if !strings.Contains(text, "# TYPE jarvisd_request_latency_seconds histogram") {
		t.Errorf("missing latency histogram TYPE line:\n%s", text)
	}

	// Accept-header negotiation without an explicit format.
	req, _ := http.NewRequest(http.MethodGet, "http://"+srv.DebugAddr()+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Accept: text/plain got Content-Type %q", ct)
	}

	// Default stays JSON.
	_, body = httpGet(t, srv, "/metrics")
	var snap map[string]any
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Errorf("default /metrics is not JSON: %v", err)
	}
}
