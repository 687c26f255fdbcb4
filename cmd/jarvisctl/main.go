// Command jarvisctl is a tiny client for the jarvisd hub daemon:
//
//	jarvisctl -addr 127.0.0.1:7463 state
//	jarvisctl -addr 127.0.0.1:7463,127.0.0.1:7473 recommend   (primary,standby failover)
//	jarvisctl promote
//	jarvisctl event oven power_on
//	jarvisctl recommend
//	jarvisctl violations
//	jarvisctl stats
//	jarvisctl -format prom stats
//	jarvisctl -n 5 -slowest trace
//	jarvisctl replay
//	jarvisctl alerts
//	jarvisctl slo
//	jarvisctl -debug-addr 127.0.0.1:7464,127.0.0.1:7474 top
//	jarvisctl -debug-addr 127.0.0.1:7464,127.0.0.1:7474 -once -format json top
//
// Protocol commands negotiate the length-prefixed binary codec by default
// and silently fall back to JSON lines against daemons that predate it;
// -wire binary|json pins the codec instead.
//
// alerts and slo render the daemon's policy-health surface: alerts shows
// the firing/resolved alert state plus the latest shadow-evaluation
// report (non-zero exit while anything fires), slo shows each objective's
// rolling-window error-budget burn rate (non-zero exit when out of SLO).
//
// top is the fleet view: -debug-addr takes a comma-separated list of
// daemons, each polled concurrently, and renders one role-aware row per
// daemon (primary vs follower, replication lag, firing alerts, recommend
// throughput, and a p99 sparkline from the on-disk metric history). It
// refreshes every -interval; -once renders a single poll, and
// -once -format json emits the machine-readable report scripts consume.
//
// stats, trace, and replay talk to the daemon's debug HTTP listener
// (-debug-addr) instead of the TCP protocol: stats renders the /metrics
// telemetry snapshot (-format text|json|prom picks the representation),
// trace fetches recent sampled request traces from /debug/traces and prints
// each span tree with durations and annotations, and replay asks the daemon
// (via /debug/replay) to deterministically re-execute its own WAL and
// verify the regenerated decisions against its decision log — exiting
// non-zero if the daemon cannot reproduce its own history.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"jarvis/internal/health"
	"jarvis/internal/replay"
	"jarvis/internal/telemetry"
	"jarvis/internal/trace"
	"jarvis/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "jarvisctl:", err)
		os.Exit(1)
	}
}

// request mirrors jarvisd's protocol.
type request struct {
	Op     string `json:"op"`
	Device string `json:"device,omitempty"`
	Action string `json:"action,omitempty"`
}

// response mirrors jarvisd's protocol.
type response struct {
	OK           bool     `json:"ok"`
	Error        string   `json:"error,omitempty"`
	State        []string `json:"state,omitempty"`
	Action       string   `json:"action,omitempty"`
	Unsafe       bool     `json:"unsafe,omitempty"`
	Violations   int      `json:"violations,omitempty"`
	Minute       int      `json:"minute,omitempty"`
	Degraded     int      `json:"degraded,omitempty"`
	Q            float64  `json:"q,omitempty"`
	Busy         bool     `json:"busy,omitempty"`
	RetryAfterMs int      `json:"retryAfterMs,omitempty"`
	Role         string   `json:"role,omitempty"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("jarvisctl", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7463", "jarvisd address, or a comma-separated primary,standby list tried in order")
	debugAddr := fs.String("debug-addr", "127.0.0.1:7464", "jarvisd debug (metrics) address")
	timeout := fs.Duration("timeout", 5*time.Second, "dial/roundtrip timeout")
	retries := fs.Int("retries", 3, "retries after a connection failure or busy rejection (0 = single attempt)")
	wireMode := fs.String("wire", "auto", "protocol codec: auto (negotiate binary, fall back to JSON) | binary | json")
	format := fs.String("format", "text", "stats representation: text | json | prom")
	traceN := fs.Int("n", 0, "trace: how many traces to fetch (0 = all retained)")
	slowest := fs.Bool("slowest", false, "trace: rank by duration instead of recency")
	once := fs.Bool("once", false, "top: render a single poll and exit instead of refreshing")
	interval := fs.Duration("interval", 2*time.Second, "top: refresh cadence of the live view")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch rest := fs.Args(); {
	case len(rest) > 0 && rest[0] == "stats":
		if len(rest) != 1 {
			return fmt.Errorf("stats takes no arguments")
		}
		return runStats(*debugAddr, *timeout, *format, out)
	case len(rest) > 0 && rest[0] == "trace":
		if len(rest) != 1 {
			return fmt.Errorf("trace takes no arguments")
		}
		return runTrace(*debugAddr, *timeout, *traceN, *slowest, out)
	case len(rest) > 0 && rest[0] == "replay":
		if len(rest) != 1 {
			return fmt.Errorf("replay takes no arguments")
		}
		return runReplay(*debugAddr, *timeout, out)
	case len(rest) > 0 && rest[0] == "alerts":
		if len(rest) != 1 {
			return fmt.Errorf("alerts takes no arguments")
		}
		return runAlerts(*debugAddr, *timeout, out)
	case len(rest) > 0 && rest[0] == "slo":
		if len(rest) != 1 {
			return fmt.Errorf("slo takes no arguments")
		}
		return runSLO(*debugAddr, *timeout, out)
	case len(rest) > 0 && rest[0] == "top":
		if len(rest) != 1 {
			return fmt.Errorf("top takes no arguments")
		}
		return runTop(splitAddrs(*debugAddr), *timeout, *interval, *once, *format, out)
	}
	req, err := buildRequest(fs.Args())
	if err != nil {
		return err
	}
	addrs := splitAddrs(*addr)
	if len(addrs) == 0 {
		return fmt.Errorf("-addr is empty")
	}
	resp, err := dispatchRequest(*wireMode, addrs, *timeout, *retries, req, time.Sleep)
	if err != nil {
		return err
	}
	return render(out, req, resp)
}

// splitAddrs parses a comma-separated address list, dropping empty
// entries so trailing commas are harmless.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// roundTripRetry retries transient failures — a connection that cannot be
// made or dies mid-exchange, or an admission-control busy rejection — with
// jittered exponential backoff. A busy daemon's RetryAfterMs hint, when
// present, overrides the backoff base for that attempt. Protocol-level
// errors (resp.Error without Busy) are never retried: the daemon answered,
// it just said no. The client exits non-zero only once every attempt is
// exhausted.
func roundTripRetry(addrs []string, timeout time.Duration, retries int, req request, sleep func(time.Duration)) (response, error) {
	return retryLoop(roundTrip, addrs, timeout, retries, req, sleep)
}

// retryLoop is roundTripRetry over any single-exchange transport; the
// binary codec plugs in here with the same busy/backoff semantics. A
// wire.ErrNotBinary answer is permanent (the daemon spoke, in JSON) and
// short-circuits the retries so auto-negotiation can fall back at once.
//
// With several addresses (primary,standby failover), a transport failure
// rotates to the next address before sleeping, while a busy rejection
// stays put — the daemon answered, and its RetryAfterMs hint is about
// that daemon. The attempt budget stretches to cover at least one try per
// address, and the final error names every address exhausted.
func retryLoop(rt func(string, time.Duration, request) (response, error), addrs []string, timeout time.Duration, retries int, req request, sleep func(time.Duration)) (response, error) {
	backoff := 50 * time.Millisecond
	attempts := retries + 1
	if len(addrs) > attempts {
		attempts = len(addrs)
	}
	cur := 0
	for attempt := 0; ; attempt++ {
		resp, err := rt(addrs[cur], timeout, req)
		if err != nil && errors.Is(err, wire.ErrNotBinary) {
			return response{}, err
		}
		var lastErr error
		switch {
		case err == nil && !resp.Busy:
			return resp, nil
		case err == nil:
			lastErr = fmt.Errorf("daemon busy: %s", resp.Error)
		default:
			lastErr = err
			cur = (cur + 1) % len(addrs)
		}
		if attempt >= attempts-1 {
			if len(addrs) > 1 {
				return response{}, fmt.Errorf("%w (exhausted %d attempt(s) across %s)",
					lastErr, attempt+1, strings.Join(addrs, ", "))
			}
			if attempt > 0 {
				return response{}, fmt.Errorf("%w (after %d attempts)", lastErr, attempt+1)
			}
			return response{}, lastErr
		}
		wait := backoff
		if err == nil && resp.RetryAfterMs > 0 {
			wait = time.Duration(resp.RetryAfterMs) * time.Millisecond
		}
		// Half fixed, half jitter: concurrent clients retrying off the same
		// rejection spread out instead of stampeding back in lockstep.
		wait = wait/2 + time.Duration(rand.Int63n(int64(wait/2)+1))
		sleep(wait)
		backoff *= 2
	}
}

func buildRequest(args []string) (request, error) {
	if len(args) == 0 {
		return request{}, fmt.Errorf("expected a command: state|event <device> <action>|recommend|violations|promote|stats|trace|replay|alerts|slo|top")
	}
	switch args[0] {
	case "state", "recommend", "violations", "promote":
		if len(args) != 1 {
			return request{}, fmt.Errorf("%s takes no arguments", args[0])
		}
		return request{Op: args[0]}, nil
	case "event":
		if len(args) != 3 {
			return request{}, fmt.Errorf("usage: event <device> <action>")
		}
		return request{Op: "event", Device: args[1], Action: args[2]}, nil
	}
	return request{}, fmt.Errorf("unknown command %q", args[0])
}

// alertsDocument mirrors jarvisd's /debug/alerts body.
type alertsDocument struct {
	Stats   health.EngineStats   `json:"stats"`
	Firing  []health.Alert       `json:"firing"`
	History []health.Transition  `json:"history"`
	Shadow  *health.ShadowReport `json:"shadow,omitempty"`
}

// runAlerts fetches /debug/alerts and renders the firing alerts, recent
// transitions, and the latest shadow-evaluation report. Firing alerts
// exit non-zero so the command doubles as a scriptable health probe.
func runAlerts(addr string, timeout time.Duration, out io.Writer) error {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get("http://" + addr + "/debug/alerts")
	if err != nil {
		return fmt.Errorf("fetch alerts from %s: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("alerts endpoint returned %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var doc alertsDocument
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return fmt.Errorf("decode alerts: %w", err)
	}
	st := doc.Stats
	fmt.Fprintf(out, "alerting: %d rule(s), %d evaluation(s), %d fired, %d resolved\n",
		st.Rules, st.Evaluations, st.Fired, st.Resolved)
	if len(doc.Firing) == 0 {
		fmt.Fprintln(out, "no alerts firing")
	} else {
		fmt.Fprintf(out, "%d alert(s) FIRING:\n", len(doc.Firing))
		for _, a := range doc.Firing {
			fmt.Fprintf(out, "  [%s] %s: value %g %s %g (breaching %d eval(s), since %s)\n",
				a.Severity, a.Rule, a.Value, a.Op, a.Threshold, a.Count,
				time.Unix(0, a.FiredUnixNs).Format(time.RFC3339))
			if a.Description != "" {
				fmt.Fprintf(out, "      %s\n", a.Description)
			}
		}
	}
	if len(doc.History) > 0 {
		fmt.Fprintln(out, "recent transitions:")
		for _, tr := range doc.History {
			fmt.Fprintf(out, "  %s %-8s %s (value %g %s %g)\n",
				time.Unix(0, tr.UnixNs).Format(time.RFC3339), tr.State, tr.Rule,
				tr.Value, tr.Op, tr.Threshold)
		}
	}
	if sh := doc.Shadow; sh != nil {
		fmt.Fprintf(out, "shadow evaluation at %s: divergence %.3f over %d recommendation(s), reward delta %+.3f, violation delta %+d (%dms)\n",
			time.Unix(0, sh.UnixNs).Format(time.RFC3339), sh.DivergenceRate,
			sh.Recommends, sh.RewardDelta, sh.ViolationDelta, sh.DurationMs)
		if sh.Err != "" {
			fmt.Fprintf(out, "  last shadow error: %s\n", sh.Err)
		}
	}
	if len(doc.Firing) > 0 {
		return fmt.Errorf("%d alert(s) firing", len(doc.Firing))
	}
	return nil
}

// runSLO fetches /debug/slo and renders each objective's windowed burn
// rate. An objective out of SLO (burn > 1) exits non-zero.
func runSLO(addr string, timeout time.Duration, out io.Writer) error {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get("http://" + addr + "/debug/slo")
	if err != nil {
		return fmt.Errorf("fetch slo from %s: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("slo endpoint returned %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var rep health.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return fmt.Errorf("decode slo: %w", err)
	}
	fmt.Fprintf(out, "SLO window %s (%d sample(s) spanning %s)\n",
		time.Duration(rep.WindowMs)*time.Millisecond, rep.Samples,
		time.Duration(rep.SpanMs)*time.Millisecond)
	missed := 0
	for _, o := range rep.Objectives {
		status := "ok"
		if !o.Met {
			status = "OUT OF SLO"
			missed++
		}
		fmt.Fprintf(out, "  %-26s %-8s burn %.3f (%d bad / %d total)", o.Name, o.Kind, o.BurnRate, o.Bad, o.Total)
		if o.P99Ns > 0 {
			fmt.Fprintf(out, " p99=%s", time.Duration(o.P99Ns))
		}
		fmt.Fprintf(out, " [%s]\n", status)
	}
	if missed > 0 {
		return fmt.Errorf("%d objective(s) out of SLO", missed)
	}
	return nil
}

func roundTrip(addr string, timeout time.Duration, req request) (response, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return response{}, fmt.Errorf("dial %s: %w", addr, err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return response{}, err
	}
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		return response{}, fmt.Errorf("send: %w", err)
	}
	var resp response
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&resp); err != nil {
		return response{}, fmt.Errorf("receive: %w", err)
	}
	return resp, nil
}

func render(out io.Writer, req request, resp response) error {
	if !resp.OK {
		return fmt.Errorf("daemon: %s", resp.Error)
	}
	switch req.Op {
	case "state":
		fmt.Fprintf(out, "minute %02d:%02d, %d violation(s)\n", resp.Minute/60, resp.Minute%60, resp.Violations)
		for _, s := range resp.State {
			fmt.Fprintln(out, " ", s)
		}
	case "event":
		verdict := "safe"
		if resp.Unsafe {
			verdict = "UNSAFE (flagged)"
		}
		fmt.Fprintf(out, "applied [%s]; state now:\n  %s\n", verdict, strings.Join(resp.State, "\n  "))
	case "recommend":
		fmt.Fprintf(out, "recommended action at %02d:%02d: %s (q=%.4f)\n",
			resp.Minute/60, resp.Minute%60, resp.Action, resp.Q)
		if resp.Degraded > 0 {
			fmt.Fprintf(out, "warning: %d recommendation(s) degraded to the safe no-op\n", resp.Degraded)
		}
	case "violations":
		fmt.Fprintf(out, "%d violation(s) observed\n", resp.Violations)
	case "promote":
		// The daemon acknowledges and promotes asynchronously (it has to
		// drain the buffered stream tail first), so the role in the answer
		// is usually still "follower".
		fmt.Fprintf(out, "promotion requested (role at answer time: %s)\n", resp.Role)
	}
	return nil
}

// runStats fetches one telemetry snapshot from the daemon's debug listener
// and renders it. Any non-200 answer is an error, which is what the
// `make stats` smoke probe relies on. format selects the representation:
// the human summary (text), the raw JSON snapshot (json), or Prometheus
// text exposition (prom) — the latter two copy the daemon's bytes through
// untouched, so the output is exactly what a scraper would see.
func runStats(addr string, timeout time.Duration, format string, out io.Writer) error {
	url := "http://" + addr + "/metrics"
	switch format {
	case "text", "json":
	case "prom", "prometheus":
		url += "?format=prom"
	default:
		return fmt.Errorf("unknown -format %q (want text, json, or prom)", format)
	}
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("fetch metrics from %s: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("metrics endpoint returned %s", resp.Status)
	}
	if format != "text" {
		_, err := io.Copy(out, resp.Body)
		return err
	}
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("decode metrics: %w", err)
	}
	renderStats(out, snap)
	return nil
}

// runTrace fetches sampled request traces from /debug/traces and prints
// one indented span tree per trace, children nested under parents with
// durations and annotations inline.
func runTrace(addr string, timeout time.Duration, n int, slowest bool, out io.Writer) error {
	url := fmt.Sprintf("http://%s/debug/traces?n=%d", addr, n)
	if slowest {
		url += "&sort=slowest"
	}
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("fetch traces from %s: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("traces endpoint returned %s", resp.Status)
	}
	dec := json.NewDecoder(resp.Body)
	count := 0
	for dec.More() {
		var td trace.TraceData
		if err := dec.Decode(&td); err != nil {
			return fmt.Errorf("decode trace: %w", err)
		}
		renderTrace(out, &td)
		count++
	}
	if count == 0 {
		fmt.Fprintln(out, "no traces retained (is the daemon running with -trace-sample?)")
	}
	return nil
}

// runReplay asks the daemon to verify itself: /debug/replay re-executes
// the daemon's WAL through the deterministic replay engine and diffs the
// regenerated decision stream against the recorded decision log. 200 means
// the daemon reproduces its own history bit-for-bit; 409 carries the first
// divergence; anything else is an operational error. The replay may need
// to rebuild the learning state, so give it a generous -timeout.
func runReplay(addr string, timeout time.Duration, out io.Writer) error {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get("http://" + addr + "/debug/replay")
	if err != nil {
		return fmt.Errorf("fetch replay verification from %s: %w", addr, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusConflict:
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("replay endpoint returned %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var rep replay.VerifyReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return fmt.Errorf("decode replay report: %w", err)
	}
	st := rep.Replayed
	fmt.Fprintf(out, "replayed %d events, %d transitions, %d recommendations (%d learn steps, %d violations)\n",
		st.Events, st.Transitions, st.Recommends, st.LearnSteps, st.Violations)
	if rep.Restored {
		fmt.Fprintf(out, "seeded from checkpoint generation %d\n", rep.CheckpointGen)
	}
	if rep.Match {
		fmt.Fprintf(out, "decision streams MATCH over %d compared decision(s)\n", rep.Compared)
		return nil
	}
	if d := rep.Divergence; d != nil {
		fmt.Fprintf(out, "DIVERGENCE at index %d (seq %d, kind %s, minute %d): %s\n",
			d.Index, d.Seq, d.Kind, d.Minute, d.Reason)
		fmt.Fprintf(out, "  recorded: action=%q q=%g verdict=%q\n", d.RecordedAction, d.RecordedQ, d.RecordedVerdict)
		fmt.Fprintf(out, "  replayed: action=%q q=%g verdict=%q\n", d.ReplayedAction, d.ReplayedQ, d.ReplayedVerdict)
	}
	return fmt.Errorf("daemon could not reproduce its own decision log")
}

// renderTrace prints one span tree. Spans are stored flat in creation
// order with parent indices, so depth is the length of the parent chain.
func renderTrace(out io.Writer, td *trace.TraceData) {
	fmt.Fprintf(out, "trace %s %s %s at %s\n", td.ID, td.Name,
		time.Duration(td.DurNs), time.Unix(0, td.UnixNs).Format(time.RFC3339Nano))
	depths := make([]int, len(td.Spans))
	for i, sp := range td.Spans {
		if i == 0 {
			continue
		}
		if sp.Parent >= 0 && sp.Parent < i {
			depths[i] = depths[sp.Parent] + 1
		}
		fmt.Fprintf(out, "%s%s %s", strings.Repeat("  ", depths[i]), sp.Name, time.Duration(sp.DurNs))
		for _, an := range sp.Annotations {
			fmt.Fprintf(out, " %s=%s", an.K, an.V)
		}
		fmt.Fprintln(out)
	}
}

func renderStats(out io.Writer, snap telemetry.Snapshot) {
	fmt.Fprintf(out, "snapshot at %s\n", time.Unix(0, snap.UnixNs).Format(time.RFC3339))
	if len(snap.Counters) > 0 {
		fmt.Fprintln(out, "counters:")
		for _, name := range telemetry.SortedNames(snap.Counters) {
			fmt.Fprintf(out, "  %-42s %d\n", name, snap.Counters[name])
		}
	}
	if len(snap.Gauges) > 0 {
		fmt.Fprintln(out, "gauges:")
		for _, name := range telemetry.SortedNames(snap.Gauges) {
			fmt.Fprintf(out, "  %-42s %g\n", name, snap.Gauges[name])
		}
	}
	if len(snap.Histograms) > 0 {
		fmt.Fprintln(out, "histograms:")
		for _, name := range telemetry.SortedNames(snap.Histograms) {
			h := snap.Histograms[name]
			fmt.Fprintf(out, "  %-42s n=%d p50=%s p95=%s p99=%s max=%s\n",
				name, h.Count, time.Duration(h.P50Ns), time.Duration(h.P95Ns),
				time.Duration(h.P99Ns), time.Duration(h.MaxNs))
		}
	}
	// Surfaced even when zero so an operator can see the trace pipeline
	// itself is intact: completed traces currently retained.
	fmt.Fprintf(out, "traces sampled: %g\n", snap.Gauges["jarvisd.traces.sampled"])
}
