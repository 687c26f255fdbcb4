package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"jarvis/internal/telemetry"
)

func startTestServer(t *testing.T) *server {
	t.Helper()
	return startTestServerConfig(t, serverConfig{Seed: 1, LearningDays: 2, Episodes: 2})
}

// startTestServerConfig boots a daemon with cfg on a loopback port and
// closes it when the test ends.
func startTestServerConfig(t *testing.T, cfg serverConfig) *server {
	t.Helper()
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
	return srv
}

func roundTrip(t *testing.T, enc *json.Encoder, dec *json.Decoder, req request) response {
	t.Helper()
	if err := enc.Encode(req); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var resp response
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp
}

func TestServerProtocol(t *testing.T) {
	srv := startTestServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	enc := json.NewEncoder(conn)
	dec := json.NewDecoder(bufio.NewReader(conn))

	// state
	resp := roundTrip(t, enc, dec, request{Op: "state"})
	if !resp.OK || len(resp.State) != 11 {
		t.Fatalf("state: %+v", resp)
	}

	// benign event: open the fridge
	resp = roundTrip(t, enc, dec, request{Op: "event", Device: "fridge", Action: "open_door"})
	if !resp.OK {
		t.Fatalf("event: %+v", resp)
	}
	found := false
	for _, s := range resp.State {
		if s == "fridge=open" {
			found = true
		}
	}
	if !found {
		t.Errorf("fridge should be open: %v", resp.State)
	}

	// unsafe event: power off the door sensor (never natural)
	resp = roundTrip(t, enc, dec, request{Op: "event", Device: "door-sensor", Action: "power_off"})
	if !resp.OK || !resp.Unsafe {
		t.Fatalf("sensor-off should be flagged unsafe: %+v", resp)
	}
	if resp.Violations == 0 {
		t.Error("violation counter should increment")
	}

	// recommend
	resp = roundTrip(t, enc, dec, request{Op: "recommend"})
	if !resp.OK || !strings.HasPrefix(resp.Action, "(") {
		t.Fatalf("recommend: %+v", resp)
	}

	// violations
	resp = roundTrip(t, enc, dec, request{Op: "violations"})
	if !resp.OK || resp.Violations == 0 {
		t.Fatalf("violations: %+v", resp)
	}

	// errors
	resp = roundTrip(t, enc, dec, request{Op: "event", Device: "ghost", Action: "x"})
	if resp.OK || resp.Error == "" {
		t.Fatalf("unknown device should error: %+v", resp)
	}
	resp = roundTrip(t, enc, dec, request{Op: "event", Device: "tv", Action: "explode"})
	if resp.OK {
		t.Fatalf("unknown action should error: %+v", resp)
	}
	resp = roundTrip(t, enc, dec, request{Op: "selfdestruct"})
	if resp.OK {
		t.Fatalf("unknown op should error: %+v", resp)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	srv := startTestServer(t)
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				done <- err
				return
			}
			defer conn.Close()
			enc := json.NewEncoder(conn)
			dec := json.NewDecoder(bufio.NewReader(conn))
			for j := 0; j < 20; j++ {
				if err := enc.Encode(request{Op: "state"}); err != nil {
					done <- err
					return
				}
				var resp response
				if err := dec.Decode(&resp); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatalf("client: %v", err)
		}
	}
}

// waitForConns blocks until the server tracks at least n live connections.
func waitForConns(t *testing.T, srv *server, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		srv.connMu.Lock()
		got := len(srv.conns)
		srv.connMu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("server never tracked %d connections", n)
}

// TestCloseTerminatesIdleConnection is the shutdown acceptance test: a
// client that holds an open connection without sending anything must not
// be able to hang Close (the old server blocked forever in wg.Wait because
// serve sat in dec.Decode).
func TestCloseTerminatesIdleConnection(t *testing.T) {
	srv, err := newServer(serverConfig{Seed: 1, LearningDays: 2, Episodes: 2})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	if err := srv.listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	waitForConns(t, srv, 1)

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return within 5s while an idle client held a connection")
	}

	// The idle client observes its connection terminated.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("idle client connection survived server Close")
	}
}

// fakeListener feeds acceptLoop a scripted error sequence.
type fakeListener struct{ errs chan error }

func (l *fakeListener) Accept() (net.Conn, error) {
	err, ok := <-l.errs
	if !ok {
		return nil, net.ErrClosed
	}
	return nil, err
}
func (l *fakeListener) Close() error   { return nil }
func (l *fakeListener) Addr() net.Addr { return &net.TCPAddr{} }

// scriptedNetErr implements net.Error with a controllable Temporary bit.
type scriptedNetErr struct{ temp bool }

func (e scriptedNetErr) Error() string   { return "scripted accept error" }
func (e scriptedNetErr) Timeout() bool   { return false }
func (e scriptedNetErr) Temporary() bool { return e.temp }

// TestAcceptLoopRetriesTransientErrors proves the accept loop survives
// transient errors with backoff instead of dying on the first one, still
// terminates on a permanent failure, and counts every retry in telemetry.
func TestAcceptLoopRetriesTransientErrors(t *testing.T) {
	retriesBefore := telemetry.Default.Snapshot().Counters["jarvisd.accept.retries"]
	var mu sync.Mutex
	var transientLogs int
	cfg := serverConfig{Logf: func(format string, args ...any) {
		if strings.Contains(format, "transient") {
			mu.Lock()
			transientLogs++
			mu.Unlock()
		}
	}}.withDefaults()
	errs := make(chan error, 4)
	errs <- scriptedNetErr{temp: true}
	errs <- scriptedNetErr{temp: true}
	errs <- scriptedNetErr{temp: true}
	errs <- scriptedNetErr{temp: false} // permanent: loop must exit
	s := &server{
		cfg:   cfg,
		ln:    &fakeListener{errs: errs},
		stop:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	done := make(chan struct{})
	go func() {
		s.acceptLoop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("acceptLoop did not exit after a permanent error")
	}
	mu.Lock()
	defer mu.Unlock()
	if transientLogs != 3 {
		t.Errorf("retried %d transient errors, want 3", transientLogs)
	}
	retries := telemetry.Default.Snapshot().Counters["jarvisd.accept.retries"] - retriesBefore
	if retries != 3 {
		t.Errorf("jarvisd.accept.retries grew by %d, want 3", retries)
	}
}

// TestAcceptLoopSilentOnClosedListener: a closed listener is the normal
// shutdown path. The accept loop must exit without logging a spurious
// "accept failed" even when the error arrives wrapped (as the net package
// delivers it) and the stop channel has not been signalled yet.
func TestAcceptLoopSilentOnClosedListener(t *testing.T) {
	var mu sync.Mutex
	var logs []string
	cfg := serverConfig{Logf: func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}}.withDefaults()
	errs := make(chan error, 1)
	errs <- fmt.Errorf("accept tcp 127.0.0.1:0: %w", net.ErrClosed)
	s := &server{
		cfg:   cfg,
		ln:    &fakeListener{errs: errs},
		stop:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	done := make(chan struct{})
	go func() {
		s.acceptLoop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("acceptLoop did not exit on a closed listener")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, line := range logs {
		if strings.Contains(line, "accept failed") {
			t.Errorf("closed listener logged a spurious failure: %q", line)
		}
	}
}

// TestCheckpointRestartServesWithoutRetraining is the restore acceptance
// test: a daemon restarted against the checkpoint the previous instance
// wrote must come up restored (no optimizer retraining), carry over the
// violation count, agree with the original system's recommendation, and
// serve `recommend` over the wire.
func TestCheckpointRestartServesWithoutRetraining(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jarvisd.ckpt")
	cfg := serverConfig{Seed: 1, LearningDays: 2, Episodes: 2, CheckpointPath: path}

	srv1, err := newServer(cfg)
	if err != nil {
		t.Fatalf("first boot: %v", err)
	}
	if srv1.restored {
		t.Fatal("first boot claims to be restored with no checkpoint on disk")
	}
	act1, err := srv1.sys.Recommend(srv1.home.InitialState(), 600)
	if err != nil {
		t.Fatalf("recommend on trained system: %v", err)
	}
	// Record an unsafe event so the violation counter is nonzero in the
	// checkpoint.
	if resp := srv1.handle(request{Op: "event", Device: "door-sensor", Action: "power_off"}); !resp.Unsafe {
		t.Fatalf("sensor-off should be unsafe: %+v", resp)
	}
	wantViolations := srv1.stream.Violations
	if err := srv1.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}

	srv2, err := newServer(cfg)
	if err != nil {
		t.Fatalf("second boot: %v", err)
	}
	if !srv2.restored {
		t.Fatal("second boot retrained instead of restoring from checkpoint")
	}
	if srv2.stream.Violations != wantViolations {
		t.Errorf("restored violations = %d, want %d", srv2.stream.Violations, wantViolations)
	}
	act2, err := srv2.sys.Recommend(srv2.home.InitialState(), 600)
	if err != nil {
		t.Fatalf("recommend on restored system: %v", err)
	}
	e := srv1.home.Env
	if e.FormatAction(act1) != e.FormatAction(act2) {
		t.Errorf("restored recommendation %s differs from trained %s",
			e.FormatAction(act2), e.FormatAction(act1))
	}

	// And it serves recommend over the wire.
	if err := srv2.listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	conn, err := net.Dial("tcp", srv2.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	enc := json.NewEncoder(conn)
	dec := json.NewDecoder(bufio.NewReader(conn))
	resp := roundTrip(t, enc, dec, request{Op: "recommend"})
	if !resp.OK || !strings.HasPrefix(resp.Action, "(") {
		t.Fatalf("restored daemon recommend: %+v", resp)
	}
	conn.Close()
	if err := srv2.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCorruptCheckpointFallsBackToFreshTraining: garbage on disk must not
// crash startup — the daemon trains fresh and overwrites the checkpoint
// with a valid one.
func TestCorruptCheckpointFallsBackToFreshTraining(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jarvisd.ckpt")
	if err := os.WriteFile(path, []byte("{this is not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := serverConfig{Seed: 1, LearningDays: 2, Episodes: 2, CheckpointPath: path}

	srv, err := newServer(cfg)
	if err != nil {
		t.Fatalf("newServer with corrupt checkpoint: %v", err)
	}
	if srv.restored {
		t.Fatal("server claims to have restored from a corrupt checkpoint")
	}
	if _, err := srv.sys.Recommend(srv.home.InitialState(), 600); err != nil {
		t.Fatalf("fresh-trained system cannot recommend: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The corrupt file was replaced by a valid checkpoint.
	srv2, err := newServer(cfg)
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	if !srv2.restored {
		t.Error("rewritten checkpoint did not restore on the next boot")
	}
	if err := srv2.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCheckpointConfigMismatchRetrains: a checkpoint trained under a
// different seed must be rejected, not silently served.
func TestCheckpointConfigMismatchRetrains(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jarvisd.ckpt")
	cfg := serverConfig{Seed: 1, LearningDays: 2, Episodes: 2, CheckpointPath: path}
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.Seed = 2
	srv2, err := newServer(other)
	if err != nil {
		t.Fatalf("newServer with mismatched checkpoint: %v", err)
	}
	if srv2.restored {
		t.Error("restored from a checkpoint trained under a different seed")
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
}
