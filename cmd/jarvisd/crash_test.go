package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"jarvis/internal/replay"
)

// The SIGKILL crash harness: a real child daemon process is killed with no
// warning mid-online-training, then a successor boots on the victim's
// checkpoint directory and WAL. The recovered daemon must land in exactly
// the training state the victim died in — the same state a control daemon
// reaches by processing the same traffic without ever crashing.

// crashChildEnv carries the victim's working directory; its presence turns
// TestJarvisdChildProcess from a skip into the victim's body.
const crashChildEnv = "JARVISD_CRASH_CHILD_DIR"

// crashFollowEnv, when also set, starts the child as a hot standby
// following the primary at that address — the follower half of the
// failover harness. It self-promotes after two seconds of primary
// silence and exposes the debug listener so the harness can hit
// /debug/replay on the promoted daemon.
const crashFollowEnv = "JARVISD_FOLLOW_ADDR"

// TestJarvisdChildProcess is not a standalone test: it is the victim
// process the crash harness re-execs (test binary + -test.run). It serves
// a durable daemon and then blocks until the parent SIGKILLs it.
func TestJarvisdChildProcess(t *testing.T) {
	dir := os.Getenv(crashChildEnv)
	if dir == "" {
		t.Skip("crash-harness victim body; driven by TestCrashRecoverySIGKILL")
	}
	cfg := durableConfig(dir)
	if fa := os.Getenv(crashFollowEnv); fa != "" {
		cfg.FollowAddr = fa
		cfg.PromoteAfter = 2 * time.Second
		cfg.DebugAddr = "127.0.0.1:0"
	}
	srv, err := newServer(cfg)
	if err != nil {
		fmt.Printf("JARVISD_ERR=%v\n", err)
		os.Exit(1)
	}
	if err := srv.listen("127.0.0.1:0"); err != nil {
		fmt.Printf("JARVISD_ERR=%v\n", err)
		os.Exit(1)
	}
	fmt.Printf("JARVISD_ADDR=%s\n", srv.Addr())
	if da := srv.DebugAddr(); da != "" {
		fmt.Printf("JARVISD_DEBUG=%s\n", da)
	}
	select {} // hold the daemon up; the only way out is SIGKILL
}

func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness re-execs the test binary")
	}
	const (
		preCrash  = 48 // enough accepted transitions for real learn steps
		postCrash = 12 // recovered life must stay in lockstep with control
	)
	dir := t.TempDir()

	cmd := exec.Command(os.Args[0], "-test.run=^TestJarvisdChildProcess$", "-test.count=1")
	cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start victim: %v", err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	var addr string
	scanner := bufio.NewScanner(stdout)
	for scanner.Scan() {
		line := scanner.Text()
		if v, ok := strings.CutPrefix(line, "JARVISD_ADDR="); ok {
			addr = v
			break
		}
		if v, ok := strings.CutPrefix(line, "JARVISD_ERR="); ok {
			t.Fatalf("victim failed to start: %s", v)
		}
	}
	if addr == "" {
		t.Fatalf("victim exited without announcing an address (scan err: %v)", scanner.Err())
	}

	// Drive acknowledged traffic into the victim. Every response arrives
	// only after the event is applied and journaled (fsync-per-record), so
	// acked means durable.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial victim: %v", err)
	}
	enc, dec := json.NewEncoder(conn), json.NewDecoder(conn)
	for i := 0; i < preCrash; i++ {
		req := eventScript[i%len(eventScript)]
		if resp := roundTrip(t, enc, dec, req); resp.Error != "" {
			t.Fatalf("victim event %d: %s", i, resp.Error)
		}
		// Interleave served recommendations so the WAL records a full
		// decision day — the post-crash replay verification re-executes
		// the policy at each one.
		if i%4 == 3 {
			if resp := roundTrip(t, enc, dec, request{Op: "recommend"}); !resp.OK {
				t.Fatalf("victim recommend after event %d: %s", i, resp.Error)
			}
		}
	}
	want := roundTrip(t, enc, dec, request{Op: "learnstate"})
	if !want.OK {
		t.Fatalf("victim learnstate: %s", want.Error)
	}
	if want.LearnSteps == 0 {
		t.Fatal("victim ran no learn steps; the crash would prove nothing")
	}
	assertMixedVerdicts(t, want)

	// SIGKILL: no signal handler, no final checkpoint, no WAL reset.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill victim: %v", err)
	}
	cmd.Wait()
	conn.Close()

	// Before the successor reopens (and appends to) the victim's
	// artifacts, the offline engine must verify the recorded day exactly
	// as it died on disk. Every acked event is journaled, but the decision
	// log buffers writes — the active file's tail went down with the
	// process, and only rotation-sealed files are trustworthy. Those must
	// still verify bit for bit under AllowTruncatedTail.
	vcfg := durableConfig(dir)
	rep, err := replay.Verify(replay.VerifyOptions{
		Config:             replayConfig(vcfg),
		Source:             verifySource(vcfg),
		DecisionLog:        vcfg.DecisionLogPath,
		AllowTruncatedTail: true,
	})
	if err != nil {
		t.Fatalf("post-crash verify: %v", err)
	}
	if !rep.Match {
		t.Fatalf("victim's recorded decisions diverge from replay: %+v", rep.Divergence)
	}
	if rep.Compared == 0 {
		t.Fatal("no sealed decisions survived the crash; rotation is not covering the run")
	}

	// The successor boots on the victim's directories: restore the
	// post-training checkpoint, then replay the WAL.
	successor, err := newServer(durableConfig(dir))
	if err != nil {
		t.Fatalf("successor: %v", err)
	}
	defer successor.Close()
	if !successor.restored {
		t.Fatal("successor trained fresh; the victim's checkpoint is unusable")
	}
	assertSameLearnState(t, want, learnState(t, successor))

	// A control daemon that never crashed, fed the identical traffic,
	// must agree — before and after both keep living.
	control, err := newServer(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatalf("control: %v", err)
	}
	defer control.Close()
	feedEvents(t, control, preCrash)
	assertSameLearnState(t, learnState(t, control), learnState(t, successor))

	feedEvents(t, successor, postCrash)
	feedEvents(t, control, postCrash)
	assertSameLearnState(t, learnState(t, control), learnState(t, successor))
}
