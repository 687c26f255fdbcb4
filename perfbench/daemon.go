package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTicks = 100

// daemon is one spawned jarvisd process.
type daemon struct {
	cmd       *exec.Cmd
	addr      string
	debugAddr string
	setup     time.Duration // spawn to the "listening on" banner
	http      *http.Client

	logMu sync.Mutex
	log   []string // the last stderr lines, for error reports
	done  chan struct{}
}

// spawnDaemon starts jarvisd and blocks until it prints both banners.
func spawnDaemon(bin string, args []string) (*daemon, error) {
	d := &daemon{
		cmd:  exec.Command(bin, args...),
		http: &http.Client{Timeout: 60 * time.Second},
		done: make(chan struct{}),
	}
	// A benchmark killed mid-run takes its daemon with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start jarvisd: %w", err)
	}
	type banner struct {
		addr, debug string
		at          time.Time
	}
	ready := make(chan banner, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		var b banner
		for sc.Scan() {
			line := sc.Text()
			d.logMu.Lock()
			if d.log = append(d.log, line); len(d.log) > 40 {
				d.log = d.log[1:]
			}
			d.logMu.Unlock()
			if rest, ok := strings.CutPrefix(line, "jarvisd: listening on "); ok {
				b.at = time.Now()
				b.addr, _, _ = strings.Cut(rest, " ")
			}
			if rest, ok := strings.CutPrefix(line, "jarvisd: debug endpoints on http://"); ok {
				b.debug, _, _ = strings.Cut(rest, " ")
				ready <- b
			}
		}
		// Drain to EOF so the daemon never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case b := <-ready:
		d.addr, d.debugAddr, d.setup = b.addr, b.debug, b.at.Sub(start)
		return d, nil
	case <-d.done:
		_ = d.cmd.Wait()
		return nil, fmt.Errorf("jarvisd exited before listening: %s", d.lastLog())
	case <-time.After(150 * time.Second):
		d.stop()
		return nil, fmt.Errorf("jarvisd did not listen within 150s: %s", d.lastLog())
	}
}

func (d *daemon) lastLog() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return strings.Join(d.log, " | ")
}

// stop sends SIGTERM (jarvisd checkpoints and exits), escalates to SIGKILL
// after 30s, and reaps the process and its stderr reader.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	exited := make(chan error, 1)
	go func() {
		<-d.done
		exited <- d.cmd.Wait()
	}()
	select {
	case err := <-exited:
		// A daemon stopped right after its banners can take the signal
		// before it installs its handler; that death is the one asked for.
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		return err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-exited
		return fmt.Errorf("jarvisd ignored SIGTERM for 30s")
	}
}

// cpuSplit is the daemon's user and sys CPU so far.
func (d *daemon) cpuSplit() (user, sys time.Duration, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("unparsable /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc stat")
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad utime/stime in /proc stat")
	}
	return time.Duration(ut) * time.Second / clockTicks, time.Duration(st) * time.Second / clockTicks, nil
}

// vmHWM is the daemon's peak resident set in MiB, from /proc/<pid>/status.
func (d *daemon) vmHWM() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// get fetches one debug endpoint; a non-200 answer is an error.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.http.Get("http://" + d.debugAddr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return b, fmt.Errorf("GET %s: status %d: %.200s", path, resp.StatusCode, b)
	}
	return b, nil
}

func (d *daemon) getJSON(path string, v any) error {
	b, err := d.get(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// memstats is the part of /debug/vars the benchmark reads.
type memstats struct {
	NumGC uint32
}

func (d *daemon) memstats() (memstats, error) {
	var v struct{ Memstats memstats }
	err := d.getJSON("/debug/vars", &v)
	return v.Memstats, err
}

// healthz is the part of /healthz the benchmark reads.
type healthz struct {
	LearnSteps     int                                  `json:"learnSteps"`
	WALSizeBytes   int64                                `json:"walSizeBytes"`
	WALRecordSpans map[string]struct{ First, Last int } `json:"walRecordSpans"`
	CompiledPolicy *struct {
		Ready    bool   `json:"ready"`
		Disabled bool   `json:"disabled"`
		Hits     uint64 `json:"hits"`
		Misses   uint64 `json:"misses"`
		Rebuilds uint64 `json:"rebuilds"`
	} `json:"compiledPolicy"`
	WireCoalesced   int64 `json:"wireCoalesced"`
	WireSharedEvals int64 `json:"wireSharedEvals"`
}

// compiledBuilt reports that no compiled rebuild is pending.
func (h *healthz) compiledBuilt() bool {
	return h.CompiledPolicy == nil || h.CompiledPolicy.Ready || h.CompiledPolicy.Disabled
}

// counters is the /metrics JSON snapshot's counter map.
type counters map[string]int64

func (d *daemon) counters() (counters, error) {
	var snap struct{ Counters counters }
	err := d.getJSON("/metrics?format=json", &snap)
	return snap.Counters, err
}

// drain waits until background work has settled: the compiled table is
// built and no shadow evaluation has finished for half a second. Heap and
// counter reads come after it.
func (d *daemon) drain() error {
	deadline := time.Now().Add(60 * time.Second)
	var last int64 = -1
	stableSince := time.Now()
	for time.Now().Before(deadline) {
		var h healthz
		if err := d.getJSON("/healthz", &h); err != nil {
			return err
		}
		c, err := d.counters()
		if err != nil {
			return err
		}
		shadow := c["health.shadow.runs"] + c["health.shadow.failures"] + c["health.shadow.skips"]
		if shadow != last {
			last, stableSince = shadow, time.Now()
		}
		if h.compiledBuilt() && time.Since(stableSince) >= 500*time.Millisecond {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("background work did not drain within 60s")
}

// awaitCompiled polls /healthz, without pausing, until no compiled rebuild
// is pending.
func (d *daemon) awaitCompiled() error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var h healthz
		if err := d.getJSON("/healthz", &h); err != nil {
			return err
		}
		if h.compiledBuilt() {
			return nil
		}
	}
	return fmt.Errorf("compiled table not rebuilt within 60s")
}

// liveHeapMiB is the daemon's live heap in MiB: memstats.HeapAlloc right
// after a forced collection. /debug/pprof/heap?gc=1&debug=1 collects, then
// reads the memstats before it allocates anything for the profile; read
// from /debug/vars afterwards, HeapAlloc also counts the ~1.3 MiB the
// profile write leaves behind. The first collection only moves sync.Pool
// contents to their victim caches (0.24 MiB more on json-dqn, in some runs
// and not others), so its read is dropped and the median of the next three
// is the figure.
func (d *daemon) liveHeapMiB() (float64, error) {
	var reads []float64
	for i := 0; i < 4; i++ {
		b, err := d.get("/debug/pprof/heap?gc=1&debug=1")
		if err != nil {
			return 0, err
		}
		_, rest, ok := bytes.Cut(b, []byte("\n# HeapAlloc = "))
		if !ok {
			return 0, fmt.Errorf("no HeapAlloc in the heap profile")
		}
		line, _, _ := bytes.Cut(rest, []byte("\n"))
		n, err := strconv.ParseUint(string(line), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("heap profile HeapAlloc: %w", err)
		}
		if i > 0 {
			reads = append(reads, float64(n)/(1<<20))
		}
	}
	return median(reads), nil
}

// replayVerdict is the daemon's own verify-mode replay of its WAL against
// its decision log.
type replayVerdict struct {
	status int
	detail string
}

// replayVerdict asks /debug/replay whether the daemon reproduces its own
// decision stream from its newest checkpoint and WAL (200), or where it
// first diverges (409).
func (d *daemon) replayVerdict() (replayVerdict, error) {
	resp, err := d.http.Get("http://" + d.debugAddr + "/debug/replay")
	if err != nil {
		return replayVerdict{}, err
	}
	defer resp.Body.Close()
	var rep struct {
		CheckpointGen uint64
		Compared      int
		Divergence    *struct {
			Seq             int
			Kind, Reason    string
			RecordedAction  string
			RecordedVerdict string
			ReplayedVerdict string
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return replayVerdict{}, fmt.Errorf("GET /debug/replay: status %d: %w", resp.StatusCode, err)
	}
	v := replayVerdict{status: resp.StatusCode,
		detail: fmt.Sprintf("status %d, %d decisions compared from checkpoint generation %d", resp.StatusCode, rep.Compared, rep.CheckpointGen)}
	if dv := rep.Divergence; dv != nil {
		v.detail += fmt.Sprintf("; first divergence: %s #%d %s differs (action %s recorded %q, replayed %q)",
			dv.Kind, dv.Seq, dv.Reason, dv.RecordedAction, dv.RecordedVerdict, dv.ReplayedVerdict)
	}
	return v, nil
}
