// Command perfbench is the repository's serve-path benchmark. For one
// workload it boots a real jarvisd, drives it over at most two client
// connections with a request stream generated from --seed, checks every
// answer against an in-process replay of the same stream, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced
// in-process replay (--trace 1). The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload home-day --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads, the metrics, and
// which outputs are diagnostics rather than metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	length   time.Duration // request counts are sized to about this long a run
	trace    bool
	jarvisd  string
	workdir  string
}

func main() {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", `workload to run ("all" runs each in turn)`)
	fs.Int64Var(&o.seed, "seed", 1, "request-stream seed")
	seconds := fs.Int("seconds", 10, "run length: request counts are sized to about this many seconds")
	trace := fs.Int("trace", 0, "1 = print per-layer metrics from a traced in-process replay")
	fs.StringVar(&o.jarvisd, "jarvisd", "", "jarvisd binary")
	fs.StringVar(&o.workdir, "workdir", "", "directory for daemon state and span files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = *trace == 1
	o.length = time.Duration(*seconds) * time.Second
	// A traced run keeps millions of spans; cap the heap's growth above
	// them rather than let the collector double it.
	debug.SetMemoryLimit(512 << 20)
	if o.jarvisd == "" || o.workdir == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -jarvisd, -workdir, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	failed := false
	for _, name := range names {
		o.workload = name
		res, err := run(o, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		failed = failed || !res.Correct
	}
	if failed {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// check is one oracle verdict.
type check struct {
	name   string
	ok     bool
	detail string
}

// e2eRun is what the daemon run measured.
type e2eRun struct {
	setups    []float64 // seconds, one per boot
	client    *clientRun
	user, sys time.Duration // daemon CPU over the timed phase
	timedOps  int
	timedRecs int
	timedEvts int
	gcs       uint32
	heapMiB   float64
	hwmMiB    float64
	health    healthz
	counters  counters
	replay    replayVerdict // durable workloads: /debug/replay
}

func run(o options, out io.Writer) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	p, err := makePlan(w, o.seed, o.length)
	if err != nil {
		return nil, err
	}
	names := newNameTable()
	runDir := filepath.Join(o.workdir, fmt.Sprintf("%s-seed%d-pid%d", w.name, o.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	recs, events, ckpts := p.ops()
	fmt.Fprintf(out, "perfbench: workload %s, seed %d, %v: %d recommends, %d events, %d checkpoints on %d connection(s)\n",
		w.name, o.seed, o.length, recs, events, ckpts, p.conns)
	fmt.Fprintf(out, "jarvisd %s\n", strings.Join(w.daemonArgs("<dir>"), " "))

	e2e, err := runDaemon(o, w, p, names, runDir)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	for _, s := range e2e.client.ops {
		res.Attempted += s.attempted
		res.Failed += s.failed
	}
	if e2e.client.err != nil {
		// Nothing a cut-short run measured is comparable: it reports its
		// counts and no metrics.
		printChecks(out, []check{responsesOK(e2e.client), {"run completed", false, e2e.client.err.Error()}})
		return res, nil
	}
	un, err := runPass(w, p, filepath.Join(runDir, "untraced"), passUntraced, names)
	if err != nil {
		return nil, err
	}
	var tr, al *passResult
	if o.trace {
		if tr, err = runPass(w, p, filepath.Join(runDir, "traced"), passTraced, names); err != nil {
			return nil, err
		}
		// The alloc pass only counts compiled rebuilds' allocations.
		if !w.compiledOff {
			if al, err = runPass(w, p, filepath.Join(runDir, "alloc"), passAlloc, names); err != nil {
				return nil, err
			}
		}
	}

	checks := oracle(w, e2e, un, tr, al)
	res.Correct = true
	for _, c := range checks {
		res.Correct = res.Correct && c.ok
	}

	e2eMetrics := endToEnd(w, e2e)
	printEndToEnd(out, w, e2e, e2eMetrics)
	printCounters(out, w, e2e, un)
	if o.trace {
		layers := perLayer(w, e2e, un, tr, al)
		printLayers(out, tr, layers)
		spans := filepath.Join(o.workdir, fmt.Sprintf("%s-seed%d.spans.tsv.gz", w.name, o.seed))
		if err := tr.rec.write(spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "spans: %d dispatch + %d background, written to %s\n", len(tr.rec.spans), len(tr.rec.async), spans)
		res.Metrics = layers
	} else {
		res.Metrics = e2eMetrics
	}
	printChecks(out, checks)
	return res, nil
}

func printChecks(out io.Writer, checks []check) {
	fmt.Fprintln(out, "oracle:")
	for _, c := range checks {
		verdict := "PASS"
		if !c.ok {
			verdict = "FAIL"
		}
		fmt.Fprintf(out, "  %-4s %-28s %s\n", verdict, c.name, c.detail)
	}
}

// runDaemon drives one boot of the workload's daemon through the plan and
// reads its counters at the end. Set-up is measured over the workload's
// boots: the driven one, and the rest spread evenly through the timed
// phase, which waits for each, so they sample the same stretch of host
// speed as the timed calls do.
func runDaemon(o options, w *workload, p *plan, names *nameTable, runDir string) (*e2eRun, error) {
	r := &e2eRun{}
	d, err := r.boot(o, w, runDir)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	timed := 0
	for _, c := range p.calls {
		if !c.warm {
			timed++
		}
	}
	var pauseAt []int
	for k := 0; k < w.boots-1; k++ {
		pauseAt = append(pauseAt, (2*k+1)*timed/(2*(w.boots-1)))
	}
	var user0, user1, sys0, sys1 time.Duration
	var gc0, gc1 uint32
	client, err := drive(w.codec, d.addr, names, p, hooks{
		onTimed: func() error {
			ms, err := d.memstats()
			gc0 = ms.NumGC
			if err == nil {
				user0, sys0, err = d.cpuSplit()
			}
			return err
		},
		afterTimed: func() error {
			var err error
			if user1, sys1, err = d.cpuSplit(); err != nil {
				return err
			}
			ms, err := d.memstats()
			gc1 = ms.NumGC
			return err
		},
		pauseAt: pauseAt,
		// A tail event that runs a learn step invalidates the compiled
		// table; the next one would race its rebuild for the state lock,
		// and event_p50_us would fall wherever the share of events that
		// lost the race put it.
		settle: d.awaitCompiled,
		pause: func() error {
			b, err := r.boot(o, w, runDir)
			if err != nil {
				return err
			}
			if err := b.stop(); err != nil {
				return fmt.Errorf("stop set-up boot: %w", err)
			}
			return nil
		},
	})
	if err != nil {
		return nil, fmt.Errorf("drive %s: %w (daemon log: %s)", w.name, err, d.lastLog())
	}
	r.client = client
	if client.err != nil {
		// The run was cut short: report what the client counted.
		stopped = true
		_ = d.stop()
		return r, nil
	}
	r.user, r.sys, r.gcs = user1-user0, sys1-sys0, gc1-gc0
	for _, c := range p.calls {
		switch {
		case c.warm:
		case c.op == opRecommend:
			r.timedRecs += c.n
			r.timedOps += c.n
		case c.op == opEvent:
			r.timedEvts++
			r.timedOps++
		default:
			r.timedOps++
		}
	}

	if err := d.drain(); err != nil {
		return nil, err
	}
	if err := d.getJSON("/healthz", &r.health); err != nil {
		return nil, err
	}
	if r.counters, err = d.counters(); err != nil {
		return nil, err
	}
	if r.heapMiB, err = d.liveHeapMiB(); err != nil {
		return nil, err
	}
	if r.hwmMiB, err = d.vmHWM(); err != nil {
		return nil, err
	}
	if w.durable {
		// Shutdown checkpoints and resets the WAL, so the daemon's own
		// replay verification runs while it is still up.
		if r.replay, err = d.replayVerdict(); err != nil {
			return nil, err
		}
	}
	stopped = true
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stop jarvisd: %w", err)
	}
	return r, nil
}

// boot spawns one daemon in a fresh directory and records its set-up time.
func (r *e2eRun) boot(o options, w *workload, runDir string) (*daemon, error) {
	dir := filepath.Join(runDir, fmt.Sprintf("boot%d", len(r.setups)))
	if err := os.MkdirAll(filepath.Join(dir, "ck"), 0o755); err != nil {
		return nil, err
	}
	d, err := spawnDaemon(o.jarvisd, w.daemonArgs(dir))
	if err != nil {
		return nil, err
	}
	r.setups = append(r.setups, d.setup.Seconds())
	return d, nil
}

// responsesOK checks that no call failed, and prints the count per op.
func responsesOK(c *clientRun) check {
	failed := 0
	var perOp []string
	ops := make([]string, 0, len(c.ops))
	for op := range c.ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		s := c.ops[op]
		failed += s.failed
		perOp = append(perOp, fmt.Sprintf("%s %d/%d", op, s.failed, s.attempted))
	}
	return check{"every response OK", failed == 0, "failed/attempted: " + strings.Join(perOp, ", ")}
}

// oracle checks the daemon's answers against the in-process replay.
func oracle(w *workload, e2e *e2eRun, un, tr, al *passResult) []check {
	cs := []check{responsesOK(e2e.client)}
	cs = append(cs, check{"learnstate = replay", e2e.client.learn == un.learn,
		fmt.Sprintf("daemon %+v, replay %+v", e2e.client.learn, un.learn)})
	got, want := e2e.client.replies, un.replies
	ok, detail := len(got) == len(want), fmt.Sprintf("%d recommend calls, daemon %d, replay %d", len(got), len(got), len(want))
	for i := 0; ok && i < len(got); i++ {
		if got[i] != want[i] {
			ok, detail = false, fmt.Sprintf("recommend call %d: daemon %+v, replay %+v", i+1, got[i], want[i])
		}
	}
	cs = append(cs, check{"each recommend = replay", ok, detail})
	for _, p := range []*passResult{tr, al} {
		if p != nil {
			cs = append(cs, check{"traced passes = untraced", p.learn == un.learn, fmt.Sprintf("%+v", p.learn)})
		}
	}
	cs = append(cs, check{"learn steps = replay", e2e.health.LearnSteps == un.learn.LearnSteps,
		fmt.Sprintf("daemon %d, replay %d", e2e.health.LearnSteps, un.learn.LearnSteps)})
	denials := e2e.counters["policy.audit.denials"]
	cs = append(cs, check{"denials = replay", denials == int64(un.counts.denials),
		fmt.Sprintf("daemon %d, replay %d", denials, un.counts.denials)})
	if w.durable {
		want := int64(0)
		for kind, span := range e2e.health.WALRecordSpans {
			sizes := un.walSizes[kind]
			for n := span.First; n <= span.Last && n >= 1 && n <= len(sizes); n++ {
				want += sizes[n-1]
			}
		}
		cs = append(cs, check{"WAL bytes = replay", e2e.health.WALSizeBytes == want,
			fmt.Sprintf("daemon %d bytes since its last checkpoint, replay's records in the same spans %d", e2e.health.WALSizeBytes, want)})
		cs = append(cs, check{"/debug/replay answers 200", e2e.replay.status == 200, e2e.replay.detail})
	}
	return cs
}

// endToEnd is the --trace 0 metric set.
func endToEnd(w *workload, e2e *e2eRun) map[string]metric {
	us := func(ds []time.Duration) float64 { return float64(durationsMedian(ds)) / float64(time.Microsecond) }
	events := e2e.client.stats(opEvent).lat
	if w.batch > 1 {
		events = e2e.client.tail.lat
	}
	return map[string]metric{
		"setup_s":          {median(e2e.setups), "s"},
		"recommend_p50_us": {us(e2e.client.stats(opRecommend).lat), "us"},
		"event_p50_us":     {us(events), "us"},
		"cpu_us_per_op":    {float64(e2e.user+e2e.sys) / float64(time.Microsecond) / float64(e2e.timedOps), "us"},
		"heap_mb":          {e2e.heapMiB, "MiB"},
	}
}

func printEndToEnd(out io.Writer, w *workload, e2e *e2eRun, m map[string]metric) {
	fmt.Fprintln(out, "end-to-end (tracing off):")
	for _, name := range []string{"setup_s", "recommend_p50_us", "event_p50_us", "cpu_us_per_op", "heap_mb"} {
		fmt.Fprintf(out, "  %-18s %12.4f %s\n", name, m[name].Value, m[name].Unit)
	}
	fmt.Fprintf(out, "  (setup_s is the median of %d boots: %v)\n", len(e2e.setups), e2e.setups)
	if w.batch > 1 {
		fmt.Fprintln(out, "  (recommend_p50_us is per call of 16 pipelined recommends; event_p50_us comes from the event tail after the timed phase)")
	}
	fmt.Fprintln(out, "diagnostics (printed, not metrics: they moved by more than any bound between identical runs):")
	secs := e2e.client.timed.Seconds()
	fmt.Fprintf(out, "  recs/s %.0f, events/s %.0f over a %.2f s timed phase\n",
		float64(e2e.timedRecs)/secs, float64(e2e.timedEvts)/secs, secs)
	for _, op := range []string{opRecommend, opEvent, opCheckpoint} {
		lat := e2e.client.stats(op).lat
		if op == opEvent && w.batch > 1 {
			lat = e2e.client.tail.lat
		}
		l := summarize(lat)
		if l.n == 0 {
			continue
		}
		if l.tailQ == 0 {
			fmt.Fprintf(out, "  %-10s n=%d p50 %.1f us (too few samples for a tail percentile)\n", op, l.n, l.p50)
			continue
		}
		fmt.Fprintf(out, "  %-10s n=%d p50 %.1f us, p%g %.1f us (%d samples beyond)\n",
			op, l.n, l.p50, l.tailQ*100, l.tail, l.tailBeyond)
	}
	fmt.Fprintf(out, "  VmHWM %.1f MiB; timed phase: daemon user %v sys %v, %d GCs\n", e2e.hwmMiB, e2e.user, e2e.sys, e2e.gcs)
}

func printCounters(out io.Writer, w *workload, e2e *e2eRun, un *passResult) {
	fmt.Fprintln(out, "daemon counters beside the in-process replay's (its untraced pass):")
	c := un.counts
	row := func(name string, daemon, replay any) {
		fmt.Fprintf(out, "  %-26s daemon %-12v replay %v\n", name, daemon, replay)
	}
	if cp := e2e.health.CompiledPolicy; cp != nil {
		row("compiled hits", cp.Hits, c.hits)
		row("compiled misses", cp.Misses, c.misses)
		row("compiled rebuilds", cp.Rebuilds-1, fmt.Sprintf("%d (%+d: invalidations coalesce by timing)", c.rebuilds, int64(c.rebuilds)-int64(cp.Rebuilds-1)))
	}
	row("wire coalesced", e2e.health.WireCoalesced, "-")
	row("wire shared evals", e2e.health.WireSharedEvals, c.sharedEvals)
	row("learn steps", e2e.health.LearnSteps, un.learn.LearnSteps)
	row("audit denials", e2e.counters["policy.audit.denials"], c.denials)
	row("shadow runs", e2e.counters["health.shadow.runs"], c.shadowRuns)
	var walRecs int64
	for _, k := range []string{"evt", "txn", "rec"} {
		walRecs += e2e.counters[fmt.Sprintf("jarvisd.wal.records{kind=%q}", k)]
	}
	row("WAL records", walRecs, len(un.walSizes["evt"])+len(un.walSizes["txn"])+len(un.walSizes["rec"]))
	row("WAL bytes", fmt.Sprintf("%d since last checkpoint", e2e.health.WALSizeBytes), fmt.Sprintf("%d in all", c.walBytes))
	row("GC cycles (timed phase)", e2e.gcs, "-")
}
