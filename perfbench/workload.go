package main

import (
	"fmt"
	"math/rand"
	"time"

	"jarvis/internal/dataset"
	"jarvis/internal/device"
	"jarvis/internal/smarthome"
)

// fixedMinute pins the daemon's minute-of-day (-fixed-minute) so every
// recommendation, journal record and anomaly score is a function of the
// request stream alone.
const fixedMinute = 600

// workload is one traffic mix against one daemon configuration. Request
// counts scale with the run length: a run issues perSec requests of each
// kind per second of it, fixed before the run starts, so identical seeds
// and lengths always do identical work.
type workload struct {
	name  string
	codec string // "binary" | "json"
	// The daemon configuration beyond the shared flags (-addr,
	// -debug-addr, -fixed-minute), for jarvisd and the in-process build
	// alike: durable adds -wal, -checkpoint and -log-decisions under a
	// fresh directory, dnn -dnn, anomaly -anomaly-filter and compiledOff
	// -compiled=false.
	durable, dnn, anomaly, compiledOff bool

	// batch > 1 makes a recommend-only timed phase of recCallsPerSec calls
	// per second, each pipelining batch recommends, followed by an event
	// tail of tailEventsPerSec events per second of run.
	batch            int
	recCallsPerSec   int
	tailEventsPerSec int
	// Otherwise the timed phase is eventsPerSec events per second of run,
	// each followed by recsPerEvent single recommends, on a second
	// connection when twoConns is set.
	eventsPerSec int
	recsPerEvent int
	twoConns     bool
	// checkpointEvery sends a checkpoint op after every N events.
	checkpointEvery int
	// warmupCalls (batch) or warmupEvents open the stream untimed.
	warmupCalls, warmupEvents int
	// boots is how many times set-up is measured: the driven daemon's
	// boot and boots-1 more spread through the timed phase.
	boots int
}

var workloads = []*workload{
	{
		name:             "recommend-binary",
		codec:            "binary",
		batch:            16,
		recCallsPerSec:   26000,
		tailEventsPerSec: 250,
		warmupCalls:      2000,
		boots:            21,
	},
	{
		name:         "home-day",
		codec:        "binary",
		eventsPerSec: 800,
		recsPerEvent: 2,
		twoConns:     true,
		warmupEvents: 100,
		boots:        21,
	},
	{
		name:            "hub-durable",
		codec:           "binary",
		durable:         true,
		eventsPerSec:    400,
		recsPerEvent:    2,
		twoConns:        true,
		checkpointEvery: 500,
		warmupEvents:    50,
		boots:           21,
	},
	{
		name:         "json-dqn",
		codec:        "json",
		dnn:          true,
		anomaly:      true,
		compiledOff:  true,
		eventsPerSec: 2000,
		recsPerEvent: 1,
		warmupEvents: 100,
		boots:        7,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// daemonArgs is the jarvisd command line for this workload; dir holds the
// durable state of one boot.
func (w *workload) daemonArgs(dir string) []string {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-debug-addr", "127.0.0.1:0",
		"-fixed-minute", fmt.Sprint(fixedMinute),
	}
	if w.dnn {
		args = append(args, "-dnn")
	}
	if w.compiledOff {
		args = append(args, "-compiled=false")
	}
	if w.anomaly {
		args = append(args, "-anomaly-filter")
	}
	if w.durable {
		args = append(args,
			"-wal", dir+"/wal",
			"-checkpoint", dir+"/ck/jarvisd.ckpt",
			"-log-decisions", dir+"/decisions.log")
	}
	return args
}

// event is one single-device request: apply action act to device dev.
type event struct {
	dev int
	act device.ActionID
}

// call is one client request as the workload issues it: n recommends
// pipelined in one write, one event, or one checkpoint.
type call struct {
	op   string // opRecommend | opEvent | opCheckpoint
	n    int    // recommends in this call (opRecommend)
	ev   event  // opEvent
	conn int    // connection index
	warm bool   // untimed warmup call
}

const (
	opRecommend  = "recommend"
	opEvent      = "event"
	opCheckpoint = "checkpoint"
	opViolations = "violations"
)

// plan is a run's request sequence in the order the client sends it: the
// untimed warmup, the timed phase, then the batch workload's event tail. The
// client sends each call once the previous one is answered, whichever
// connection it goes out on, and the in-process replay dispatches the
// same sequence, so the daemon and the replay see identical streams.
type plan struct {
	conns int
	calls []call // warmup (warm) then timed
	tail  []call
}

// ops counts the requests of the whole sequence by op.
func (p *plan) ops() (recs, events, checkpoints int) {
	for _, part := range [][]call{p.calls, p.tail} {
		for _, c := range part {
			switch c.op {
			case opRecommend:
				recs += c.n
			case opEvent:
				events++
			case opCheckpoint:
				checkpoints++
			}
		}
	}
	return
}

// eventStream generates n single-device events from the seed: simulated
// ADL days of the full home (dataset.HomeAConfig), each minute's composite
// action split into per-device events in device order. The days chain
// from InitialState, the state jarvisd starts in, so every event is
// FSM-valid when applied in order.
func eventStream(seed int64, n int) ([]event, error) {
	if n == 0 {
		return nil, nil
	}
	home := smarthome.NewFullHome()
	gen := dataset.NewGenerator(home, dataset.HomeAConfig())
	rng := rand.New(rand.NewSource(seed))
	start := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	out := make([]event, 0, n)
	s := home.InitialState()
	for day := 0; len(out) < n; day++ {
		d, next, err := gen.Day(start.AddDate(0, 0, day), s, rng)
		if err != nil {
			return nil, fmt.Errorf("event stream day %d: %w", day, err)
		}
		s = next
		for _, a := range d.Episode.Actions {
			for dev, act := range a {
				if act != device.NoAction && len(out) < n {
					out = append(out, event{dev: dev, act: act})
				}
			}
		}
		if day > 100000 {
			return nil, fmt.Errorf("event stream: %d days produced only %d events", day, len(out))
		}
	}
	return out, nil
}

// makePlan sizes the run's request sequence to length and generates it.
func makePlan(w *workload, seed int64, length time.Duration) (*plan, error) {
	sized := func(perSec int) int {
		n := int(float64(perSec) * length.Seconds())
		if perSec > 0 && n < 1 {
			n = 1
		}
		return n
	}
	recCalls, nEvents, nTail := sized(w.recCallsPerSec), sized(w.eventsPerSec), sized(w.tailEventsPerSec)
	warmCalls, warmEvents := w.warmupCalls, w.warmupEvents
	evs, err := eventStream(seed, warmEvents+nEvents+nTail)
	if err != nil {
		return nil, err
	}
	p := &plan{conns: 1}
	rec := call{op: opRecommend, n: max(w.batch, 1)}
	if w.batch > 1 {
		for i := 0; i < warmCalls+recCalls; i++ {
			rec.warm = i < warmCalls
			p.calls = append(p.calls, rec)
		}
		for _, e := range evs {
			p.tail = append(p.tail, call{op: opEvent, ev: e})
		}
		return p, nil
	}
	if w.twoConns {
		p.conns, rec.conn = 2, 1
	}
	for i, e := range evs {
		warm := i < warmEvents
		p.calls = append(p.calls, call{op: opEvent, ev: e, warm: warm})
		if w.checkpointEvery > 0 && (i+1)%w.checkpointEvery == 0 {
			p.calls = append(p.calls, call{op: opCheckpoint, warm: warm})
		}
		rec.warm = warm
		for k := 0; k < w.recsPerEvent; k++ {
			p.calls = append(p.calls, rec)
		}
	}
	return p, nil
}
