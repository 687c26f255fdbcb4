package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"time"

	"jarvis/internal/env"
	"jarvis/internal/smarthome"
	"jarvis/internal/wire"
)

const ioTimeout = 30 * time.Second

// opStats accounts one op kind on the client: every call attempted, every
// call failed (error or busy response, or a transport error), and the
// round-trip time of each timed call.
type opStats struct {
	attempted, failed int
	lat               []time.Duration
}

// reply is what the oracle needs from one response.
type reply struct {
	action string
	q      float64
}

// learnState is the daemon's online-learning fingerprint plus its
// violation count: the learnstate op's answer.
type learnState struct {
	Violations  int
	ReplaySize  int
	Events      int
	OnlineSteps int
	LearnSteps  int
	Recommends  int
	QSum        string
}

// conn is one client connection in either codec.
type conn interface {
	// do issues one call; for a recommend call it returns the last
	// response's action and Q. A non-nil error is a transport error;
	// a false ok is an error or busy response.
	do(c call) (ok bool, r reply, err error)
	learnState() (learnState, error)
	Close() error
}

func dial(codec, addr string, names *nameTable) (conn, error) {
	nc, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		return nil, err
	}
	if codec == "json" {
		return &jsonConn{nc: nc, enc: json.NewEncoder(nc), dec: json.NewDecoder(bufio.NewReader(nc)), names: names}, nil
	}
	c := &binConn{nc: nc, r: wire.NewReader(nc)}
	if err := c.deadline(); err != nil {
		nc.Close()
		return nil, err
	}
	if _, err := nc.Write(wire.AppendHandshake(nil)); err != nil {
		nc.Close()
		return nil, err
	}
	ack, err := c.r.ReadFrame()
	if err != nil || !wire.IsAck(ack) {
		nc.Close()
		return nil, fmt.Errorf("binary handshake failed: %v", err)
	}
	return c, nil
}

// binConn speaks the binary wire protocol. A recommend call pipelines n
// requests in one write and checks every one of the n responses.
type binConn struct {
	nc   net.Conn
	r    *wire.Reader
	buf  []byte
	resp wire.Response
	keys actionKeys
}

func (c *binConn) deadline() error { return c.nc.SetDeadline(time.Now().Add(ioTimeout)) }

func (c *binConn) Close() error { return c.nc.Close() }

func (c *binConn) roundTrip(req wire.Request, n int) (ok bool, err error) {
	if err := c.deadline(); err != nil {
		return false, err
	}
	c.buf = c.buf[:0]
	for i := 0; i < n; i++ {
		c.buf = wire.AppendRequest(c.buf, req)
	}
	if _, err := c.nc.Write(c.buf); err != nil {
		return false, err
	}
	ok = true
	for i := 0; i < n; i++ {
		payload, err := c.r.ReadFrame()
		if err != nil {
			return false, err
		}
		if err := c.resp.Decode(payload); err != nil {
			return false, err
		}
		ok = ok && c.resp.OK() && !c.resp.Busy()
	}
	return ok, nil
}

func (c *binConn) do(cl call) (bool, reply, error) {
	switch cl.op {
	case opRecommend:
		ok, err := c.roundTrip(wire.Request{Op: wire.OpRecommend}, cl.n)
		return ok, reply{action: c.keys.of(c.resp.Action), q: c.resp.Q}, err
	case opEvent:
		ok, err := c.roundTrip(wire.Request{Op: wire.OpEvent, Device: uint16(cl.ev.dev), Action: int16(cl.ev.act)}, 1)
		return ok, reply{}, err
	case opCheckpoint:
		ok, err := c.roundTrip(wire.Request{Op: wire.OpCheckpoint}, 1)
		return ok, reply{}, err
	case opViolations:
		ok, err := c.roundTrip(wire.Request{Op: wire.OpViolations}, 1)
		return ok, reply{}, err
	}
	return false, reply{}, fmt.Errorf("unknown op %q", cl.op)
}

func (c *binConn) learnState() (learnState, error) {
	ok, err := c.roundTrip(wire.Request{Op: wire.OpLearnState}, 1)
	if err != nil {
		return learnState{}, err
	}
	if !ok {
		return learnState{}, fmt.Errorf("learnstate: %s", c.resp.Err)
	}
	r := &c.resp
	return learnState{Violations: r.Violations, ReplaySize: r.ReplaySize, Events: r.Events,
		OnlineSteps: r.OnlineSteps, LearnSteps: r.LearnSteps, Recommends: r.Recommends,
		QSum: string(r.QSum)}, nil
}

// actionKeys renders binary responses' per-device action IDs as
// comparable strings, reusing the last one while the action repeats (the
// batch workload answers one action hundreds of thousands of times).
type actionKeys struct {
	last []int16
	key  string
}

func (k *actionKeys) of(ids []int16) string {
	if k.key == "" || !slices.Equal(ids, k.last) {
		k.last = append(k.last[:0], ids...)
		k.key = fmt.Sprint(ids)
	}
	return k.key
}

// jsonRequest and jsonResponse are the daemon's JSON-lines request and
// response.
type jsonRequest struct {
	Op     string `json:"op"`
	Device string `json:"device,omitempty"`
	Action string `json:"action,omitempty"`
}

type jsonResponse struct {
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
	ReplaySize   int      `json:"replaySize,omitempty"`
	Events       int      `json:"events,omitempty"`
	OnlineSteps  int      `json:"onlineSteps,omitempty"`
	LearnSteps   int      `json:"learnSteps,omitempty"`
	Recommends   int      `json:"recommends,omitempty"`
	QSum         string   `json:"qsum,omitempty"`
	Role         string   `json:"role,omitempty"`
}

// nameTable renders events as the JSON codec's device and action names.
type nameTable struct{ e *env.Environment }

func newNameTable() *nameTable { return &nameTable{e: smarthome.NewFullHome().Env} }

func (t *nameTable) request(ev event) jsonRequest {
	d := t.e.Device(ev.dev)
	return jsonRequest{Op: opEvent, Device: d.Name(), Action: d.ActionName(ev.act)}
}

// jsonConn speaks JSON lines, one request per round trip.
type jsonConn struct {
	nc    net.Conn
	enc   *json.Encoder
	dec   *json.Decoder
	names *nameTable
	resp  jsonResponse
}

func (c *jsonConn) Close() error { return c.nc.Close() }

func (c *jsonConn) roundTrip(req jsonRequest) (bool, error) {
	if err := c.nc.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return false, err
	}
	if err := c.enc.Encode(req); err != nil {
		return false, err
	}
	c.resp = jsonResponse{}
	if err := c.dec.Decode(&c.resp); err != nil {
		return false, err
	}
	return c.resp.OK && !c.resp.Busy, nil
}

func (c *jsonConn) do(cl call) (bool, reply, error) {
	switch cl.op {
	case opRecommend:
		ok, err := c.roundTrip(jsonRequest{Op: opRecommend})
		return ok, reply{action: c.resp.Action, q: c.resp.Q}, err
	case opEvent:
		ok, err := c.roundTrip(c.names.request(cl.ev))
		return ok, reply{}, err
	case opCheckpoint, opViolations:
		ok, err := c.roundTrip(jsonRequest{Op: cl.op})
		return ok, reply{}, err
	}
	return false, reply{}, fmt.Errorf("unknown op %q", cl.op)
}

func (c *jsonConn) learnState() (learnState, error) {
	ok, err := c.roundTrip(jsonRequest{Op: "learnstate"})
	if err != nil {
		return learnState{}, err
	}
	if !ok {
		return learnState{}, fmt.Errorf("learnstate: %s", c.resp.Error)
	}
	r := &c.resp
	return learnState{Violations: r.Violations, ReplaySize: r.ReplaySize, Events: r.Events,
		OnlineSteps: r.OnlineSteps, LearnSteps: r.LearnSteps, Recommends: r.Recommends,
		QSum: r.QSum}, nil
}

// clientRun is everything the client observed in one run.
type clientRun struct {
	ops map[string]*opStats
	// replies holds every recommend call's reply, in order.
	replies []reply
	// timed is the wall time of the timed phase, first timed call sent to
	// last timed call answered, less the pauses.
	timed time.Duration
	// tail holds the batch workload's event tail.
	tail *opStats
	// learn is the daemon's learnstate after the last call.
	learn learnState
	// err is what cut the run short, if anything did: a transport error,
	// or a failed learnstate. The call it hit is counted as failed.
	err error
}

func (r *clientRun) stats(op string) *opStats {
	s, ok := r.ops[op]
	if !ok {
		s = &opStats{}
		r.ops[op] = s
	}
	return s
}

// hooks are the daemon-side steps drive runs between its calls.
type hooks struct {
	// onTimed runs after the warmup, afterTimed after the last timed call.
	onTimed, afterTimed func() error
	// pause runs before each timed call whose index among the timed
	// calls is in pauseAt (ascending); the timed phase's length leaves
	// it out.
	pauseAt []int
	pause   func() error
	// settle runs after each tail call, outside its round trip; a
	// violations call on the same connection follows it.
	settle func() error
}

// drive sends the plan's calls in order, each once the previous one is
// answered (a closed loop with one request in flight), and records the
// round trip of every timed and tail call. A transport error ends the run
// early and is returned in the clientRun; an error from a hook is returned
// as the error.
func drive(codec, addr string, names *nameTable, p *plan, h hooks) (*clientRun, error) {
	conns := make([]conn, p.conns)
	for i := range conns {
		c, err := dial(codec, addr, names)
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		defer c.Close()
		conns[i] = c
	}
	r := &clientRun{ops: map[string]*opStats{}, tail: &opStats{}}
	issue := func(cl call, timed *opStats) bool {
		st := r.stats(cl.op)
		st.attempted++
		t := time.Now()
		ok, rep, err := conns[cl.conn].do(cl)
		d := time.Since(t)
		if err != nil {
			st.failed++
			r.err = fmt.Errorf("%s call: %w", cl.op, err)
			return false
		}
		if !ok {
			st.failed++
		}
		if timed != nil {
			timed.lat = append(timed.lat, d)
		}
		if cl.op == opRecommend {
			r.replies = append(r.replies, rep)
		}
		return true
	}
	i := 0
	for ; i < len(p.calls) && p.calls[i].warm; i++ {
		if !issue(p.calls[i], nil) {
			return r, nil
		}
	}
	if err := h.onTimed(); err != nil {
		return r, err
	}
	t0 := time.Now()
	var paused time.Duration
	var herr error
	for k, pauses := 0, h.pauseAt; i < len(p.calls); i, k = i+1, k+1 {
		for ; len(pauses) > 0 && pauses[0] <= k && herr == nil; pauses = pauses[1:] {
			start := time.Now()
			herr = h.pause()
			paused += time.Since(start)
		}
		if herr != nil || !issue(p.calls[i], r.stats(p.calls[i].op)) {
			break
		}
	}
	r.timed = time.Since(t0) - paused
	if herr != nil || r.err != nil {
		return r, herr
	}
	if err := h.afterTimed(); err != nil {
		return r, err
	}
	// The batch workload's event_p50_us comes from the tail.
	for _, cl := range p.tail {
		if !issue(cl, r.tail) {
			return r, nil
		}
		if err := h.settle(); err != nil {
			return r, err
		}
		// An untimed call after the settle's idle gap, so the next event
		// goes out right behind an answer, as the timed phase's calls do,
		// and does not carry the daemon's wake-up from idle.
		if !issue(call{op: opViolations, conn: cl.conn}, nil) {
			return r, nil
		}
	}
	ls := r.stats("learnstate")
	ls.attempted++
	var err error
	if r.learn, err = conns[0].learnState(); err != nil {
		ls.failed++
		r.err = err
	}
	return r, nil
}
