package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"net"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"jarvis/internal/device"
	"jarvis/internal/env"
	"jarvis/internal/wire"
)

// TestBinaryProtocol drives every op over the binary codec and checks the
// answers against the daemon's own state.
func TestBinaryProtocol(t *testing.T) {
	srv := startTestServer(t)
	c, err := wire.Dial(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatalf("binary dial: %v", err)
	}
	defer c.Close()
	e := srv.home.Env

	resp, err := c.Do(wire.Request{Op: wire.OpState})
	if err != nil {
		t.Fatalf("state: %v", err)
	}
	if !resp.OK() || len(resp.State) != e.K() {
		t.Fatalf("state: %+v", resp)
	}

	// Event by index: open the fridge. (Whether P_safe flags it depends
	// on the wall-clock minute, so only the transition is asserted.)
	fridge, ok := e.DeviceIndex("fridge")
	if !ok {
		t.Fatal("no fridge device")
	}
	open, ok := e.Device(fridge).ActionID("open_door")
	if !ok {
		t.Fatal("fridge has no open_door")
	}
	resp, err = c.Do(wire.Request{Op: wire.OpEvent, Device: uint16(fridge), Action: int16(open)})
	if err != nil {
		t.Fatalf("event: %v", err)
	}
	if !resp.OK() {
		t.Fatalf("fridge event: %+v", resp)
	}
	if e.Device(fridge).StateName(device.StateID(resp.State[fridge])) != "open" {
		t.Errorf("fridge state id %d, want open", resp.State[fridge])
	}

	// Unsafe event: power off the door sensor.
	sensor, _ := e.DeviceIndex("door-sensor")
	off, _ := e.Device(sensor).ActionID("power_off")
	resp, err = c.Do(wire.Request{Op: wire.OpEvent, Device: uint16(sensor), Action: int16(off)})
	if err != nil {
		t.Fatalf("unsafe event: %v", err)
	}
	if !resp.OK() || !resp.Unsafe() || resp.Violations == 0 {
		t.Fatalf("door-sensor power_off should be flagged: %+v", resp)
	}

	// Bad device index → in-band error, connection stays up.
	resp, err = c.Do(wire.Request{Op: wire.OpEvent, Device: 9999, Action: 0})
	if err != nil {
		t.Fatalf("bad event: %v", err)
	}
	if resp.OK() || len(resp.Err) == 0 {
		t.Fatalf("unknown device index accepted: %+v", resp)
	}

	resp, err = c.Do(wire.Request{Op: wire.OpRecommend})
	if err != nil {
		t.Fatalf("recommend: %v", err)
	}
	if !resp.OK() || len(resp.Action) != e.K() {
		t.Fatalf("recommend: %+v", resp)
	}

	resp, err = c.Do(wire.Request{Op: wire.OpViolations})
	if err != nil || !resp.OK() || resp.Violations == 0 {
		t.Fatalf("violations: %+v, %v", resp, err)
	}

	resp, err = c.Do(wire.Request{Op: wire.OpLearnState})
	if err != nil || !resp.OK() {
		t.Fatalf("learnstate: %+v, %v", resp, err)
	}
	srv.mu.Lock()
	events := srv.stream.Events
	srv.mu.Unlock()
	if len(resp.QSum) == 0 || resp.Events != events {
		t.Fatalf("learnstate fingerprint: %+v (events %d)", resp, events)
	}

	resp, err = c.Do(wire.Request{Op: wire.OpCheckpoint})
	if err != nil || resp.OK() || len(resp.Err) == 0 {
		t.Fatalf("checkpoint without -checkpoint should error in-band: %+v, %v", resp, err)
	}

	resp, err = c.Do(wire.Request{Op: 99})
	if err != nil || resp.OK() || string(resp.Err) != "unknown op" {
		t.Fatalf("unknown op: %+v, %v", resp, err)
	}
}

// codecs are the two protocols a client can speak to jarvisd.
var codecs = []string{"json", "binary"}

// dialCodec connects to srv over one codec and returns a function that
// sends one request and returns the answer as a JSON response, so both
// codecs' answers compare field for field. The binary answer carries what
// the JSON one does, except the replication role (JSON-only, so dropped
// from JSON answers) and the minute on errors other than a shed (JSON
// leaves it off, so binary answers drop it there too). The binary request
// is resolved from req's names unless bin overrides it.
func dialCodec(t *testing.T, srv *server, codec string) func(req request, bin binOverride) response {
	t.Helper()
	e := srv.home.Env
	if codec == "json" {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatalf("json dial: %v", err)
		}
		t.Cleanup(func() { conn.Close() })
		enc, dec := json.NewEncoder(conn), json.NewDecoder(bufio.NewReader(conn))
		return func(req request, _ binOverride) response {
			r := roundTrip(t, enc, dec, req)
			r.Role = ""
			return r
		}
	}
	c, err := wire.Dial(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatalf("binary dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return func(req request, bin binOverride) response {
		w := wire.Request{Op: uint8(parseOp(req.Op))}
		if bin != nil {
			w = bin(e)
		} else if req.Op == "event" {
			di, ok := e.DeviceIndex(req.Device)
			if !ok {
				t.Fatalf("no device %q", req.Device)
			}
			act, ok := e.Device(di).ActionID(req.Action)
			if !ok {
				t.Fatalf("device %q has no action %q", req.Device, req.Action)
			}
			w.Device, w.Action = uint16(di), int16(act)
		}
		r, err := c.Do(w)
		if err != nil {
			t.Fatalf("binary %+v: %v", w, err)
		}
		a := response{OK: r.OK(), Busy: r.Busy(), Unsafe: r.Unsafe(), RetryAfterMs: r.RetryAfterMs,
			Error: string(r.Err), Violations: r.Violations, Q: r.Q, Degraded: r.Degraded,
			ReplaySize: r.ReplaySize, Events: r.Events, OnlineSteps: r.OnlineSteps,
			LearnSteps: r.LearnSteps, Recommends: r.Recommends, QSum: string(r.QSum)}
		if a.OK || a.Busy {
			a.Minute = r.Minute
		}
		for i, st := range r.State {
			a.State = append(a.State, e.Device(i).Name()+"="+e.Device(i).StateName(device.StateID(st)))
		}
		if len(r.Action) > 0 {
			act := make([]device.ActionID, len(r.Action))
			for i, id := range r.Action {
				act[i] = device.ActionID(id)
			}
			a.Action = e.FormatAction(act)
		}
		return a
	}
}

// binOverride builds the binary request a parity step sends instead of
// the one resolved from its JSON names.
type binOverride func(e *env.Environment) wire.Request

// tvAction is a binary event on the tv with a raw action ID.
func tvAction(act device.ActionID) binOverride {
	return func(e *env.Environment) wire.Request {
		tv, _ := e.DeviceIndex("tv")
		return wire.Request{Op: wire.OpEvent, Device: uint16(tv), Action: int16(act)}
	}
}

// parityStep is one request of a parity sequence. bin overrides the
// binary request for inputs only one codec can spell (a name that does
// not resolve, an index out of range); worded marks an error each codec
// words itself, so only its presence is compared, and binErr, when set,
// is the exact text the binary codec must answer with. depth pins the
// inflight count admission control sees.
type parityStep struct {
	req    request
	bin    binOverride
	worded bool
	binErr string
	depth  int64
}

// TestBinaryJSONParity sends the same op sequence to two daemons with
// identical configuration and a pinned minute, one over JSON and one over
// the binary codec, and requires equal answers at every step: every op,
// the rejected inputs, a shed recommendation, the checkpoint guard, and
// the follower's read-only guard.
func TestBinaryJSONParity(t *testing.T) {
	fridge := request{Op: "event", Device: "fridge", Action: "open_door"}
	cases := []struct {
		name       string
		checkpoint bool
		// following flips the following flag after boot: the core's
		// read-only guard, without a primary to stream from.
		following bool
		steps     []parityStep
	}{
		{name: "every op", checkpoint: true, steps: []parityStep{
			{req: request{Op: "state"}},
			{req: fridge},
			{req: fridge},
			{req: request{Op: "recommend"}},
			{req: request{Op: "event", Device: "door-sensor", Action: "power_off"}},
			{req: request{Op: "recommend"}},
			{req: request{Op: "violations"}},
			{req: request{Op: "checkpoint"}},
			{req: request{Op: "learnstate"}},
			{req: request{Op: "event", Device: "ghost", Action: "power_on"},
				bin:    func(*env.Environment) wire.Request { return wire.Request{Op: wire.OpEvent, Device: 9999} },
				worded: true},
			{req: request{Op: "event", Device: "tv", Action: "explode"}, bin: tvAction(99), worded: true,
				binErr: "unknown action index"},
			{req: request{Op: "event", Device: "tv", Action: "-"}, bin: tvAction(device.NoAction), worded: true},
			{req: request{Op: "event", Device: "tv", Action: "implode"}, bin: tvAction(-2), worded: true,
				binErr: "unknown action index"},
			{req: request{Op: "selfdestruct"},
				bin: func(*env.Environment) wire.Request { return wire.Request{Op: 99} }, worded: true},
			{req: request{Op: "recommend"}, depth: 64},
			{req: request{Op: "learnstate"}},
		}},
		{name: "without checkpoint", steps: []parityStep{
			{req: request{Op: "checkpoint"}},
			{req: request{Op: "learnstate"}},
		}},
		{name: "following", following: true, steps: []parityStep{
			{req: fridge},
			{req: request{Op: "checkpoint"}},
			{req: request{Op: "recommend"}},
			{req: request{Op: "state"}},
			{req: request{Op: "learnstate"}},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srvs := make([]*server, len(codecs))
			dos := make([]func(request, binOverride) response, len(codecs))
			for i, codec := range codecs {
				cfg := serverConfig{Seed: 1, LearningDays: 2, Episodes: 2, FixedMinute: 600}
				if c.checkpoint {
					cfg.CheckpointPath = filepath.Join(t.TempDir(), "jarvisd.ckpt")
				}
				srvs[i] = startTestServerConfig(t, cfg)
				srvs[i].following.Store(c.following)
				dos[i] = dialCodec(t, srvs[i], codec)
			}
			for i, st := range c.steps {
				var got [2]response
				for j := range codecs {
					srvs[j].inflight.Store(st.depth)
					got[j] = dos[j](st.req, st.bin)
					srvs[j].inflight.Store(0)
					if codecs[j] == "binary" && st.binErr != "" && got[j].Error != st.binErr {
						t.Errorf("step %d: binary error %q, want %q", i, got[j].Error, st.binErr)
					}
					if st.worded && got[j].Error != "" {
						got[j].Error = "(worded by codec)"
					}
				}
				if !reflect.DeepEqual(got[0], got[1]) {
					t.Errorf("step %d %+v:\n json   %+v\n binary %+v", i, st.req, got[0], got[1])
				}
				if st.bin != nil && got[0].OK {
					t.Errorf("step %d %+v accepted: %+v", i, st.req, got[0])
				}
			}
		})
	}
}

// TestBinaryBatchCoalescing writes a burst of framed requests in one shot,
// then reads the burst of responses: the server must answer each request
// exactly once and in order, and the shared-evaluation counter must show
// the batch machinery engaged.
func TestBinaryBatchCoalescing(t *testing.T) {
	srv := startTestServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(wire.AppendHandshake(nil)); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(conn)
	ack, err := r.ReadFrame()
	if err != nil || !wire.IsAck(ack) {
		t.Fatalf("handshake: %v", err)
	}

	const burst = 16
	srv.mu.Lock()
	recBefore := srv.stream.Recommends
	srv.mu.Unlock()
	var buf []byte
	for i := 0; i < burst; i++ {
		buf = wire.AppendRequest(buf, wire.Request{Op: wire.OpRecommend})
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	var first wire.Response
	for i := 0; i < burst; i++ {
		payload, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		var resp wire.Response
		if err := resp.Decode(payload); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if !resp.OK() {
			t.Fatalf("response %d: %+v", i, resp)
		}
		if i == 0 {
			first = resp
			first.Action = append([]int16(nil), resp.Action...)
			continue
		}
		if resp.Q != first.Q || len(resp.Action) != len(first.Action) {
			t.Fatalf("response %d diverged from first: %+v vs %+v", i, resp, first)
		}
		for j := range resp.Action {
			if resp.Action[j] != first.Action[j] {
				t.Fatalf("response %d action diverged", i)
			}
		}
	}
	srv.mu.Lock()
	served := srv.stream.Recommends - recBefore
	srv.mu.Unlock()
	if served != burst {
		t.Fatalf("journaled %d served recommendations, want %d", served, burst)
	}
	// The whole burst was written before the first read, so at least some
	// of it must have been coalesced into shared evaluations.
	if mWireSharedEvals.Value() == 0 {
		t.Log("no shared evaluations recorded (burst arrived as singletons); coalescing still exercised by frame loop")
	}
}

// TestBinaryBatchAllocationFree pins the daemon's binary serve path at 0
// allocs/op: a steady-state batch through the op core and the wire
// encoder, for a burst of recommends (the batch memo) and for a mix of
// recommend, state and violations. The malloc counter is process-wide and
// the daemon's background goroutines allocate, so each batch keeps the
// least of a few windows.
func TestBinaryBatchAllocationFree(t *testing.T) {
	srv, err := newServer(serverConfig{Seed: 1, LearningDays: 2, Episodes: 2, FixedMinute: 600})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	defer srv.Close()
	recs := make([]opRequest, 16)
	for i := range recs {
		recs[i] = opRequest{op: opRecommend}
	}
	mix := []opRequest{{op: opRecommend}, {op: opState}, {op: opRecommend}, {op: opViolations}, {op: opRecommend}, {op: opState}}
	for _, b := range []struct {
		name string
		reqs []opRequest
	}{{"16 recommends", recs}, {"recommend, state and violations", mix}} {
		out := srv.handleBatch(b.reqs, nil) // sizes the scratch buffers
		allocs := math.Inf(1)
		for i := 0; i < 5; i++ {
			allocs = math.Min(allocs, testing.AllocsPerRun(100, func() {
				out = srv.handleBatch(b.reqs, out[:0])
			}))
		}
		if allocs != 0 {
			t.Errorf("%s: handleBatch allocates %.1f objects per batch, want 0", b.name, allocs)
		}
	}
}

// TestBinaryVersionMismatchCloses pins the downgrade contract: a client
// announcing an unknown protocol revision is disconnected without an ack,
// which is the signal to fall back to JSON.
func TestBinaryVersionMismatchCloses(t *testing.T) {
	srv := startTestServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte{wire.Magic, 0xFE}); err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(conn).ReadByte(); err != io.EOF {
		t.Fatalf("read after bad version = %v, want EOF", err)
	}
}

// TestJSONAfterBinarySupported pins negotiation isolation: a JSON client
// on the same daemon is untouched by binary connections.
func TestJSONAfterBinarySupported(t *testing.T) {
	srv := startTestServer(t)
	bin, err := wire.Dial(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatalf("binary dial: %v", err)
	}
	defer bin.Close()
	if _, err := bin.Do(wire.Request{Op: wire.OpRecommend}); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("json dial: %v", err)
	}
	defer conn.Close()
	resp := roundTrip(t, json.NewEncoder(conn), json.NewDecoder(bufio.NewReader(conn)), request{Op: "state"})
	if !resp.OK {
		t.Fatalf("JSON after binary: %+v", resp)
	}
	if mWireBinary.Value() == 0 || mWireJSON.Value() == 0 {
		t.Errorf("wire counters: binary=%d json=%d, want both nonzero",
			mWireBinary.Value(), mWireJSON.Value())
	}
}
