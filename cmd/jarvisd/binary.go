package main

import (
	"bufio"
	"io"
	"net"
	"time"

	"jarvis/internal/device"
	"jarvis/internal/env"
	"jarvis/internal/wire"
)

// serveBinary runs the binary-protocol loop for one connection: verify the
// two-byte hello, ack, then read frames — blocking for the first request
// and coalescing whatever else is already buffered into one batch served
// under a single lock acquisition and answered with a single write.
func (s *server) serveBinary(conn net.Conn, br *bufio.Reader) {
	var hello [2]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil {
		return
	}
	if hello[0] != wire.Magic || hello[1] != wire.Version {
		// Unknown protocol revision: close rather than guess; the client
		// falls back to JSON.
		return
	}
	if err := conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
		return
	}
	if _, err := conn.Write(wire.AppendAck(nil)); err != nil {
		return
	}
	r := wire.NewReader(br)
	reqs := make([]opRequest, 0, maxBatch)
	out := make([]byte, 0, 4<<10)
	for {
		if err := conn.SetReadDeadline(time.Now().Add(idleTimeout)); err != nil {
			return
		}
		frame, err := r.ReadFrame()
		if err != nil {
			return
		}
		req, err := wire.ParseRequest(frame)
		if err != nil {
			return
		}
		reqs = append(reqs[:0], wireRequest(req))
		for len(reqs) < maxBatch {
			frame, ok, err := r.TryReadFrame()
			if err != nil {
				return
			}
			if !ok {
				break
			}
			req, err := wire.ParseRequest(frame)
			if err != nil {
				return
			}
			reqs = append(reqs, wireRequest(req))
		}
		out = s.handleBatch(reqs, out[:0])
		if err := conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
			return
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
		select {
		case <-s.stop:
			return
		default:
		}
	}
}

// wireRequest maps a binary request onto the op core's. Opcodes the
// binary protocol does not define, promote's included, are unknown.
func wireRequest(req wire.Request) opRequest {
	o := opUnknown
	if req.Op >= wire.OpState && req.Op <= wire.OpLearnState {
		o = op(req.Op)
	}
	return opRequest{op: o, dev: int(req.Device), act: device.ActionID(req.Action)}
}

// handleBatch serves one coalesced batch through the op core and appends
// the framed responses to out. Encoding runs under the state lock, into
// the server's scratch buffers, so a steady-state batch allocates nothing.
func (s *server) handleBatch(reqs []opRequest, out []byte) []byte {
	if len(reqs) > 1 {
		mWireCoalesced.Add(int64(len(reqs) - 1))
	}
	s.serveOps(reqs, func(res *opResult) { out = s.appendWireResponse(out, res) })
	return out
}

// appendWireResponse encodes one core result as a framed binary response.
func (s *server) appendWireResponse(out []byte, res *opResult) []byte {
	var resp wire.Response
	resp.Minute, resp.Violations, resp.Degraded = res.minute, res.violations, res.degraded
	resp.RetryAfterMs, resp.Q = res.retryAfterMs, res.q
	switch {
	case res.err != nil:
		resp.Err = []byte(res.err.Error())
		if res.retryAfterMs > 0 {
			resp.Flags = wire.FlagBusy
		}
	case res.unsafe:
		resp.Flags = wire.FlagOK | wire.FlagUnsafe
	default:
		resp.Flags = wire.FlagOK
	}
	if res.state != nil {
		resp.State = s.wireStateIDs(res.state)
	}
	if res.action != nil {
		resp.Action = s.wireActionIDs(res.action)
	}
	if res.hasLearn {
		l := res.learn
		resp.Flags |= wire.FlagHasLearn
		resp.ReplaySize, resp.Events, resp.OnlineSteps = l.replaySize, l.events, l.onlineSteps
		resp.LearnSteps, resp.Recommends, resp.QSum = l.learnSteps, l.recommends, []byte(l.qsum)
	}
	return wire.AppendResponse(out, &resp)
}

// wireStateIDs copies a state into the reusable binary scratch buffer
// (guarded by mu).
func (s *server) wireStateIDs(state env.State) []uint8 {
	if cap(s.wireState) < len(state) {
		s.wireState = make([]uint8, len(state))
	}
	s.wireState = s.wireState[:len(state)]
	for i, st := range state {
		s.wireState[i] = uint8(st)
	}
	return s.wireState
}

// wireActionIDs copies a composite action into the reusable binary scratch
// buffer (guarded by mu).
func (s *server) wireActionIDs(a []device.ActionID) []int16 {
	if cap(s.wireAction) < len(a) {
		s.wireAction = make([]int16, len(a))
	}
	s.wireAction = s.wireAction[:len(a)]
	for i, act := range a {
		s.wireAction[i] = int16(act)
	}
	return s.wireAction
}
