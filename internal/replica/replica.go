// Package replica is jarvisd's hot-standby layer: a primary-side shipper
// that streams the live WAL (plus checkpoint snapshots at every barrier)
// over the wire framing, and a follower-side client that applies the
// stream and decides when the primary is dead.
//
// # Protocol
//
// A follower opens a plain TCP connection and sends {Magic, Version} —
// Magic (0xB8) is distinct from both the binary-request magic (0xB7) and
// '{' (0x7B), so the daemon's existing one-byte codec peek gains a third
// branch without disturbing either serving protocol. Everything after the
// two raw hello bytes is a u32-little-endian length-prefixed frame (the
// internal/wire framing, with a larger cap because snapshot frames carry
// whole checkpoints). The first payload byte is the message kind:
//
//	follower → primary:  hello      'H' ver u8, events/steps/recs u64 ×3
//	primary  → follower: snapshot   'S' gen u64, snapshot JSON bytes
//	                     record     'R' raw WAL record bytes, verbatim
//	                     heartbeat  'B' events/steps/recs u64 ×3
//
// After the hello the stream is one-directional. The primary always opens
// with a snapshot — the follower's per-kind stale-record dedup (the same
// skip rule boot-time WAL replay uses) makes the snapshot/stream overlap
// idempotent, so no offset negotiation is needed. When the primary's WAL
// resets at a checkpoint barrier, the shipper sends a fresh snapshot and
// keeps tailing the new log; the follower mirrors the barrier locally.
// Heartbeats carry the primary's journalled counters so the follower can
// compute replication lag; any frame at all proves liveness.
package replica

import (
	"encoding/binary"
	"fmt"

	"jarvis/internal/wire"
)

const (
	// Magic is the first byte a follower sends on a replication
	// connection; distinct from wire.Magic (0xB7) and '{' (0x7B).
	Magic = 0xB8
	// Version is the replication protocol revision.
	Version = 1
	// MaxFrame caps one replication frame. Snapshot frames carry a whole
	// serialized checkpoint (Q table + replay buffer), so the cap is far
	// above the request protocol's.
	MaxFrame = 64 << 20
)

// Message kinds, the first byte of every frame payload.
const (
	MsgHello     = 'H'
	MsgSnapshot  = 'S'
	MsgRecord    = 'R'
	MsgHeartbeat = 'B'
)

// Counters is the per-kind record position both ends exchange: how many
// events, online transitions, and recommendations have been applied (or
// journalled, on the primary). The WAL's per-kind sequence numbers make
// these directly comparable across processes.
type Counters struct {
	Events int
	Steps  int
	Recs   int
}

// Total collapses the position into one monotone number, the basis of the
// replication-lag gauge.
func (c Counters) Total() int { return c.Events + c.Steps + c.Recs }

// Behind reports how many records this position trails p by (0 when equal
// or ahead).
func (c Counters) Behind(p Counters) int {
	d := p.Total() - c.Total()
	if d < 0 {
		return 0
	}
	return d
}

// countersLen is the wire size of a Counters block.
const countersLen = 24

// Message is one parsed frame.
type Message struct {
	Kind byte
	// Ver is the follower's protocol version (hello only).
	Ver uint8
	// Have is the sender's position: the follower's applied position in a
	// hello, the primary's journalled position in a heartbeat.
	Have Counters
	// Gen is the primary's snapshot generation number (snapshot only).
	Gen uint64
	// Data aliases into the frame buffer: the snapshot JSON or the raw WAL
	// record. Valid only until the next read on the same Reader.
	Data []byte
}

func appendCounters(dst []byte, c Counters) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(c.Events))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(c.Steps))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(c.Recs))
	return dst
}

func parseCounters(b []byte) Counters {
	return Counters{
		Events: int(binary.LittleEndian.Uint64(b[0:8])),
		Steps:  int(binary.LittleEndian.Uint64(b[8:16])),
		Recs:   int(binary.LittleEndian.Uint64(b[16:24])),
	}
}

// AppendHello appends the follower's framed hello (sent after the two raw
// magic bytes): protocol version plus its applied position.
func AppendHello(dst []byte, have Counters) []byte {
	payload := make([]byte, 0, 2+countersLen)
	payload = append(payload, MsgHello, Version)
	payload = appendCounters(payload, have)
	return wire.AppendFrame(dst, payload)
}

// AppendSnapshot appends a framed checkpoint transfer.
func AppendSnapshot(dst []byte, gen uint64, data []byte) []byte {
	n := 1 + 8 + len(data)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, MsgSnapshot)
	dst = binary.LittleEndian.AppendUint64(dst, gen)
	return append(dst, data...)
}

// AppendRecord appends a framed verbatim WAL record.
func AppendRecord(dst []byte, rec []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(1+len(rec)))
	dst = append(dst, MsgRecord)
	return append(dst, rec...)
}

// AppendHeartbeat appends a framed liveness beacon carrying the primary's
// journalled position.
func AppendHeartbeat(dst []byte, at Counters) []byte {
	payload := make([]byte, 0, 1+countersLen)
	payload = append(payload, MsgHeartbeat)
	payload = appendCounters(payload, at)
	return wire.AppendFrame(dst, payload)
}

// ParseMessage decodes one frame payload. Message.Data aliases payload.
func ParseMessage(payload []byte) (Message, error) {
	if len(payload) == 0 {
		return Message{}, fmt.Errorf("replica: empty frame")
	}
	m := Message{Kind: payload[0]}
	body := payload[1:]
	switch m.Kind {
	case MsgHello:
		if len(body) != 1+countersLen {
			return Message{}, fmt.Errorf("replica: hello length %d", len(body))
		}
		m.Ver = body[0]
		m.Have = parseCounters(body[1:])
	case MsgSnapshot:
		if len(body) < 8 {
			return Message{}, fmt.Errorf("replica: snapshot length %d", len(body))
		}
		m.Gen = binary.LittleEndian.Uint64(body[:8])
		m.Data = body[8:]
	case MsgRecord:
		m.Data = body
	case MsgHeartbeat:
		if len(body) != countersLen {
			return Message{}, fmt.Errorf("replica: heartbeat length %d", len(body))
		}
		m.Have = parseCounters(body)
	default:
		return Message{}, fmt.Errorf("replica: unknown message kind 0x%02x", m.Kind)
	}
	return m, nil
}
