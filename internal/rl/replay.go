package rl

import (
	"encoding/binary"
	"math/rand"

	"jarvis/internal/device"
	"jarvis/internal/env"
)

// Experience is one agent step stored for replay (Section V-A6): the state
// and instance it acted in, the mini-actions composing the executed
// composite action, the observed reward, and the successor.
type Experience struct {
	S     env.State
	T     int
	Minis []int // mini-action indices of the composite action
	R     float64
	Next  env.State
	NextT int
	Done  bool
}

// Replay is a fixed-capacity ring buffer of experiences with uniform
// random sampling — the paper's "agent remembers the actions and
// corresponding cumulative rewards for all previous replays of prior
// episodes".
//
// A trained home revisits a few dozen states and mini-action lists across
// thousands of experiences, so the buffer stores each distinct value once:
// a slot holds the scalars and references into two refcounted,
// content-interned pools. The buffer costs capacity × 40 B plus each
// distinct value it holds (DESIGN §8.2).
type Replay struct {
	slots  []slot
	next   int
	full   bool
	states interned[device.StateID]
	minis  interned[int]
	// idx is a reused permutation of buffer indices for SampleInto's
	// partial Fisher–Yates; rebuilt only when the buffer grows.
	idx []int
}

// slot is one stored experience: its scalars and pool references (0 is a
// nil value).
type slot struct {
	r              float64
	t, nextT       int
	s, next, minis uint32
	done           bool
}

// NewReplay creates a buffer holding at most capacity experiences.
func NewReplay(capacity int) *Replay {
	if capacity <= 0 {
		capacity = 1
	}
	return &Replay{slots: make([]slot, 0, capacity)}
}

// Add stores an experience, evicting the oldest when full. It copies a
// state or mini-action list only the first time its content is seen, so
// the caller may reuse e's slices.
func (r *Replay) Add(e Experience) {
	sl := slot{
		r: e.R, t: e.T, nextT: e.NextT, done: e.Done,
		s: r.states.ref(e.S), next: r.states.ref(e.Next), minis: r.minis.ref(e.Minis),
	}
	if len(r.slots) < cap(r.slots) {
		r.slots = append(r.slots, sl)
		return
	}
	// The new references are taken before the evicted ones are dropped, so
	// a value both hold is never freed and copied again.
	old := &r.slots[r.next]
	r.states.release(old.s)
	r.states.release(old.next)
	r.minis.release(old.minis)
	*old = sl
	r.full = true
	r.next = (r.next + 1) % cap(r.slots)
}

// load fills e with stored experience i, its slices aliasing the pools.
func (r *Replay) load(i int, e *Experience) {
	sl := &r.slots[i]
	e.S, e.T, e.Minis, e.R = r.states.get(sl.s), sl.t, r.minis.get(sl.minis), sl.r
	e.Next, e.NextT, e.Done = r.states.get(sl.next), sl.nextT, sl.done
}

// Len returns the number of stored experiences.
func (r *Replay) Len() int { return len(r.slots) }

// SampleInto draws a uniform random mini-batch of size n without
// replacement (clamped to the buffer length) into dst, truncating it first,
// and returns the filled slice. It shuffles only the first n positions of a
// reused internal index buffer (a partial Fisher–Yates), so a call with
// sufficient dst capacity performs zero allocations. Because each draw is
// uniform over the remaining indices, leaving the buffer permuted between
// calls does not bias later samples.
//
// The sampled experiences' S, Next and Minis alias values the buffer
// shares between every experience that holds them: they are read-only.
func (r *Replay) SampleInto(dst []Experience, n int, rng *rand.Rand) []Experience {
	if n > len(r.slots) {
		n = len(r.slots)
	}
	dst = dst[:0]
	if n <= 0 {
		return dst
	}
	if len(r.idx) != len(r.slots) {
		r.idx = r.idx[:0]
		for i := range r.slots {
			r.idx = append(r.idx, i)
		}
	}
	for j := 0; j < n; j++ {
		k := j + rng.Intn(len(r.idx)-j)
		r.idx[j], r.idx[k] = r.idx[k], r.idx[j]
		dst = append(dst, Experience{})
		r.load(r.idx[j], &dst[j])
	}
	return dst
}

// Sample draws a uniform random mini-batch of size n into a fresh slice; it
// is SampleInto with a new destination.
func (r *Replay) Sample(n int, rng *rand.Rand) []Experience {
	return r.SampleInto(make([]Experience, 0, n), n, rng)
}

// interned is a content-keyed, refcounted pool of int slices: each
// distinct value is stored once, under an id every holder shares, and
// freed when its last holder releases it. Id 0 is the nil value.
type interned[E ~int] struct {
	ids  map[string]uint32 // content key → id
	vals [][]E             // id → value (nil once released)
	refs []uint32          // id → holders
	free []uint32          // released ids, reused before vals grows
	key  []byte            // content-key scratch
}

// ref returns v's id, taking one reference. It copies v only when no held
// value has its content.
func (p *interned[E]) ref(v []E) uint32 {
	if v == nil {
		return 0
	}
	p.key = appendKey(p.key[:0], v)
	if id, ok := p.ids[string(p.key)]; ok {
		p.refs[id]++
		return id
	}
	if p.ids == nil {
		p.ids = make(map[string]uint32)
		p.vals, p.refs = [][]E{nil}, []uint32{0}
	}
	var id uint32
	if n := len(p.free); n > 0 {
		id, p.free = p.free[n-1], p.free[:n-1]
	} else {
		id = uint32(len(p.vals))
		p.vals, p.refs = append(p.vals, nil), append(p.refs, 0)
	}
	p.vals[id] = append(make([]E, 0, len(v)), v...)
	p.refs[id] = 1
	p.ids[string(p.key)] = id
	return id
}

// get returns the value of id.
func (p *interned[E]) get(id uint32) []E {
	if id == 0 {
		return nil
	}
	return p.vals[id]
}

// release drops one reference to id, freeing the value with the last.
func (p *interned[E]) release(id uint32) {
	if id == 0 {
		return
	}
	if p.refs[id]--; p.refs[id] > 0 {
		return
	}
	p.key = appendKey(p.key[:0], p.vals[id])
	delete(p.ids, string(p.key))
	p.vals[id] = nil
	p.free = append(p.free, id)
}

// appendKey appends v's content key, one varint per element, to b.
func appendKey[E ~int](b []byte, v []E) []byte {
	for _, x := range v {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}
