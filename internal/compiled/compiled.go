// Package compiled distills a trained agent's greedy policy into a
// (state × time-bucket) → decision table, turning steady-state Recommend
// into a few bounds-checked array loads with P_safe already intersected.
//
// The discrete FSM-product state space is exactly enumerable
// (env.StateKey / env.DecodeState), and the tabular Q backend's values
// depend on time only through its bucket fold, so one representative
// instance per bucket pins every decision of the day. The compiler
// evaluates rl.Agent.CompileDecision — the same ranking, P_safe
// intersection, and FSM fallback the live path runs — so compiled
// decisions are bit-identical to Agent.Recommend by construction, which
// the golden tests assert.
//
// A trained agent leaves almost every state at the default decision (the
// safe NoOp), so the table is two-level: a bitmap over state keys marking
// the states with at least one non-default cell, each of which owns one
// row of palette indices, numbered by its rank among the marked states.
// Every other state shares row 0, which is all default. The table costs
// 1.5 bits per state (the bitmap and a 32-bit rank per 64-state word) plus
// buckets×4 B per state the agent learned something for.
//
// Oversized products (e.g. the full home under the per-minute DQN) refuse
// to compile with ErrTooLarge and the caller keeps serving through the
// agent; non-finite or runaway Q regimes refuse with ErrUncompilable so
// the watchdog/degraded machinery of the live path stays in charge.
package compiled

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"

	"jarvis/internal/env"
	"jarvis/internal/rl"
)

// ErrTooLarge reports a state×bucket product beyond Options.MaxEntries.
// It is permanent for a given environment/backend pair: the cache stops
// attempting rebuilds once it sees it.
var ErrTooLarge = errors.New("compiled: state×time product exceeds table cap")

// ErrUncompilable reports Q values the live path would route through the
// watchdog or the degraded fallback (non-finite or runaway magnitudes). It
// is transient: a later rebuild after a rollback may succeed.
var ErrUncompilable = errors.New("compiled: Q values outside the compilable regime")

// Options tunes compilation.
type Options struct {
	// MaxEntries caps the state×bucket cells Compile enumerates (default
	// 4M — admits the full home's 103,680 states × 24 tabular buckets,
	// rejects the per-minute DQN product). It bounds the compile's work,
	// not the table's memory, which grows with the states that hold a
	// non-default decision.
	MaxEntries uint64
}

func (o Options) withDefaults() Options {
	if o.MaxEntries == 0 {
		o.MaxEntries = 4 << 20
	}
	return o
}

// Decision is one precompiled serving decision. Action aliases one copy
// shared by every palette entry that composes the same action — callers
// must treat it as read-only. Degraded marks entries whose composed action
// failed the FSM transition check at compile time; they carry the safe
// NoOp with value 0, exactly like the live fallback.
type Decision struct {
	Action   env.Action
	Value    float64
	Degraded bool
}

// Policy is an immutable compiled policy table: a bitmap of the states
// that own a row, rows of per-bucket palette indices, and the decision
// palette — entry 0 the default, entry i+1 the i-th learned cell's.
// Lookups are lock-free and allocation-free; a new table is swapped in
// atomically by the Cache after each rebuild.
type Policy struct {
	e       *env.Environment
	buckets int
	n       int    // instances per day
	states  uint64 // state keys covered
	// owns has bit key%64 of word key/64 set when state key owns a row;
	// rank[w] counts the owners below word w, so an owner's row is one
	// past its rank among them. Row 0 is the shared all-default row.
	owns    []uint64
	rank    []uint32
	cells   []uint32 // row*buckets + bucket → palette index
	palette []Decision

	populated int           // non-default cells
	buildTime time.Duration // wall time of the compile
}

// Lookup returns the compiled decision for (s, t). ok is false when t lies
// outside the compiled day — callers fall back to the live agent path. The
// state must be valid for the policy's environment (the jarvis facade
// checks ValidState before keying).
func (p *Policy) Lookup(s env.State, t int) (Decision, bool) {
	if p == nil || t < 0 || t >= p.n {
		return Decision{}, false
	}
	key := p.e.StateKey(s)
	if key >= p.states {
		return Decision{}, false
	}
	b := t * p.buckets / p.n
	if b >= p.buckets {
		b = p.buckets - 1
	}
	return p.palette[p.cells[p.row(key)*uint64(p.buckets)+uint64(b)]], true
}

// row returns state key's row: 0 unless it owns one.
func (p *Policy) row(key uint64) uint64 {
	w, bit := key/64, uint64(1)<<(key%64)
	if p.owns[w]&bit == 0 {
		return 0
	}
	return uint64(p.rank[w]) + uint64(bits.OnesCount64(p.owns[w]&(bit-1))) + 1
}

// Entries returns the cells the table covers (states × buckets).
func (p *Policy) Entries() int { return int(p.states) * p.buckets }

// Populated returns how many cells hold a non-default decision.
func (p *Policy) Populated() int { return p.populated }

// Buckets returns the compiled time resolution (instances for per-minute
// backends).
func (p *Policy) Buckets() int { return p.buckets }

// BuildTime returns how long the compile took.
func (p *Policy) BuildTime() time.Duration { return p.buildTime }

// compiler accumulates one table build. It evaluates every cell in reused
// buffers, so a cell allocates only when its decision composes an action
// no earlier palette entry holds.
type compiler struct {
	e *env.Environment
	a *rl.Agent
	p *Policy
	// actions holds one read-only copy of each distinct palette action,
	// keyed by its action key: many decisions differ only in value.
	actions map[uint64]env.Action
	noopKey uint64 // the default decision's action key
	// learned lists the non-default cells in evaluation order; the rows
	// are laid out once the owners are known.
	learned []learnedCell
	state   env.State  // the evaluated cell's decoded state
	act     env.Action // its composed greedy action
	next    env.State  // FSM-check destination buffer
	err     error
}

// learnedCell is one cell holding a non-default decision; the i-th owns
// palette entry i+1.
type learnedCell struct {
	key    uint64
	bucket int
}

// Compile enumerates the state×time product and precomputes the greedy
// decision for every cell. instances is the episode length in time
// instances (minutes per day); backends implementing rl.TimeBucketed
// compile one representative instance per bucket, others compile per
// instance. Backends implementing rl.RowIterator are enumerated sparsely:
// only populated rows are evaluated, everything else defaults to the safe
// NoOp with value 0 — provably what the greedy composition returns for an
// all-zero Q row (the NoOp index wins every tie at the top of the
// ranking). Either way a state gets a row of its own only when one of its
// cells holds a non-default decision.
func Compile(e *env.Environment, a *rl.Agent, instances int, opt Options) (*Policy, error) {
	if e == nil || a == nil {
		return nil, errors.New("compiled: nil environment or agent")
	}
	if instances <= 0 {
		return nil, fmt.Errorf("compiled: invalid instance count %d", instances)
	}
	opt = opt.withDefaults()
	buckets, n := instances, instances
	if tb, ok := a.Q().(rl.TimeBucketed); ok {
		buckets, n = tb.TimeBuckets()
	}
	if buckets <= 0 || n <= 0 || buckets > n {
		// More buckets than instances leaves buckets with no representative
		// instance; no shipped backend does this.
		return nil, fmt.Errorf("%w: %d buckets over %d instances", ErrUncompilable, buckets, n)
	}
	states := e.NumStateCombinations()
	if states == 0 || states > opt.MaxEntries || uint64(buckets) > opt.MaxEntries/states {
		return nil, fmt.Errorf("%w: %d states × %d buckets > %d entries",
			ErrTooLarge, states, buckets, opt.MaxEntries)
	}
	start := time.Now()
	c := &compiler{
		e: e, a: a,
		p:       &Policy{e: e, buckets: buckets, n: n, states: states},
		actions: make(map[uint64]env.Action),
		state:   make(env.State, e.K()),
		act:     make(env.Action, e.K()),
		next:    make(env.State, e.K()),
	}
	// Palette slot 0 is the default every unevaluated cell and all of row 0
	// point at: the safe NoOp with value 0 (idling is always FSM-valid, so
	// not degraded).
	noop := Decision{Action: env.NoOp(e.K())}
	c.p.palette = append(c.p.palette, noop)
	c.noopKey = c.e.ActionKey(noop.Action)
	c.actions[c.noopKey] = noop.Action

	if ri, ok := a.Q().(rl.RowIterator); ok {
		ri.Rows(func(stateKey uint64, bucket int) {
			if c.err != nil || stateKey >= states || bucket < 0 || bucket >= buckets {
				return
			}
			c.cell(stateKey, bucket)
		})
	} else {
		for sk := uint64(0); sk < states && c.err == nil; sk++ {
			for b := 0; b < buckets && c.err == nil; b++ {
				c.cell(sk, b)
			}
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	c.layout()
	c.p.buildTime = time.Since(start)
	return c.p, nil
}

// layout builds the owner bitmap, its ranks and the rows from the learned
// cells.
func (c *compiler) layout() {
	p := c.p
	words := (p.states + 63) / 64
	p.owns, p.rank = make([]uint64, words), make([]uint32, words)
	for _, lc := range c.learned {
		p.owns[lc.key/64] |= 1 << (lc.key % 64)
	}
	var owners uint32
	for w, m := range p.owns {
		p.rank[w] = owners
		owners += uint32(bits.OnesCount64(m))
	}
	p.cells = make([]uint32, (uint64(owners)+1)*uint64(p.buckets))
	for i, lc := range c.learned {
		p.cells[p.row(lc.key)*uint64(p.buckets)+uint64(lc.bucket)] = uint32(i + 1)
	}
}

// cell evaluates one (stateKey, bucket) pair through the agent at the
// bucket's representative instance — the smallest t with t*buckets/n ==
// bucket, so bucketed backends see exactly the row the live path reads for
// every instance of the bucket.
func (c *compiler) cell(stateKey uint64, bucket int) {
	t := (bucket*c.p.n + c.p.buckets - 1) / c.p.buckets
	s := c.e.DecodeStateInto(c.state, stateKey)
	act, val, ok := c.a.CompileDecision(c.act, s, t)
	if !ok {
		c.err = fmt.Errorf("%w: non-finite or runaway Q at state %d bucket %d",
			ErrUncompilable, stateKey, bucket)
		return
	}
	c.act = act
	d := Decision{Action: act, Value: val}
	// Pre-apply the serving path's FSM guard: System.Recommend falls back
	// to the safe NoOp (value 0, degraded) when the composition does not
	// survive a transition check.
	if !c.e.TransitionOK(c.next, s, act) {
		d = Decision{Action: c.p.palette[0].Action, Degraded: true}
	}
	k := c.e.ActionKey(d.Action)
	if k == c.noopKey && math.Float64bits(d.Value) == 0 && !d.Degraded {
		return // every cell starts at the default
	}
	if len(c.learned) == math.MaxUint32 {
		c.err = fmt.Errorf("compiled: palette overflow at %d learned cells", len(c.learned))
		return
	}
	shared, ok := c.actions[k]
	if !ok {
		shared = d.Action.Clone()
		c.actions[k] = shared
	}
	d.Action = shared
	c.p.palette = append(c.p.palette, d)
	c.p.populated++
	c.learned = append(c.learned, learnedCell{key: stateKey, bucket: bucket})
}
