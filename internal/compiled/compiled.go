// Package compiled distills a trained agent's greedy policy into a dense
// (state × time-bucket) → decision table, turning steady-state Recommend
// into a bounds-checked array load with P_safe already intersected.
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
// Oversized products (e.g. the full home under the per-minute DQN) refuse
// to compile with ErrTooLarge and the caller keeps serving through the
// agent; non-finite or runaway Q regimes refuse with ErrUncompilable so
// the watchdog/degraded machinery of the live path stays in charge.
package compiled

import (
	"errors"
	"fmt"
	"math"
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
	// MaxEntries caps the dense index length (default 4M entries ≈ 16 MiB
	// of uint32 slots — admits the full home's 103,680 states × 24 tabular
	// buckets, rejects the per-minute DQN product).
	MaxEntries uint64
}

func (o Options) withDefaults() Options {
	if o.MaxEntries == 0 {
		o.MaxEntries = 4 << 20
	}
	return o
}

// Decision is one precompiled serving decision. Action aliases a palette
// entry shared by every lookup that deduplicates to it — callers must
// treat it as read-only. Degraded marks entries whose composed action
// failed the FSM transition check at compile time; they carry the safe
// NoOp with value 0, exactly like the live fallback.
type Decision struct {
	Action   env.Action
	Value    float64
	Degraded bool
}

// Policy is an immutable compiled policy table: a dense
// stateKey×bucket → palette-index array plus the deduplicated decision
// palette. Lookups are lock-free and allocation-free; a new table is
// swapped in atomically by the Cache after each rebuild.
type Policy struct {
	e       *env.Environment
	buckets int
	n       int // instances per day
	states  uint64
	idx     []uint32
	palette []Decision

	populated int           // non-default entries
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
	return p.palette[p.idx[key*uint64(p.buckets)+uint64(b)]], true
}

// Entries returns the dense index length (states × buckets).
func (p *Policy) Entries() int { return len(p.idx) }

// Populated returns how many entries hold a non-default decision.
func (p *Policy) Populated() int { return p.populated }

// PaletteSize returns the number of distinct decisions in the table.
func (p *Policy) PaletteSize() int { return len(p.palette) }

// Buckets returns the compiled time resolution (instances for per-minute
// backends).
func (p *Policy) Buckets() int { return p.buckets }

// BuildTime returns how long the compile took.
func (p *Policy) BuildTime() time.Duration { return p.buildTime }

// paletteKey identifies a decision for deduplication: the mixed-radix
// action key, the exact value bits, and the degraded flag.
type paletteKey struct {
	act       uint64
	valueBits uint64
	degraded  bool
}

// compiler accumulates one table build.
type compiler struct {
	e       *env.Environment
	a       *rl.Agent
	p       *Policy
	dedup   map[paletteKey]uint32
	scratch env.State // FSM-check destination buffer
	err     error
}

// Compile enumerates the state×time product and precomputes the greedy
// decision for every cell. instances is the episode length in time
// instances (minutes per day); backends implementing rl.TimeBucketed
// compile one representative instance per bucket, others compile per
// instance. Backends implementing rl.RowIterator are enumerated sparsely:
// only populated rows are evaluated, everything else defaults to the safe
// NoOp with value 0 — provably what the greedy composition returns for an
// all-zero Q row (the NoOp index wins every tie at the top of the
// ranking).
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
		p: &Policy{
			e: e, buckets: buckets, n: n, states: states,
			idx: make([]uint32, states*uint64(buckets)),
		},
		dedup:   make(map[paletteKey]uint32),
		scratch: make(env.State, e.K()),
	}
	// Palette slot 0 is the default every unevaluated cell points at: the
	// safe NoOp with value 0 (idling is always FSM-valid, so not degraded).
	noop := Decision{Action: env.NoOp(e.K())}
	c.p.palette = append(c.p.palette, noop)
	c.dedup[c.key(noop)] = 0

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
	c.p.buildTime = time.Since(start)
	return c.p, nil
}

// cell evaluates one (stateKey, bucket) pair through the agent at the
// bucket's representative instance — the smallest t with t*buckets/n ==
// bucket, so bucketed backends see exactly the row the live path reads for
// every instance of the bucket.
func (c *compiler) cell(stateKey uint64, bucket int) {
	t := (bucket*c.p.n + c.p.buckets - 1) / c.p.buckets
	s := c.e.DecodeState(stateKey)
	act, val, ok := c.a.CompileDecision(s, t)
	if !ok {
		c.err = fmt.Errorf("%w: non-finite or runaway Q at state %d bucket %d",
			ErrUncompilable, stateKey, bucket)
		return
	}
	d := Decision{Action: act, Value: val}
	// Pre-apply the serving path's FSM guard: System.Recommend falls back
	// to the safe NoOp (value 0, degraded) when the composition does not
	// survive a transition check.
	if !c.e.TransitionOK(c.scratch, s, act) {
		d = Decision{Action: env.NoOp(c.e.K()), Degraded: true}
	}
	pi, seen := c.dedup[c.key(d)]
	if !seen {
		if len(c.p.palette) > math.MaxUint32 {
			c.err = fmt.Errorf("compiled: palette overflow at %d decisions", len(c.p.palette))
			return
		}
		pi = uint32(len(c.p.palette))
		c.p.palette = append(c.p.palette, d)
		c.dedup[c.key(d)] = pi
	}
	if pi != 0 {
		c.p.populated++
	}
	c.p.idx[stateKey*uint64(c.p.buckets)+uint64(bucket)] = pi
}

func (c *compiler) key(d Decision) paletteKey {
	return paletteKey{
		act:       c.e.ActionKey(d.Action),
		valueBits: math.Float64bits(d.Value),
		degraded:  d.Degraded,
	}
}
