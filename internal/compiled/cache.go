package compiled

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Cache owns the live compiled policy and its rebuild lifecycle. Readers
// load the current table through one atomic pointer (nil while dirty — the
// caller then serves through the agent and the miss counter records the
// fallback). Writers call Invalidate after every mutation of the policy
// inputs (learn steps, Q loads, P_safe swaps); the first invalidation
// kicks an asynchronous rebuild goroutine that recompiles under the
// caller-supplied lock and swaps the fresh table in atomically, coalescing
// any invalidations that arrive mid-build into one more pass.
//
// Correctness contract: Invalidate must run under the same lock that
// guards the agent (the daemon holds its state mutex for every mutation),
// so a build never captures a half-applied update and a table swapped in
// under the lock is never stale.
type Cache struct {
	build func() (*Policy, error)
	mu    sync.Locker

	cur      atomic.Pointer[Policy]
	gen      atomic.Uint64 // bumped by every Invalidate
	building atomic.Bool   // a rebuild goroutine is active
	disabled atomic.Bool   // ErrTooLarge is permanent; stop rebuilding

	dirtySince atomic.Int64 // unix ns of the invalidation that cleared cur; 0 = clean
	lastErr    atomic.Pointer[string]

	hits        atomic.Uint64
	misses      atomic.Uint64
	rebuilds    atomic.Uint64
	stalenessMs atomic.Int64 // invalidate→swap gap of the latest rebuild

	wg sync.WaitGroup
}

// NewCache wires a rebuild function to the lock that guards its inputs.
// The cache starts empty; call RebuildNow for a synchronous first build or
// Invalidate to schedule one.
func NewCache(lock sync.Locker, build func() (*Policy, error)) *Cache {
	return &Cache{build: build, mu: lock}
}

// Policy returns the current compiled table, or nil while the cache is
// dirty, disabled, or not yet built.
func (c *Cache) Policy() *Policy { return c.cur.Load() }

// Disabled reports whether compilation was permanently abandoned
// (state×bucket product beyond the cap).
func (c *Cache) Disabled() bool { return c.disabled.Load() }

// Hit records a lookup served from the compiled table.
func (c *Cache) Hit() { c.hits.Add(1); mHits.Inc() }

// Miss records a lookup that fell back to the live agent path.
func (c *Cache) Miss() { c.misses.Add(1); mMisses.Inc() }

// Invalidate marks the compiled table stale, clears it so no reader can
// act on pre-mutation decisions, and schedules an asynchronous rebuild.
// Must be called under the cache's lock (see the type comment).
func (c *Cache) Invalidate() {
	if c.disabled.Load() {
		return
	}
	c.gen.Add(1)
	c.cur.Store(nil)
	c.dirtySince.CompareAndSwap(0, time.Now().UnixNano())
	if c.building.Swap(true) {
		return // active builder re-checks the generation before exiting
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.rebuildLoop()
	}()
}

// rebuildLoop recompiles until the generation it built matches the latest
// invalidation, handing the builder token back only when no invalidation
// slipped past the final check.
func (c *Cache) rebuildLoop() {
	for {
		g := c.gen.Load()
		c.rebuild(g)
		c.building.Store(false)
		if c.gen.Load() == g || c.disabled.Load() {
			return
		}
		if c.building.Swap(true) {
			return // a concurrent Invalidate kicked a fresh builder
		}
	}
}

// rebuild runs one compile under the lock and swaps the table in while
// still holding it, so the swap orders before any later mutation.
func (c *Cache) rebuild(gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen.Load() != gen {
		return // superseded before the lock was acquired; loop retries
	}
	p, err := c.build()
	if err != nil {
		msg := err.Error()
		c.lastErr.Store(&msg)
		if errors.Is(err, ErrTooLarge) {
			c.disabled.Store(true)
			c.dirtySince.Store(0)
		}
		return
	}
	c.lastErr.Store(nil)
	c.cur.Store(p)
	c.rebuilds.Add(1)
	mRebuilds.Inc()
	mEntries.SetInt(int64(p.Entries()))
	if since := c.dirtySince.Swap(0); since != 0 {
		ms := (time.Now().UnixNano() - since) / int64(time.Millisecond)
		c.stalenessMs.Store(ms)
		mStaleness.SetInt(ms)
	}
}

// RebuildNow compiles synchronously — the daemon's boot path and tests use
// it to have a table before serving. It returns the compile error, if any
// (ErrTooLarge additionally disables the cache).
func (c *Cache) RebuildNow() error {
	if c.disabled.Load() {
		return ErrTooLarge
	}
	c.gen.Add(1)
	c.cur.Store(nil)
	c.dirtySince.CompareAndSwap(0, time.Now().UnixNano())
	c.rebuild(c.gen.Load())
	if msg := c.lastErr.Load(); msg != nil {
		if c.disabled.Load() {
			return ErrTooLarge
		}
		return errors.New(*msg)
	}
	return nil
}

// Wait blocks until any in-flight background rebuild finishes (tests).
func (c *Cache) Wait() { c.wg.Wait() }

// CacheStats is the health surface exported on /healthz.
type CacheStats struct {
	Ready       bool   `json:"ready"`
	Disabled    bool   `json:"disabled"`
	Entries     int    `json:"entries"`
	Populated   int    `json:"populated"`
	Buckets     int    `json:"buckets"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Rebuilds    uint64 `json:"rebuilds"`
	StalenessMs int64  `json:"stalenessMs"`
	BuildMs     int64  `json:"buildMs"`
	LastError   string `json:"lastError,omitempty"`
}

// Stats snapshots the cache counters and the current table's shape.
func (c *Cache) Stats() CacheStats {
	st := CacheStats{
		Disabled:    c.disabled.Load(),
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Rebuilds:    c.rebuilds.Load(),
		StalenessMs: c.stalenessMs.Load(),
	}
	if since := c.dirtySince.Load(); since != 0 {
		st.StalenessMs = (time.Now().UnixNano() - since) / int64(time.Millisecond)
	}
	if msg := c.lastErr.Load(); msg != nil {
		st.LastError = *msg
	}
	if p := c.cur.Load(); p != nil {
		st.Ready = true
		st.Entries = p.Entries()
		st.Populated = p.Populated()
		st.Buckets = p.Buckets()
		st.BuildMs = p.BuildTime().Milliseconds()
	}
	return st
}
