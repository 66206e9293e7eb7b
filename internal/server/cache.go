package server

// The content-addressed shared design cache. A thousand sessions (or
// shard run tokens) over the same sources cost one parsed-and-bound
// design: entries are keyed by a SHA-256 over the source texts (the
// design key, computed once where a spec enters the process),
// refcounted by every holder, and priced in bytes (bind.Design.MemBytes)
// against an optional server-wide budget.
//
// Invariants:
//
//   - An entry's design is immutable (bind.Design is safe for concurrent
//     readers), so handing one pointer to many sessions is free sharing,
//     not aliasing risk.
//
//   - refs counts live holders: one per session in the registry, one per
//     shard run token hosting engines. Only refs==0 entries may be
//     evicted; a holder's design can never be unbound underneath it.
//     Releasing the last reference keeps the entry resident ("warm") —
//     the next acquire of the same sources is a hit — until budget
//     pressure evicts it, largest-first.
//
//   - Builds are single-flight: concurrent acquires of one key while it
//     is being built coalesce onto the in-flight build instead of
//     multiplying peak memory N-fold (the revive-stampede failure mode).
//     Waiters' references are granted by the builder under the cache
//     lock, so a coalesced waiter can never observe its entry evicted
//     before it wakes.
//
//   - The byte budget is a governor, not a hard fence: in-flight builds
//     are not charged until they finish (their size is unknown), so
//     concurrent first-builds can transiently overshoot by the designs
//     in flight. After each build the exact size is charged; if eviction
//     of idle entries cannot make room the build is discarded and the
//     acquire sheds with kind "budget" (503 + Retry-After upstream).
//
// Lock ordering: the cache mutex is a leaf — it is taken with the
// server registry mutex held (release on session eviction) and must
// never acquire server locks itself.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/bind"
	"repro/internal/shard"
)

type cacheKey [sha256.Size]byte

// specKeys are a design spec's two identities.
type specKeys struct {
	// design covers the five sources, which determine a bound design and
	// its lint verdict: the design cache's key. Options stay out — they
	// configure the engine, not the immutable design — so sessions that
	// differ only in options share one cache entry.
	design cacheKey
	// run covers the design and every option that affects a result: an
	// iterate job's run token, and so its journaled round state, is named
	// by it. Workers stays out, because serial and parallel runs are
	// byte-identical by contract.
	run cacheKey
}

// keysOf makes one pass over a field-by-field encoding of spec, every
// string length-framed so two different specs cannot encode alike, and
// reads the design key off once the sources are in and the run key once
// the options have followed. It runs where a spec enters the process — a
// create, a replayed create record, a run token's first init on this
// worker — and everything after carries what it returned.
func keysOf(spec *shard.DesignSpec) (k specKeys) {
	h := sha256.New()
	str := func(s string) {
		binary.Write(h, binary.BigEndian, uint64(len(s)))
		io.WriteString(h, s)
	}
	for _, s := range []string{spec.Netlist, spec.Verilog, spec.SPEF, spec.Liberty, spec.Timing} {
		str(s)
	}
	h.Sum(k.design[:0])
	o := &spec.Options
	str(o.Mode)
	binary.Write(h, binary.BigEndian, struct {
		Threshold                                 float64
		NoPropagation, LogicCorrelation, FailFast bool
	}{o.Threshold, o.NoPropagation, o.LogicCorrelation, o.FailFast})
	h.Sum(k.run[:0])
	return k
}

// designEntry is one cached bound design. b and bytes are immutable
// after insertion; refs, hits, and lastUsed are guarded by the cache
// mutex.
type designEntry struct {
	key      cacheKey
	b        *bind.Design
	bytes    int64
	refs     int
	hits     int64
	lastUsed time.Time
}

// buildCall coalesces concurrent builds of one key. waiters is guarded
// by the cache mutex; entry/err are written before done closes and
// read only after.
type buildCall struct {
	done    chan struct{}
	waiters int
	entry   *designEntry
	err     error
}

// cacheStats is a point-in-time snapshot for /readyz and /metrics.
type cacheStats struct {
	Budget      int64
	Charged     int64
	Entries     int
	Referenced  int
	Hits        int64
	Misses      int64
	Evictions   int64
	BudgetSheds int64
}

type designCache struct {
	// budget is the byte ceiling; 0 disables budgeting. Immutable.
	budget int64
	now    func() time.Time
	logf   func(format string, args ...any)
	// buildHook, when non-nil, runs once per actual (non-coalesced)
	// design build. It is a test seam: the single-flight regression test
	// counts binds and slows them down through it.
	buildHook func()

	mu          sync.Mutex
	entries     map[cacheKey]*designEntry
	building    map[cacheKey]*buildCall
	charged     int64
	hits        int64
	misses      int64
	evictions   int64
	budgetSheds int64
}

func newDesignCache(budget int64, now func() time.Time, logf func(string, ...any)) *designCache {
	return &designCache{
		budget:   budget,
		now:      now,
		logf:     logf,
		entries:  make(map[cacheKey]*designEntry),
		building: make(map[cacheKey]*buildCall),
	}
}

// budgetErr is the shed result when idle eviction cannot make room.
func (c *designCache) budgetErr(need int64) *ErrorInfo {
	return &ErrorInfo{
		Kind: "budget",
		Message: fmt.Sprintf("design needs ~%d bytes but the server memory budget of %d bytes has %d charged to referenced designs; retry when sessions are deleted or idle",
			need, c.budget, c.charged),
	}
}

// acquire returns a referenced cache entry for the design key, building
// the design with build() on a miss; size, the sources' byte count, is the
// cheap lower bound on the parsed footprint that the pre-build budget
// check uses. Exactly one build runs per key at a time; concurrent
// acquires wait for it and share the result (including
// a failure — a deterministic parse/lint error is the same for every
// waiter, and failed builds are not cached). Coalesced waiters respect
// ctx: a caller whose request expires while a slow build is in flight
// withdraws (shedding with kind "canceled") instead of tying up its
// handler goroutine and admission slot until the build completes. The
// build itself is never canceled — other waiters still want it. The
// caller owns one reference and must release() it.
func (c *designCache) acquire(ctx context.Context, key cacheKey, size int64, build func() (*bind.Design, error)) (*designEntry, error) {
	c.mu.Lock()
	if e := c.entries[key]; e != nil {
		e.refs++
		e.hits++
		e.lastUsed = c.now()
		c.hits++
		c.mu.Unlock()
		return e, nil
	}
	if bc := c.building[key]; bc != nil {
		bc.waiters++
		c.hits++
		c.mu.Unlock()
		select {
		case <-bc.done:
			// The builder granted this waiter's reference under the lock,
			// so the entry cannot have been evicted in between.
			return bc.entry, bc.err
		case <-ctx.Done():
			canceled := &ErrorInfo{
				Kind:    "canceled",
				Message: fmt.Sprintf("request expired while waiting for an in-flight design build: %v", ctx.Err()),
			}
			c.mu.Lock()
			if c.building[key] == bc {
				// The build is still in flight: withdraw before the
				// builder counts this waiter's reference.
				bc.waiters--
				c.hits--
				c.mu.Unlock()
				return nil, canceled
			}
			c.mu.Unlock()
			// The builder already read waiters and granted this waiter's
			// reference; done is about to close (it closes right after
			// the builder drops the lock). Take the grant and return it.
			<-bc.done
			c.release(bc.entry)
			return nil, canceled
		}
	}
	// Miss. Pre-check the budget with the cheap lower bound (source
	// bytes) so a hopeless build sheds before burning CPU and peak RSS.
	if c.budget > 0 && c.charged+size > c.budget {
		c.evictLocked(size)
		if c.charged+size > c.budget {
			c.budgetSheds++
			err := c.budgetErr(size)
			c.mu.Unlock()
			return nil, err
		}
	}
	bc := &buildCall{done: make(chan struct{})}
	c.building[key] = bc
	c.misses++
	hook := c.buildHook
	c.mu.Unlock()

	if hook != nil {
		hook()
	}
	b, err := build() // parse + lint + bind, outside every lock

	c.mu.Lock()
	var entry *designEntry
	if err == nil {
		need := b.MemBytes()
		if c.budget > 0 && c.charged+need > c.budget {
			c.evictLocked(need)
		}
		if c.budget > 0 && c.charged+need > c.budget {
			c.budgetSheds++
			err = c.budgetErr(need)
			c.logf("design cache: built design of %d bytes discarded (budget %d, charged %d)", need, c.budget, c.charged)
		} else {
			entry = &designEntry{
				key:      key,
				b:        b,
				bytes:    need,
				refs:     1 + bc.waiters, // this caller + every coalesced waiter
				hits:     int64(bc.waiters),
				lastUsed: c.now(),
			}
			c.entries[key] = entry
			c.charged += need
		}
	}
	bc.entry, bc.err = entry, err
	delete(c.building, key)
	c.mu.Unlock()
	close(bc.done)
	return entry, err
}

// release drops one reference. The entry stays resident as a warm hit
// candidate until budget pressure evicts it.
func (c *designCache) release(e *designEntry) {
	if e == nil {
		return
	}
	c.mu.Lock()
	e.refs--
	if e.refs < 0 {
		c.mu.Unlock()
		panic("designCache: reference count underflow")
	}
	e.lastUsed = c.now()
	c.mu.Unlock()
}

// evictLocked frees idle (refs==0) entries, largest first, until need
// more bytes fit under the budget or nothing idle remains. Callers hold
// c.mu.
func (c *designCache) evictLocked(need int64) {
	for c.charged+need > c.budget {
		var victim *designEntry
		for _, e := range c.entries {
			if e.refs == 0 && (victim == nil || e.bytes > victim.bytes) {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(c.entries, victim.key)
		c.charged -= victim.bytes
		c.evictions++
		c.logf("design cache: evicted idle design of %d bytes (charged now %d of %d)", victim.bytes, c.charged, c.budget)
	}
}

func (c *designCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := cacheStats{
		Budget:      c.budget,
		Charged:     c.charged,
		Entries:     len(c.entries),
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		BudgetSheds: c.budgetSheds,
	}
	for _, e := range c.entries {
		if e.refs > 0 {
			st.Referenced++
		}
	}
	return st
}
