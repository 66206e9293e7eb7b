// Package fairq is snad's one scheduler: a Pool of engine slots that
// interactive requests (internal/server) and async job attempts
// (internal/jobs) take alike. One bulk tenant flooding a global FIFO
// starves everyone queued behind it; each class instead keeps a FIFO per
// tenant and grants round-robin across the tenants that wait. With one
// tenant it is a plain FIFO. The empty string is an ordinary tenant, so
// untagged work shares one fair slice instead of bypassing fairness.
package fairq

import (
	"context"
	"slices"
	"sync"
)

// Class is the kind of work a slot runs.
type Class int

const (
	// Interactive is a request a client waits on.
	Interactive Class = iota
	// Batch is one attempt of an async job.
	Batch
)

// Pool hands out capacity engine slots. Batch holds at most
// max(1, capacity−1) of them, so with two or more slots a request never
// waits on jobs alone. While both classes wait, grants alternate between
// them, so a burst of requests cannot starve the jobs, nor the jobs the
// requests. At most queueCap interactive claims wait; batch claims are
// bounded by their owner.
//
// A free slot is granted at once, so no claim ever waits while a slot its
// class may take is free, and a newcomer never barges past a waiter.
type Pool struct {
	capacity, batchCap, queueCap int

	mu      sync.Mutex
	running [2]int
	waiters [2]*ring[*Ticket]
	last    Class // class of the latest grant
}

// NewPool returns a Pool of capacity slots whose interactive queue holds
// at most queueCap claims.
func NewPool(capacity, queueCap int) *Pool {
	return &Pool{
		capacity: capacity, batchCap: max(1, capacity-1), queueCap: queueCap,
		waiters: [2]*ring[*Ticket]{newRing[*Ticket](), newRing[*Ticket]()},
	}
}

// Ticket is one claim on a slot. ready closes on the grant; granted, under
// the pool's mutex, settles the grant-vs-withdraw race.
type Ticket struct {
	p       *Pool
	class   Class
	tenant  string
	ready   chan struct{}
	granted bool
}

// Join claims a slot of class c for tenant: granted at once when one is
// free, else queued behind the tenant's earlier claims. It returns nil,
// claiming nothing, when an interactive claim finds queueCap waiting.
func (p *Pool) Join(c Class, tenant string) *Ticket {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := &Ticket{p: p, class: c, tenant: tenant, ready: make(chan struct{})}
	p.waiters[c].Push(tenant, t)
	p.dispatchLocked()
	if !t.granted && c == Interactive && p.waiters[c].Len() > p.queueCap {
		p.waiters[c].Remove(tenant, t)
		return nil
	}
	return t
}

// Wait blocks until t is granted or ctx ends. On ctx's end it withdraws
// the claim — handing on a slot the grant raced in — and returns ctx's
// error.
func (t *Ticket) Wait(ctx context.Context) error {
	select {
	case <-t.ready:
		return nil
	case <-ctx.Done():
	}
	if !t.p.withdraw(t) {
		t.p.Release(t.class)
	}
	return ctx.Err()
}

// withdraw takes a queued claim out of line. It reports false when the
// grant came first, and the caller owns a slot it must release.
func (p *Pool) withdraw(t *Ticket) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if t.granted {
		return false
	}
	p.waiters[t.class].Remove(t.tenant, t)
	return true
}

// Release returns a slot of class c and grants it on.
func (p *Pool) Release(c Class) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.running[c]--
	p.dispatchLocked()
}

// Load reports class c's running and waiting claims.
func (p *Pool) Load(c Class) (running, queued int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.running[c], p.waiters[c].Len()
}

// dispatchLocked grants free slots until none is free or no claim may
// take one: the class not granted last goes first, and its tenants in
// rotation. Callers hold p.mu.
func (p *Pool) dispatchLocked() {
	for p.running[Interactive]+p.running[Batch] < p.capacity {
		c := 1 - p.last
		if !p.eligibleLocked(c) {
			if c = p.last; !p.eligibleLocked(c) {
				return
			}
		}
		_, t, _ := p.waiters[c].Pop()
		t.granted = true
		p.running[c]++
		p.last = c
		close(t.ready)
	}
}

// eligibleLocked reports whether a claim of class c waits and may take a
// free slot.
func (p *Pool) eligibleLocked(c Class) bool {
	return p.waiters[c].Len() > 0 && (c == Interactive || p.running[Batch] < p.batchCap)
}

// ring is one class's tenant-fair queue; the Pool's mutex guards it.
//
// A tenant is in the rotation exactly while it has queued entries —
// Push adds it with its first entry, Pop and Remove drop it with its
// last — so the rotation never holds a duplicate or a drained tenant.
type ring[T comparable] struct {
	queues map[string][]T
	ring   []string
	rr     int
	n      int
}

func newRing[T comparable]() *ring[T] {
	return &ring[T]{queues: make(map[string][]T)}
}

// Len is the number of queued entries.
func (r *ring[T]) Len() int { return r.n }

// Push queues v behind tenant's earlier entries.
func (r *ring[T]) Push(tenant string, v T) {
	if len(r.queues[tenant]) == 0 {
		r.ring = append(r.ring, tenant)
	}
	r.queues[tenant] = append(r.queues[tenant], v)
	r.n++
}

// Pop dequeues the head entry of the next tenant in rotation; ok is
// false when nothing is queued.
func (r *ring[T]) Pop() (tenant string, v T, ok bool) {
	if len(r.ring) == 0 {
		return "", v, false
	}
	if r.rr >= len(r.ring) {
		r.rr = 0
	}
	tenant = r.ring[r.rr]
	v = r.queues[tenant][0]
	// A tenant that leaves the rotation hands its index to the next one,
	// so rr advances only when the tenant stays.
	if !r.drop(tenant, r.rr, 0) {
		r.rr++
	}
	return tenant, v, true
}

// Remove withdraws a queued entry and reports whether it was still
// queued.
func (r *ring[T]) Remove(tenant string, v T) bool {
	i := slices.Index(r.queues[tenant], v)
	if i < 0 {
		return false
	}
	at := slices.Index(r.ring, tenant)
	if r.drop(tenant, at, i) && at < r.rr {
		r.rr--
	}
	return true
}

// drop deletes entry i of tenant's queue and, when that was its last
// entry, the tenant's rotation slot at ring index at; it reports whether
// the tenant left the rotation.
func (r *ring[T]) drop(tenant string, at, i int) bool {
	r.n--
	q := r.queues[tenant]
	if len(q) > 1 {
		r.queues[tenant] = append(q[:i], q[i+1:]...)
		return false
	}
	delete(r.queues, tenant)
	r.ring = append(r.ring[:at], r.ring[at+1:]...)
	return true
}
