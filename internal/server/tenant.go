package server

// Tenant-fair bounded admission. The old gate was a pair of buffered
// channels (worker semaphore + wait queue): correct, but FIFO across
// all callers, so one bulk tenant flooding the queue starves every
// interactive user behind it. admission keeps the same outer contract —
// at most capacity running, at most queueCap waiting, overflow shed
// immediately — and replaces global FIFO with internal/fairq's Ring,
// shared with the job pool: per-tenant FIFO queues and round-robin grants
// across them. With one tenant the behavior is indistinguishable from the
// old gate. The tenant ID is free text from the X-Snad-Tenant header;
// absent means the "" tenant, so untagged traffic shares one fair slice
// instead of bypassing fairness.

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/fairq"
)

// TenantHeader carries the tenant ID on requests and job submissions
// (exported for the client and load harness).
const TenantHeader = "X-Snad-Tenant"

func tenantOf(r *http.Request) string { return r.Header.Get(TenantHeader) }

// waiter is one queued admission request. ready closes when the slot is
// granted; granted is guarded by the admission mutex and arbitrates the
// grant-vs-abandon race.
type waiter struct {
	tenant  string
	ready   chan struct{}
	granted bool
}

// admission owns the gate's outer contract — capacity, queueCap, no
// barging, grant-vs-abandon — over the shared tenant-fair ring, which
// owns the per-tenant queues and the rotation. A free slot is granted at
// once, so waiters exist only while every slot is taken.
type admission struct {
	capacity int
	queueCap int

	mu      sync.Mutex
	running int
	waiters *fairq.Ring[*waiter]
}

func newAdmission(capacity, queueCap int) *admission {
	return &admission{capacity: capacity, queueCap: queueCap, waiters: fairq.New[*waiter]()}
}

// tryAcquire takes a slot without waiting. It fails when capacity is
// exhausted — which is also the only time anyone waits, so a newcomer
// never barges past a queued waiter.
func (a *admission) tryAcquire() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.running >= a.capacity {
		return false
	}
	a.running++
	return true
}

// enqueue registers a waiter, or returns nil when the wait queue is at
// queueCap (the caller sheds with 429).
func (a *admission) enqueue(tenant string) *waiter {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.waiters.Len() >= a.queueCap {
		return nil
	}
	w := &waiter{tenant: tenant, ready: make(chan struct{})}
	a.waiters.Push(tenant, w)
	// A slot may have freed since tryAcquire; dispatch so the new waiter
	// doesn't wait for the next release.
	a.dispatchLocked()
	return w
}

// abandon withdraws a waiter whose request expired or was drained. It
// reports true when the waiter was still queued; false means the grant
// already happened and the caller owns a slot it must release.
func (a *admission) abandon(w *waiter) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if w.granted {
		return false
	}
	a.waiters.Remove(w.tenant, w)
	return true
}

// release returns a slot and dispatches the next waiter.
func (a *admission) release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.running--
	a.dispatchLocked()
}

// dispatchLocked grants free slots to waiters in the ring's fair order
// until capacity is full or nobody waits. Callers hold a.mu.
func (a *admission) dispatchLocked() {
	for a.running < a.capacity {
		_, w, ok := a.waiters.Pop()
		if !ok {
			return
		}
		w.granted = true
		a.running++
		close(w.ready)
	}
}

// snapshot reports the gate's occupancy for /readyz and /metrics.
func (a *admission) snapshot() (running, queued int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.running, a.waiters.Len()
}

// admit implements bounded, tenant-fair admission for the heavy
// endpoints. It returns a release function, or the shed the caller fails
// with. Waiting in the queue respects the request context and the drain
// signal; grants rotate round-robin across tenants (tenant.go), so one
// flooding tenant cannot starve the rest of the queue.
func (s *Server) admit(r *http.Request) (release func(), err error) {
	tenant := tenantOf(r)
	start := time.Now()
	if !s.gate.tryAcquire() {
		// No slot free: try to join the wait queue. A full
		// queue means the server is past its configured backlog — shed
		// immediately rather than building an invisible line of doomed
		// requests.
		wt := s.gate.enqueue(tenant)
		if wt == nil {
			s.shedN.Add(1)
			return nil, &ErrorInfo{
				Kind:    "overloaded",
				Message: fmt.Sprintf("all %d workers busy and queue of %d full", s.cfg.MaxConcurrent, s.cfg.QueueDepth),
			}
		}
		select {
		case <-wt.ready:
		case <-r.Context().Done():
			err = &ErrorInfo{Kind: "deadline", Message: "request expired while queued for a worker"}
		case <-s.forceCtx.Done():
			err = &ErrorInfo{Kind: "draining", Message: "server drained while request was queued"}
		}
		if err != nil {
			if !s.gate.abandon(wt) {
				// The grant raced the expiry; the slot is ours to return.
				s.gate.release()
			}
			return nil, err
		}
	}
	s.histAdmission.Observe(time.Since(start).Seconds())
	return func() { s.gate.release() }, nil
}
