// Package fairq is the tenant-fair queue under snad's two schedulers:
// the interactive admission gate (internal/server) and the async job
// pool (internal/jobs). One bulk tenant flooding a global FIFO starves
// everyone queued behind it; a Ring instead keeps a FIFO per tenant
// (order within a tenant is preserved) and pops round-robin across the
// tenants that have entries. With one tenant it is a plain FIFO. The
// empty string is an ordinary tenant, so untagged work shares one fair
// slice instead of bypassing fairness.
package fairq

import "slices"

// Ring is the queue. It has no lock of its own: each owner calls it
// under the mutex that guards the rest of its scheduling state.
//
// A tenant is in the rotation exactly while it has queued entries —
// Push adds it with its first entry, Pop and Remove drop it with its
// last — so the rotation never holds a duplicate or a drained tenant.
type Ring[T comparable] struct {
	queues map[string][]T
	ring   []string
	rr     int
	n      int
}

// New returns an empty Ring.
func New[T comparable]() *Ring[T] {
	return &Ring[T]{queues: make(map[string][]T)}
}

// Len is the number of queued entries.
func (r *Ring[T]) Len() int { return r.n }

// Push queues v behind tenant's earlier entries.
func (r *Ring[T]) Push(tenant string, v T) {
	if len(r.queues[tenant]) == 0 {
		r.ring = append(r.ring, tenant)
	}
	r.queues[tenant] = append(r.queues[tenant], v)
	r.n++
}

// Pop dequeues the head entry of the next tenant in rotation; ok is
// false when nothing is queued.
func (r *Ring[T]) Pop() (tenant string, v T, ok bool) {
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

// Remove withdraws a queued entry (an abandoned wait, a cancelled job)
// and reports whether it was still queued.
func (r *Ring[T]) Remove(tenant string, v T) bool {
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
func (r *Ring[T]) drop(tenant string, at, i int) bool {
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
