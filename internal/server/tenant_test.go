package server

import (
	"testing"
)

// grabbed drains a waiter's ready channel without blocking.
func granted(w *waiter) bool {
	select {
	case <-w.ready:
		return true
	default:
		return false
	}
}

func TestAdmissionRoundRobinAcrossTenants(t *testing.T) {
	a := newAdmission(1, 16)
	if !a.tryAcquire() {
		t.Fatal("first slot")
	}
	// bulk floods the queue, then live joins behind it.
	b1 := a.enqueue("bulk")
	b2 := a.enqueue("bulk")
	l1 := a.enqueue("live")
	if b1 == nil || b2 == nil || l1 == nil {
		t.Fatal("waiters should queue")
	}
	// First release grants the tenant next in ring order (bulk queued
	// first): b1.
	a.release()
	if !granted(b1) || granted(b2) || granted(l1) {
		t.Fatalf("first grant should be b1 (b1=%v b2=%v l1=%v)", granted(b1), granted(b2), granted(l1))
	}
	// Round-robin: the next grant goes to live, NOT to bulk's second
	// waiter — that is the whole point of per-tenant queues.
	a.release()
	if !granted(l1) || granted(b2) {
		t.Fatal("second grant must rotate to the live tenant")
	}
	a.release()
	if !granted(b2) {
		t.Fatal("third grant drains bulk's remaining waiter")
	}
}

func TestAdmissionQueueCapSheds(t *testing.T) {
	a := newAdmission(1, 1)
	if !a.tryAcquire() {
		t.Fatal("slot")
	}
	if a.enqueue("a") == nil {
		t.Fatal("first waiter fits the queue")
	}
	if a.enqueue("b") != nil {
		t.Fatal("queueCap 1 must refuse the second waiter")
	}
}

func TestAdmissionNoBargingPastOwnQueue(t *testing.T) {
	a := newAdmission(2, 8)
	if !a.tryAcquire() || !a.tryAcquire() {
		t.Fatal("slots")
	}
	w := a.enqueue("a")
	if w == nil {
		t.Fatal("waiter")
	}
	// A newcomer must not slip into the released slot ahead of a queued
	// waiter: the release hands the slot to the waiter.
	a.release()
	if !granted(w) {
		t.Fatal("release should grant the queued waiter")
	}
	if running, _ := a.snapshot(); running != 2 {
		t.Fatalf("running = %d, want 2 (grant reoccupied the slot)", running)
	}
	if a.tryAcquire() {
		t.Fatal("capacity is full again after the grant")
	}
}

func TestAdmissionRingStableUnderChurn(t *testing.T) {
	// Steady at-capacity single-tenant load: every cycle queues one
	// waiter, drains it by grant, and refills. The ring must not grow and
	// the tenant must never occupy two slots.
	a := newAdmission(1, 8)
	if !a.tryAcquire() {
		t.Fatal("slot")
	}
	for i := 0; i < 100; i++ {
		w := a.enqueue("")
		if w == nil {
			t.Fatalf("cycle %d: waiter refused", i)
		}
		a.release() // grants w, emptying the queue
		if !granted(w) {
			t.Fatalf("cycle %d: waiter not granted", i)
		}
		if _, queued := a.snapshot(); queued != 0 {
			t.Fatalf("cycle %d: %d waiter(s) still queued after the grant", i, queued)
		}
	}
	// Same churn via the abandon path: enqueue then withdraw.
	for i := 0; i < 100; i++ {
		w := a.enqueue("t")
		if w == nil {
			t.Fatalf("abandon cycle %d: waiter refused", i)
		}
		if !a.abandon(w) {
			t.Fatalf("abandon cycle %d: abandon should win (slot busy)", i)
		}
		if _, queued := a.snapshot(); queued != 0 {
			t.Fatalf("abandon cycle %d: %d waiter(s) queued; an abandoned waiter leaves the queue at once", i, queued)
		}
	}
	// An abandon-drained tenant leaves nothing queued behind.
	if _, queued := a.snapshot(); queued != 0 {
		t.Fatalf("abandoned tenant left %d waiter(s) queued", queued)
	}
	// Fairness still intact after churn: a second tenant's waiter is not
	// starved by the churned tenant's next waiter.
	w1 := a.enqueue("")
	w2 := a.enqueue("live")
	a.release()
	a.release()
	if !granted(w1) || !granted(w2) {
		t.Fatal("both tenants should be granted after churn")
	}
}

func TestAdmissionAbandon(t *testing.T) {
	a := newAdmission(1, 8)
	if !a.tryAcquire() {
		t.Fatal("slot")
	}
	w := a.enqueue("b")
	if !a.abandon(w) {
		t.Fatal("abandon before any grant should win")
	}
	// The abandoned waiter must not receive the next grant.
	a.release()
	if granted(w) {
		t.Fatal("abandoned waiter must not be granted")
	}
	running, queued := a.snapshot()
	if running != 0 || queued != 0 {
		t.Fatalf("snapshot = (%d, %d), want (0, 0)", running, queued)
	}

	// Grant-vs-abandon race, resolved in the grant's favor: abandon
	// reports false and the caller owns the slot.
	if !a.tryAcquire() {
		t.Fatal("slot")
	}
	w2 := a.enqueue("c")
	a.release() // dispatch grants w2
	if !granted(w2) {
		t.Fatal("w2 should be granted")
	}
	if a.abandon(w2) {
		t.Fatal("abandon after grant must report false (caller owns a slot)")
	}
}
