package fairq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// granted reports, without blocking, whether t's slot was granted.
func granted(t *Ticket) bool {
	select {
	case <-t.ready:
		return true
	default:
		return false
	}
}

// admission is the pool's interactive class in the words of the
// admission gate's tests, which moved here with it.
type admission struct{ *Pool }

func newAdmission(capacity, queueCap int) admission {
	return admission{NewPool(capacity, queueCap)}
}

// tryAcquire takes a slot only if one is free, leaving nothing queued.
func (a admission) tryAcquire() bool {
	t := a.Join(Interactive, "")
	if t != nil && !granted(t) {
		a.withdraw(t)
		return false
	}
	return t != nil
}

func (a admission) enqueue(tenant string) *Ticket   { return a.Join(Interactive, tenant) }
func (a admission) abandon(t *Ticket) bool          { return a.withdraw(t) }
func (a admission) release()                        { a.Release(Interactive) }
func (a admission) snapshot() (running, queued int) { return a.Load(Interactive) }

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

// TestPoolAlternatesClasses: with one slot and both classes waiting,
// grants alternate between them, so neither a burst of requests nor a
// queue of jobs starves the other; within a class tenants rotate.
func TestPoolAlternatesClasses(t *testing.T) {
	p := NewPool(1, 8)
	if !granted(p.Join(Interactive, "")) {
		t.Fatal("first slot")
	}
	var names []string
	tickets := map[string]*Ticket{}
	for _, c := range []struct {
		class  Class
		tenant string
		name   string
	}{{Interactive, "x", "i1"}, {Interactive, "x", "i2"}, {Batch, "", "b1"}, {Interactive, "y", "i3"}, {Batch, "", "b2"}} {
		names = append(names, c.name)
		tickets[c.name] = p.Join(c.class, c.tenant)
	}
	var got []string
	for class := Interactive; len(got) < len(names); {
		p.Release(class)
		for _, name := range names {
			if granted(tickets[name]) && !slices.Contains(got, name) {
				got = append(got, name)
				class = tickets[name].class
			}
		}
	}
	if want := []string{"b1", "i1", "b2", "i3", "i2"}; !slices.Equal(got, want) {
		t.Fatalf("grant order = %v, want %v", got, want)
	}
}

// TestPoolCancelWithdrawsWait: a claim whose context ends while it waits
// leaves the line and is never granted; the slot goes to the next claim.
func TestPoolCancelWithdrawsWait(t *testing.T) {
	p := NewPool(1, 8)
	if !granted(p.Join(Interactive, "")) {
		t.Fatal("first slot")
	}
	b1, b2 := p.Join(Batch, "a"), p.Join(Batch, "a")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error)
	go func() { done <- b1.Wait(ctx) }()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled wait returned %v", err)
	}
	if _, queued := p.Load(Batch); queued != 1 {
		t.Fatalf("%d batch claims queued after the cancel, want 1", queued)
	}
	p.Release(Interactive)
	if granted(b1) || !granted(b2) {
		t.Fatalf("after the release: b1 granted %v, b2 granted %v", granted(b1), granted(b2))
	}
	if err := b2.Wait(context.Background()); err != nil {
		t.Fatalf("a granted claim's wait returned %v", err)
	}
}

// TestPoolGrantAbandonRace runs claims of both classes whose waits time
// out at random, so grants race withdrawals, and checks that the holders
// never exceed the slots and that every slot comes back.
func TestPoolGrantAbandonRace(t *testing.T) {
	p := NewPool(2, 64)
	var mu sync.Mutex
	var held [2]int
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, rng := Class(g%2), rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				tk := p.Join(c, fmt.Sprint(g%3))
				if tk == nil {
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(50))*time.Microsecond)
				err := tk.Wait(ctx)
				cancel()
				if err != nil {
					continue
				}
				mu.Lock()
				held[c]++
				if held[Interactive]+held[Batch] > p.capacity || held[Batch] > p.batchCap {
					t.Errorf("holders %v over %d slots, %d batch", held, p.capacity, p.batchCap)
				}
				mu.Unlock()
				runtime.Gosched()
				mu.Lock()
				held[c]--
				mu.Unlock()
				p.Release(c)
			}
		}(g)
	}
	wg.Wait()
	for _, c := range []Class{Interactive, Batch} {
		if running, queued := p.Load(c); running != 0 || queued != 0 {
			t.Fatalf("class %d left %d running, %d queued", c, running, queued)
		}
	}
}

// claim is one Join the model made: queued until the pool grants it,
// then held until released.
type claim struct {
	t      *Ticket
	class  Class
	tenant string
}

// poolModel tracks what the pool must hold: the queued claims in join
// order, the held ones, and how often each class was passed over in a row
// (a grant went to the other class while it had an eligible claim).
type poolModel struct {
	t      *testing.T
	p      *Pool
	queued []*claim
	held   []*claim
	run    [2]int
	passed [2]int
}

func (m *poolModel) eligible(c Class) bool {
	for _, q := range m.queued {
		if q.class == c {
			return c == Interactive || m.run[Batch] < m.p.batchCap
		}
	}
	return false
}

func (m *poolModel) count(c Class) (n int) {
	for _, q := range m.queued {
		if q.class == c {
			n++
		}
	}
	return n
}

// settle takes the grant a step made, if any, checks it against the
// model's order, and then checks the pool's invariants.
func (m *poolModel) settle(step string) {
	m.t.Helper()
	i := slices.IndexFunc(m.queued, func(q *claim) bool { return granted(q.t) })
	if i >= 0 {
		g := m.queued[i]
		if j := slices.IndexFunc(m.queued, func(q *claim) bool { return q.class == g.class && q.tenant == g.tenant }); j != i {
			m.t.Fatalf("%s: granted claim %d of class %d tenant %q ahead of its earlier claim %d", step, i, g.class, g.tenant, j)
		}
		if other := 1 - g.class; m.eligible(other) {
			if m.passed[other]++; m.passed[other] > 1 {
				m.t.Fatalf("%s: class %d passed over twice in a row", step, other)
			}
		}
		m.passed[g.class] = 0
		m.queued = slices.Delete(m.queued, i, i+1)
		m.held = append(m.held, g)
		m.run[g.class]++
		if slices.ContainsFunc(m.queued, func(q *claim) bool { return granted(q.t) }) {
			m.t.Fatalf("%s: more than one grant in one step", step)
		}
	}
	for _, c := range []Class{Interactive, Batch} {
		if running, queued := m.p.Load(c); running != m.run[c] || queued != m.count(c) {
			m.t.Fatalf("%s: class %d reports %d running, %d queued; model %d, %d", step, c, running, queued, m.run[c], m.count(c))
		}
	}
	if m.run[Interactive]+m.run[Batch] > m.p.capacity || m.run[Batch] > m.p.batchCap || m.count(Interactive) > m.p.queueCap {
		m.t.Fatalf("%s: running %v over %d slots, %d batch, or %d requests queued over %d", step, m.run, m.p.capacity, m.p.batchCap, m.count(Interactive), m.p.queueCap)
	}
	if m.run[Interactive]+m.run[Batch] < m.p.capacity && (m.eligible(Interactive) || m.eligible(Batch)) {
		m.t.Fatalf("%s: a slot is free while an eligible claim waits (running %v)", step, m.run)
	}
}

// pick removes and returns a random element of *s.
func pick(rng *rand.Rand, s *[]*claim) *claim {
	i := rng.Intn(len(*s))
	c := (*s)[i]
	*s = slices.Delete(*s, i, i+1)
	return c
}

// TestPoolModel drives seeded join/release/abandon/cancel sequences over
// three tenants and both classes and, after every step, holds the pool to
// its model: within capacity, the batch cap and the request queue's bound,
// no eligible claim waiting beside a free slot, FIFO within each class and
// tenant, and neither class passed over twice in a row while both wait.
func TestPoolModel(t *testing.T) {
	tenants := []string{"", "a", "b"}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for capacity := 1; capacity <= 4; capacity++ {
		for seed := int64(1); seed <= 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m := &poolModel{t: t, p: NewPool(capacity, 3)}
			for i := 0; i < 300; i++ {
				step := fmt.Sprintf("capacity %d seed %d step %d", capacity, seed, i)
				switch op := rng.Intn(8); {
				case op < 4: // join
					c := &claim{class: Class(rng.Intn(2)), tenant: tenants[rng.Intn(len(tenants))]}
					if c.t = m.p.Join(c.class, c.tenant); c.t == nil {
						if c.class != Interactive || m.count(Interactive) != 3 {
							t.Fatalf("%s: class %d join refused with %d interactive queued", step, c.class, m.count(Interactive))
						}
						continue
					}
					m.queued = append(m.queued, c)
				case op < 6 && len(m.held) > 0: // release
					c := pick(rng, &m.held)
					m.run[c.class]--
					m.p.Release(c.class)
				case op == 6 && len(m.queued)+len(m.held) > 0: // abandon, racing a grant or not
					n := len(m.queued)
					if k := rng.Intn(n + len(m.held)); k < n {
						c := m.queued[k]
						m.queued = slices.Delete(m.queued, k, k+1)
						if !m.p.withdraw(c.t) {
							t.Fatalf("%s: withdraw of a queued claim lost to a grant", step)
						}
					} else {
						c := pick(rng, &m.held)
						if m.p.withdraw(c.t) {
							t.Fatalf("%s: withdraw of a granted claim won", step)
						}
						m.run[c.class]--
						m.p.Release(c.class)
					}
				case op == 7 && len(m.queued) > 0: // cancel a wait
					if c := pick(rng, &m.queued); c.t.Wait(dead) == nil {
						t.Fatalf("%s: a queued claim's wait survived its canceled context", step)
					}
				}
				m.settle(step)
			}
		}
	}
}
