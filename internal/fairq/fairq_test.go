package fairq

import (
	"math/rand"
	"slices"
	"testing"
)

// check asserts the ring's structural invariant: a tenant holds exactly
// one rotation slot while it has queued entries and none otherwise, and
// the entry count matches the queues.
func check(t *testing.T, r *ring[int]) {
	t.Helper()
	n := 0
	for tenant, q := range r.queues {
		if len(q) == 0 {
			t.Fatalf("tenant %q left an empty queue behind", tenant)
		}
		if c := count(r.ring, tenant); c != 1 {
			t.Fatalf("tenant %q with %d queued holds %d rotation slots: %v", tenant, len(q), c, r.ring)
		}
		n += len(q)
	}
	if len(r.ring) != len(r.queues) || n != r.Len() {
		t.Fatalf("ring %v over %d queue(s); Len %d, counted %d", r.ring, len(r.queues), r.Len(), n)
	}
}

func count(s []string, v string) (n int) {
	for _, x := range s {
		if x == v {
			n++
		}
	}
	return n
}

func pop(t *testing.T, r *ring[int]) (string, int) {
	t.Helper()
	tenant, v, ok := r.Pop()
	if !ok {
		t.Fatal("Pop found nothing queued")
	}
	return tenant, v
}

func TestRoundRobinAcrossTenantsFIFOWithin(t *testing.T) {
	r := newRing[int]()
	for i, tenant := range []string{"bulk", "bulk", "bulk", "live", "bulk", "live"} {
		r.Push(tenant, i)
	}
	var got []int
	for r.Len() > 0 {
		_, v := pop(t, r)
		got = append(got, v)
		check(t, r)
	}
	// bulk and live alternate while both have entries; each tenant's own
	// entries stay in push order.
	if want := []int{0, 3, 1, 5, 2, 4}; !slices.Equal(got, want) {
		t.Fatalf("pop order = %v, want %v", got, want)
	}
}

// TestRemoveIsEager: an entry that leaves the queue leaves the rotation
// in the same call, and the rotation keeps its place.
func TestRemoveIsEager(t *testing.T) {
	r := newRing[int]()
	for i, tenant := range []string{"a", "b", "c"} {
		r.Push(tenant, i)
		r.Push(tenant, 10+i)
	}
	if tenant, _ := pop(t, r); tenant != "a" {
		t.Fatalf("first pop from %s", tenant)
	}
	// a (already served this round) withdraws its last entry: the next
	// pop must still be b's, not skip to c.
	if !r.Remove("a", 10) || r.Remove("a", 10) || r.Remove("zz", 1) {
		t.Fatal("Remove must report exactly whether the entry was queued")
	}
	check(t, r)
	if len(r.ring) != 2 || len(r.queues["a"]) != 0 {
		t.Fatalf("drained tenant still in rotation: %v", r.ring)
	}
	if tenant, v := pop(t, r); tenant != "b" || v != 1 {
		t.Fatalf("pop after remove = %s/%d, want b/1", tenant, v)
	}
}

// TestChurnKeepsInvariant drives a seeded mix of pushes, pops and
// removes — including the drain-then-refill pattern that once grew
// a duplicate rotation slot per cycle — and checks the invariant after
// every step.
func TestChurnKeepsInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tenants := []string{"", "a", "b", "c"}
	r := newRing[int]()
	queued := map[int]string{}
	for i := 0; i < 5000; i++ {
		switch rng.Intn(3) {
		case 0:
			tenant := tenants[rng.Intn(len(tenants))]
			r.Push(tenant, i)
			queued[i] = tenant
		case 1:
			if tenant, v, ok := r.Pop(); ok {
				if queued[v] != tenant {
					t.Fatalf("popped %d for %q, pushed for %q", v, tenant, queued[v])
				}
				delete(queued, v)
			}
		case 2:
			// The oldest queued entry, so the run is the same every time.
			for v := 0; v < i; v++ {
				if tenant, ok := queued[v]; ok {
					if !r.Remove(tenant, v) {
						t.Fatalf("queued entry %d not removable", v)
					}
					delete(queued, v)
					break
				}
			}
		}
		check(t, r)
		if r.Len() != len(queued) {
			t.Fatalf("step %d: Len %d, model %d", i, r.Len(), len(queued))
		}
	}
}
