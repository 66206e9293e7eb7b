package jobs

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/fairq"
)

// gatedExec records the tenant of each claim in order and blocks until
// the test feeds it a token, so claim order is fully deterministic.
type gatedExec struct {
	mu      sync.Mutex
	order   []string
	started chan string
	proceed chan struct{}
}

func newGatedExec() *gatedExec {
	return &gatedExec{
		started: make(chan string, 16),
		proceed: make(chan struct{}),
	}
}

func (g *gatedExec) exec(ctx context.Context, id string, spec *Spec, _ *Progress) (json.RawMessage, bool, error) {
	g.mu.Lock()
	g.order = append(g.order, spec.Tenant)
	g.mu.Unlock()
	g.started <- spec.Tenant
	select {
	case <-g.proceed:
	case <-ctx.Done():
	}
	return json.RawMessage(`{}`), false, nil
}

func (g *gatedExec) waitStart(t *testing.T) string {
	t.Helper()
	select {
	case tenant := <-g.started:
		return tenant
	case <-time.After(5 * time.Second):
		t.Fatal("no job claimed a slot in time")
		return ""
	}
}

// TestTenantRoundRobinClaimOrder pins the dispatch order: with one
// batch slot and tenant A's backlog queued ahead of tenant B's single job,
// the round-robin ring interleaves B instead of draining A first. A
// global-FIFO scheduler would run A,A,A,B.
func TestTenantRoundRobinClaimOrder(t *testing.T) {
	g := newGatedExec()
	m := openManager(t, t.TempDir(), g.exec, func(c *Config) { c.Slots = fairq.NewPool(2, 0) })

	a1 := submit(t, m, &Spec{Session: "s", Type: "analyze", Tenant: "A"})
	// Wait until a1 occupies the slot so the backlog below is queued
	// behind it deterministically.
	g.waitStart(t)
	ids := []string{a1}
	for _, tenant := range []string{"A", "A", "B"} {
		ids = append(ids, submit(t, m, &Spec{Session: "s", Type: "analyze", Tenant: tenant}))
	}

	// Release the slot one job at a time.
	for i := 0; i < len(ids); i++ {
		g.proceed <- struct{}{}
		if i < len(ids)-1 {
			g.waitStart(t)
		}
	}
	for _, id := range ids {
		waitState(t, m, id, StateDone)
	}

	g.mu.Lock()
	got := append([]string(nil), g.order...)
	g.mu.Unlock()
	want := []string{"A", "A", "B", "A"}
	if len(got) != len(want) {
		t.Fatalf("claim order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("claim order = %v, want %v (round-robin must interleave tenant B)", got, want)
		}
	}
}
