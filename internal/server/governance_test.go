package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bind"
	"repro/internal/shard"
)

// doTenant is do with an X-Snad-Tenant header attached.
func doTenant(t *testing.T, method, url, tenant string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// waitFor polls cond until true or a generous deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSharedDesignCache pins the tentpole's sharing contract: two
// sessions over byte-identical sources bind ONE design (pointer identity
// in the cache), and deleting one must not unbind the other.
func TestSharedDesignCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	p := busPayload(t, "a", 4, shard.OptionsSpec{})
	resp, data := do(t, "POST", ts.URL+"/v1/sessions", p)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create a: %d: %s", resp.StatusCode, data)
	}
	p.Name = "b" // same sources, different name
	resp, data = do(t, "POST", ts.URL+"/v1/sessions", p)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create b: %d: %s", resp.StatusCode, data)
	}

	s.mu.Lock()
	ea, eb := s.sessions["a"].entry, s.sessions["b"].entry
	s.mu.Unlock()
	if ea == nil || ea != eb {
		t.Fatalf("sessions over identical sources must share one cache entry (a=%p b=%p)", ea, eb)
	}
	cs := s.cache.stats()
	if cs.Entries != 1 || cs.Misses != 1 || cs.Hits != 1 {
		t.Fatalf("cache stats = %+v, want 1 entry, 1 miss, 1 hit", cs)
	}

	// Deleting a releases its reference but must not unbind b.
	resp, data = do(t, "DELETE", ts.URL+"/v1/sessions/a", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete a: %d: %s", resp.StatusCode, data)
	}
	resp, data = do(t, "POST", ts.URL+"/v1/sessions/b/analyze", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze b after deleting a: %d: %s", resp.StatusCode, data)
	}
	cs = s.cache.stats()
	if cs.Entries != 1 || cs.Referenced != 1 {
		t.Fatalf("after delete: stats = %+v, want the shared entry still resident and referenced", cs)
	}
}

// TestMemBudgetShedEvictRecover measures two designs, then sizes the
// budget so either fits alone but not both: the second create must shed
// 503 "budget" with Retry-After, and after the first session is deleted
// the same create must succeed by evicting the now-idle design.
func TestMemBudgetShedEvictRecover(t *testing.T) {
	// Measure on an unbudgeted server.
	m, mts := newTestServer(t, Config{})
	resp, data := do(t, "POST", mts.URL+"/v1/sessions", busPayload(t, "m4", 4, shard.OptionsSpec{}))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("measure m4: %d: %s", resp.StatusCode, data)
	}
	sizeA := m.cache.stats().Charged
	resp, data = do(t, "POST", mts.URL+"/v1/sessions", busPayload(t, "m6", 6, shard.OptionsSpec{}))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("measure m6: %d: %s", resp.StatusCode, data)
	}
	sizeB := m.cache.stats().Charged - sizeA
	if sizeA <= 0 || sizeB <= 0 {
		t.Fatalf("design sizes = %d, %d; MemBytes estimators broken?", sizeA, sizeB)
	}

	s, ts := newTestServer(t, Config{MemBudget: sizeA + sizeB - 1})
	resp, data = do(t, "POST", ts.URL+"/v1/sessions", busPayload(t, "a", 4, shard.OptionsSpec{}))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create a: %d: %s", resp.StatusCode, data)
	}

	// b does not fit beside the referenced a: 503 kind "budget" with a
	// well-formed Retry-After.
	resp, data = do(t, "POST", ts.URL+"/v1/sessions", busPayload(t, "b", 6, shard.OptionsSpec{}))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-budget create: %d: %s", resp.StatusCode, data)
	}
	wantErrKind(t, data, "budget")
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra <= 0 {
		t.Fatalf("budget shed Retry-After = %q, want positive integer seconds", resp.Header.Get("Retry-After"))
	}
	if cs := s.cache.stats(); cs.BudgetSheds == 0 {
		t.Fatalf("stats = %+v, want a budget shed counted", cs)
	}

	// Delete a → its design goes idle → the retried create evicts it.
	resp, data = do(t, "DELETE", ts.URL+"/v1/sessions/a", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete a: %d: %s", resp.StatusCode, data)
	}
	resp, data = do(t, "POST", ts.URL+"/v1/sessions", busPayload(t, "b", 6, shard.OptionsSpec{}))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create b after delete: %d: %s", resp.StatusCode, data)
	}
	cs := s.cache.stats()
	if cs.Evictions == 0 || cs.Charged > s.cache.budget {
		t.Fatalf("stats = %+v, want an idle eviction and charged <= budget", cs)
	}
}

// TestSingleFlightRevive is the re-materialization stampede regression:
// N concurrent requests hit a session that was LRU-evicted (and whose
// design was dropped from the cache), and the slow parse/lint/bind must
// run exactly once — every other request coalesces onto it.
func TestSingleFlightRevive(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{DataDir: dir, MaxSessions: 1, MaxConcurrent: 8, QueueDepth: 32})
	resp, data := do(t, "POST", ts.URL+"/v1/sessions", busPayload(t, "a", 4, shard.OptionsSpec{}))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create a: %d: %s", resp.StatusCode, data)
	}
	// Creating b LRU-evicts the idle session a (MaxSessions 1); a's spec
	// stays on disk.
	resp, data = do(t, "POST", ts.URL+"/v1/sessions", busPayload(t, "b", 5, shard.OptionsSpec{}))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create b: %d: %s", resp.StatusCode, data)
	}
	// Drop a's now-idle design from the cache so the revive is a true
	// rebuild, not a warm hit.
	s.cache.mu.Lock()
	for k, e := range s.cache.entries {
		if e.refs == 0 {
			delete(s.cache.entries, k)
			s.cache.charged -= e.bytes
		}
	}
	s.cache.mu.Unlock()

	// Count builds and slow them down so the stampede window is wide. Set
	// before any goroutine fires; acquire reads it under the cache mutex.
	var builds atomic.Int32
	s.cache.buildHook = func() {
		builds.Add(1)
		time.Sleep(100 * time.Millisecond)
	}

	const N = 8
	var wg sync.WaitGroup
	codes := make([]int, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := do(t, "POST", ts.URL+"/v1/sessions/a/analyze", nil)
			codes[i] = resp.StatusCode
			if resp.StatusCode != http.StatusOK {
				t.Logf("analyze %d: %d: %s", i, resp.StatusCode, data)
			}
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("concurrent revive request %d: status %d", i, c)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("builds = %d, want exactly 1 (single-flight)", n)
	}
}

// TestCoalescedAcquireHonorsCancel pins the waiter-withdrawal contract:
// an acquire that coalesces onto an in-flight build and whose context
// expires mid-build must return a "canceled" shed instead of blocking
// until the build finishes — and the builder must not grant the departed
// waiter a reference.
func TestCoalescedAcquireHonorsCancel(t *testing.T) {
	req := busPayload(t, "a", 4, shard.OptionsSpec{})
	spec := req.design()
	key := keysOf(spec).design
	c := newDesignCache(0, time.Now, t.Logf)
	started := make(chan struct{})
	unblock := make(chan struct{})
	c.buildHook = func() { close(started); <-unblock }
	build := func() (*bind.Design, error) { return buildDesign(spec, nil) }

	var e1 *designEntry
	var err1 error
	builderDone := make(chan struct{})
	go func() {
		defer close(builderDone)
		e1, err1 = c.acquire(context.Background(), key, 0, build)
	}()
	<-started // the build call is registered and parked in the hook

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e2, err2 := c.acquire(ctx, key, 0, build) // coalesces, then withdraws
	if e2 != nil || err2 == nil || classify(err2).Kind != "canceled" {
		t.Fatalf("canceled waiter: entry=%v err=%+v, want nil entry and kind \"canceled\"", e2, err2)
	}

	close(unblock)
	<-builderDone
	if err1 != nil || e1 == nil {
		t.Fatalf("builder: entry=%v err=%+v, want a successful build", e1, err1)
	}
	c.mu.Lock()
	refs := e1.refs
	c.mu.Unlock()
	if refs != 1 {
		t.Fatalf("entry refs = %d, want 1 (the withdrawn waiter must not hold a reference)", refs)
	}
	c.release(e1) // must not underflow: exactly the builder's reference remains
}

// TestTenantStarvation drives a bulk tenant that floods the one-worker
// gate with analyses and asserts an interactive tenant still gets through
// promptly — round-robin dispatch, not FIFO behind the flood. Each bulk
// analysis holds in its b0's preparation until the test hands it a
// release, and releases go out one at a time until the live request
// returns. With one slot, the bulk analyses done before live's own b0 is
// prepared are the ones done before it finishes: the count is the
// dispatch order, not a race against the clock.
func TestTenantStarvation(t *testing.T) {
	const bulkN = 10
	release := make(chan struct{})
	var released, doneWhenLiveFinished atomic.Int32
	hold := func(session, net string) error {
		switch {
		case net != "b0":
		case strings.HasPrefix(session, "bulk-"):
			<-release
			released.Add(1)
		case session == "fast":
			doneWhenLiveFinished.Store(released.Load())
		}
		return nil
	}
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 64, MaxSessions: bulkN + 4, Faults: &Faults{Prepare: hold}})
	// Each client gets its own session so EVERY analyze is a first
	// analysis that prepares b0 — a shared session would be incremental
	// after the first one. The live session is a 4-bit bus.
	bulk := busPayload(t, "", 16, shard.OptionsSpec{})
	for i := 0; i < bulkN; i++ {
		bulk.Name = fmt.Sprintf("bulk-%d", i)
		resp, data := do(t, "POST", ts.URL+"/v1/sessions", bulk)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: %d: %s", bulk.Name, resp.StatusCode, data)
		}
	}
	createSession(t, ts.URL, "fast", shard.OptionsSpec{})

	var wg sync.WaitGroup
	for i := 0; i < bulkN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			doTenant(t, "POST", ts.URL+"/v1/sessions/bulk-"+strconv.Itoa(i)+"/analyze", "bulk", nil)
		}(i)
	}
	// Fire live only once the whole flood is in the gate — one bulk
	// running, nine queued — so the dispatch order is deterministic.
	waitFor(t, func() bool {
		running, queued := s.gate.snapshot()
		return running == 1 && queued == bulkN-1
	})
	liveDone := make(chan struct{})
	var resp *http.Response
	var data []byte
	go func() {
		defer close(liveDone)
		resp, data = doTenant(t, "POST", ts.URL+"/v1/sessions/fast/analyze", "live", nil)
	}()
	waitFor(t, func() bool {
		_, queued := s.gate.snapshot()
		return queued == bulkN
	})
	for live := false; !live; {
		select {
		case release <- struct{}{}:
		case <-liveDone:
			live = true
		}
	}
	close(release)
	wg.Wait()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live analyze under flood: %d: %s", resp.StatusCode, data)
	}
	// Round-robin admits live after at most a couple of bulk slots (the
	// running one plus one ring rotation); global FIFO would make it
	// wait out the entire nine-deep backlog.
	if n := doneWhenLiveFinished.Load(); n > 4 {
		t.Fatalf("live request waited behind %d of %d bulk requests — starved behind the flood", n, bulkN)
	}
}

// TestShedPathsCarryRetryAfter is the shed-consistency table: every
// refusal the server can emit under load — admission queue full, memory
// budget, draining, breaker, session cap, storage failure, job queue
// full, an expired deadline, a forced-drain cancel, a delete racing a
// request — must be a 429/503 (409 for busy) with a positive integer
// Retry-After and a structured JSON error body of the right kind.
func TestShedPathsCarryRetryAfter(t *testing.T) {
	cases := []struct {
		name       string
		wantStatus int
		wantKind   string
		fire       func(t *testing.T) (*http.Response, []byte)
	}{
		{
			name: "admission queue full", wantStatus: http.StatusTooManyRequests, wantKind: "overloaded",
			fire: func(t *testing.T) (*http.Response, []byte) {
				s, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})
				createSession(t, ts.URL, "slow", shard.OptionsSpec{})
				var wg sync.WaitGroup
				for i := 0; i < 2; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						do(t, "POST", ts.URL+"/v1/sessions/slow/analyze", nil)
					}()
				}
				t.Cleanup(wg.Wait)
				waitFor(t, func() bool {
					running, queued := s.gate.snapshot()
					return running == 1 && queued == 1
				})
				return do(t, "POST", ts.URL+"/v1/sessions/slow/analyze", nil)
			},
		},
		{
			name: "memory budget", wantStatus: http.StatusServiceUnavailable, wantKind: "budget",
			fire: func(t *testing.T) (*http.Response, []byte) {
				_, ts := newTestServer(t, Config{MemBudget: 1})
				return do(t, "POST", ts.URL+"/v1/sessions", busPayload(t, "a", 4, shard.OptionsSpec{}))
			},
		},
		{
			name: "draining", wantStatus: http.StatusServiceUnavailable, wantKind: "draining",
			fire: func(t *testing.T) (*http.Response, []byte) {
				s, ts := newTestServer(t, Config{})
				s.Drain(time.Second)
				return do(t, "POST", ts.URL+"/v1/sessions", busPayload(t, "a", 4, shard.OptionsSpec{}))
			},
		},
		{
			name: "breaker open", wantStatus: http.StatusServiceUnavailable, wantKind: "breaker_open",
			fire: func(t *testing.T) (*http.Response, []byte) {
				_, ts := newTestServer(t, Config{})
				// Fail-soft degrades one net per run; breakerTrips degraded
				// results in a row trip the breaker.
				createSession(t, ts.URL, "flaky", shard.OptionsSpec{})
				for range breakerTrips {
					resp, data := do(t, "POST", ts.URL+"/v1/sessions/flaky/analyze", nil)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("degraded analyze: %d: %s", resp.StatusCode, data)
					}
				}
				return do(t, "POST", ts.URL+"/v1/sessions/flaky/analyze", nil)
			},
		},
		{
			name: "session cap with all sessions busy", wantStatus: http.StatusServiceUnavailable, wantKind: "session_limit",
			fire: func(t *testing.T) (*http.Response, []byte) {
				s, ts := newTestServer(t, Config{MaxSessions: 1, MaxConcurrent: 2, QueueDepth: 4})
				createSession(t, ts.URL, "slow", shard.OptionsSpec{})
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					do(t, "POST", ts.URL+"/v1/sessions/slow/analyze", nil)
				}()
				t.Cleanup(wg.Wait)
				waitFor(t, func() bool {
					s.mu.Lock()
					defer s.mu.Unlock()
					ss := s.sessions["slow"]
					return ss != nil && ss.refs > 0
				})
				return do(t, "POST", ts.URL+"/v1/sessions", busPayload(t, "b", 4, shard.OptionsSpec{}))
			},
		},
		{
			name: "storage failure", wantStatus: http.StatusServiceUnavailable, wantKind: "storage",
			fire: func(t *testing.T) (*http.Response, []byte) {
				_, ts := newTestServer(t, Config{DataDir: t.TempDir(), Faults: testFaults(t, "enospc:append:1", "")})
				return do(t, "POST", ts.URL+"/v1/sessions", busPayload(t, "a", 4, shard.OptionsSpec{}))
			},
		},
		{
			name: "job queue full", wantStatus: http.StatusTooManyRequests, wantKind: "overloaded",
			fire: func(t *testing.T) (*http.Response, []byte) {
				s, ts := newTestServer(t, Config{MaxConcurrent: 2, JobQueueDepth: 1})
				createSession(t, ts.URL, "slow", shard.OptionsSpec{})
				submit := map[string]string{"session": "slow", "type": "analyze"}
				for i := 0; i < 2; i++ {
					resp, data := do(t, "POST", ts.URL+"/v1/jobs", submit)
					if resp.StatusCode != http.StatusAccepted {
						t.Fatalf("submit %d: %d: %s", i, resp.StatusCode, data)
					}
				}
				waitFor(t, func() bool {
					jm := s.jobs.MetricsSnapshot()
					return jm.Running == 1 && jm.Queued == 1
				})
				return do(t, "POST", ts.URL+"/v1/jobs", submit)
			},
		},
		{
			name: "analysis past its deadline", wantStatus: http.StatusServiceUnavailable, wantKind: "deadline",
			fire: func(t *testing.T) (*http.Response, []byte) {
				_, ts := newTestServer(t, Config{})
				createSession(t, ts.URL, "slow", shard.OptionsSpec{})
				return do(t, "POST", ts.URL+"/v1/sessions/slow/analyze?timeout=5ms", nil)
			},
		},
		{
			// The forced drain cancels an analysis mid-work; its client is
			// still connected and reads a refusal it can take elsewhere.
			name: "analysis canceled by the forced drain", wantStatus: http.StatusServiceUnavailable, wantKind: "canceled",
			fire: func(t *testing.T) (*http.Response, []byte) {
				s, ts := newTestServer(t, Config{})
				resp, data := do(t, "POST", ts.URL+"/v1/sessions", busPayload(t, "slow", 16, shard.OptionsSpec{}))
				if resp.StatusCode != http.StatusCreated {
					t.Fatalf("create: %d: %s", resp.StatusCode, data)
				}
				ss := s.lookup("slow")
				drained := make(chan struct{})
				go func() {
					defer close(drained)
					for i := 0; len(ss.busy) == 0 && i < 5000; i++ {
						time.Sleep(time.Millisecond)
					}
					s.Drain(time.Millisecond)
				}()
				t.Cleanup(func() { <-drained })
				return do(t, "POST", ts.URL+"/v1/sessions/slow/analyze", nil)
			},
		},
		{
			name: "delete racing a request", wantStatus: http.StatusConflict, wantKind: "busy",
			fire: func(t *testing.T) (*http.Response, []byte) {
				s, ts := newTestServer(t, Config{})
				createSession(t, ts.URL, "bus", shard.OptionsSpec{})
				ss := s.retain("bus") // pin it the way an in-flight request does
				t.Cleanup(func() { s.releaseRef(ss) })
				return do(t, "DELETE", ts.URL+"/v1/sessions/bus", nil)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := tc.fire(t)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.wantStatus, data)
			}
			wantErrKind(t, data, tc.wantKind)
			ra := resp.Header.Get("Retry-After")
			if secs, err := strconv.Atoi(ra); err != nil || secs <= 0 {
				t.Fatalf("Retry-After = %q, want positive integer seconds", ra)
			}
		})
	}
}

// TestJobsStateFilter covers GET /v1/jobs?state=: valid states filter,
// states with no members return empty lists, and an unknown state is a
// 400 — the snad jobs -state flag rides on this.
func TestJobsStateFilter(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createSession(t, ts.URL, "bus", shard.OptionsSpec{})
	// One job that completes, one against a missing session that fails.
	for _, sess := range []string{"bus", "ghost"} {
		resp, data := do(t, "POST", ts.URL+"/v1/jobs", map[string]string{"session": sess, "type": "analyze"})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: %d: %s", sess, resp.StatusCode, data)
		}
	}
	listState := func(state string) int {
		_, data := do(t, "GET", ts.URL+"/v1/jobs?state="+state, nil)
		var out JobsResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("state=%s: %v: %s", state, err, data)
		}
		for _, j := range out.Jobs {
			if state != "quarantined" && j.State != state {
				t.Fatalf("state=%s returned job in state %s", state, j.State)
			}
		}
		return len(out.Jobs)
	}
	waitFor(t, func() bool {
		return listState("done") == 1 && listState("failed") == 1
	})
	for state, want := range map[string]int{"done": 1, "failed": 1, "queued": 0, "running": 0, "canceled": 0, "quarantined": 0} {
		if got := listState(state); got != want {
			t.Fatalf("state=%s returned %d jobs, want %d", state, got, want)
		}
	}

	resp, data := do(t, "GET", ts.URL+"/v1/jobs?state=bogus", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus state: %d: %s", resp.StatusCode, data)
	}
	wantErrKind(t, data, "bad_request")
}
