package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/netlist"
	"repro/internal/shard"
	"repro/internal/spef"
	"repro/internal/sta"
	"repro/internal/units"
	"repro/internal/wal"
	"repro/internal/workload"
)

// busPayload serializes a generated coupled bus into a create-session
// request body.
func busPayload(t *testing.T, name string, bits int, opts shard.OptionsSpec) CreateSessionRequest {
	t.Helper()
	g, err := workload.Bus(workload.BusSpec{Bits: bits, Segs: 2, WindowWidth: 80 * units.Pico})
	if err != nil {
		t.Fatal(err)
	}
	return payload(t, name, g, opts)
}

// payload serializes a generated design into a create-session request body.
func payload(t *testing.T, name string, g *workload.Generated, opts shard.OptionsSpec) CreateSessionRequest {
	t.Helper()
	var net, sp, win bytes.Buffer
	if err := netlist.Write(&net, g.Design); err != nil {
		t.Fatal(err)
	}
	if err := spef.Write(&sp, g.Paras); err != nil {
		t.Fatal(err)
	}
	if err := sta.WriteInputTiming(&win, g.Inputs); err != nil {
		t.Fatal(err)
	}
	return CreateSessionRequest{
		Name:    name,
		Netlist: net.String(),
		SPEF:    sp.String(),
		Timing:  win.String(),
		Options: opts,
	}
}

// namedFaults are the runtime faults every test server injects by session
// name: "slow…" sessions sleep 10ms on every victim, "flaky" panics on b1
// and "bad" on every net.
var namedFaults = chaos.SessionFaults{
	"slow*": {Sleep: []string{"*"}},
	"flaky": {Panic: []string{"b1"}},
	"bad":   {Panic: []string{"*"}},
}

// testFaults is a test server's fault seam: the named session faults, a
// chaos.StoreFaults spec on both journals' write paths and a
// chaos.JobFaults spec on every job attempt.
func testFaults(t *testing.T, store, job string) *Faults {
	t.Helper()
	jf, err := chaos.ParseJobFaults(job)
	if err != nil {
		t.Fatal(err)
	}
	f := &Faults{Prepare: namedFaults.Prepare, Store: storeHooks(t, store)}
	if jf != nil {
		f.Job = jf.Fire
	}
	return f
}

// storeHooks are the write-path hooks of a chaos.StoreFaults spec.
func storeHooks(t *testing.T, spec string) wal.Hooks {
	t.Helper()
	sf, err := chaos.ParseStoreFaults(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sf == nil {
		return wal.Hooks{}
	}
	return wal.Hooks{BeforeWrite: sf.BeforeWrite, BeforeSync: sf.BeforeSync, BeforeRename: sf.BeforeRename}
}

// newTestServer starts a server over cfg, with the named session faults
// unless cfg brings its own.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := mustNew(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// mustNew builds a Server for tests that drive the handler directly.
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Faults == nil {
		cfg.Faults = testFaults(t, "", "")
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func do(t *testing.T, method, url string, body any) (*http.Response, []byte) {
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

func wantErrKind(t *testing.T, data []byte, kind string) ErrorInfo {
	t.Helper()
	var eb ErrorBody
	if err := json.Unmarshal(data, &eb); err != nil {
		t.Fatalf("error body is not structured JSON: %v\n%s", err, data)
	}
	if eb.Error.Kind != kind {
		t.Fatalf("error kind = %q, want %q (%s)", eb.Error.Kind, kind, eb.Error.Message)
	}
	return eb.Error
}

func createSession(t *testing.T, base, name string, opts shard.OptionsSpec) {
	t.Helper()
	resp, data := do(t, "POST", base+"/v1/sessions", busPayload(t, name, 4, opts))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create %s: status %d: %s", name, resp.StatusCode, data)
	}
}

func TestServerBasicFlow(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createSession(t, ts.URL, "bus", shard.OptionsSpec{})

	// Duplicate name conflicts.
	resp, data := do(t, "POST", ts.URL+"/v1/sessions", busPayload(t, "bus", 4, shard.OptionsSpec{}))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create: status %d", resp.StatusCode)
	}
	wantErrKind(t, data, "conflict")

	// Iterate runs only as a job: there is no interactive route, and a
	// request to it builds nothing (the analyze below still rebuilds).
	if resp, _ = do(t, "POST", ts.URL+"/v1/sessions/bus/iterate", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("interactive iterate: status %d, want 404", resp.StatusCode)
	}

	// First analyze builds the engine.
	resp, data = do(t, "POST", ts.URL+"/v1/sessions/bus/analyze", AnalyzeRequest{Delay: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: status %d: %s", resp.StatusCode, data)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.Rebuilt || ar.Noise == nil || ar.Noise.Stats.Victims == 0 || ar.Delay == nil {
		t.Fatalf("analyze response: rebuilt=%v noise=%v delay=%v", ar.Rebuilt, ar.Noise, ar.Delay)
	}
	if strings.Contains(string(data), "NaN") || strings.Contains(string(data), "Inf") {
		t.Fatal("non-finite value in response JSON")
	}

	// Incremental reanalyze on the persistent session.
	resp, data = do(t, "POST", ts.URL+"/v1/sessions/bus/reanalyze",
		ReanalyzeRequest{Padding: map[string]float64{"b1": 5 * units.Pico}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reanalyze: status %d: %s", resp.StatusCode, data)
	}
	var rr AnalyzeResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Rebuilt || rr.ChangedNets == 0 {
		t.Fatalf("reanalyze: rebuilt=%v changed=%d", rr.Rebuilt, rr.ChangedNets)
	}

	// Report replays the cached last analysis.
	resp, data = do(t, "GET", ts.URL+"/v1/sessions/bus/report", nil)
	if resp.StatusCode != http.StatusOK || !json.Valid(data) {
		t.Fatalf("report: status %d", resp.StatusCode)
	}

	// Info and list agree.
	resp, data = do(t, "GET", ts.URL+"/v1/sessions/bus", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("info: status %d", resp.StatusCode)
	}
	var info SessionInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if !info.Analyzed || info.Victims == 0 {
		t.Fatalf("info = %+v", info)
	}
	resp, data = do(t, "GET", ts.URL+"/v1/sessions", nil)
	var list []SessionInfo
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != "bus" {
		t.Fatalf("list = %+v", list)
	}

	// Delete, then 404.
	resp, _ = do(t, "DELETE", ts.URL+"/v1/sessions/bus", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	resp, data = do(t, "GET", ts.URL+"/v1/sessions/bus", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("info after delete: status %d", resp.StatusCode)
	}
	wantErrKind(t, data, "not_found")
}

func TestServerBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Empty body.
	resp, data := do(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	wantErrKind(t, data, "bad_request")
	// Parser errors surface with line numbers.
	resp, data = do(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{
		Name:    "broken",
		Netlist: "module top\ngarbage here\n",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	ei := wantErrKind(t, data, "bad_request")
	if !strings.Contains(ei.Message, "line") {
		t.Fatalf("parser error without line number: %q", ei.Message)
	}
	// A negative threshold is refused before the session exists, by the
	// rule a sweep point's threshold is held to.
	resp, data = do(t, "POST", ts.URL+"/v1/sessions", busPayload(t, "neg", 4, shard.OptionsSpec{Threshold: -1}))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative threshold: status %d: %s", resp.StatusCode, data)
	}
	if ei := wantErrKind(t, data, "bad_request"); !strings.Contains(ei.Message, "bad threshold") {
		t.Fatalf("negative threshold: refused for another reason: %q", ei.Message)
	}
	if resp, _ = do(t, "GET", ts.URL+"/v1/sessions/neg", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("refused create left a session: status %d", resp.StatusCode)
	}
	// Bad padding values.
	createSession(t, ts.URL, "bus", shard.OptionsSpec{})
	resp, data = do(t, "POST", ts.URL+"/v1/sessions/bus/reanalyze",
		ReanalyzeRequest{Padding: map[string]float64{"b1": -1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative padding: status %d", resp.StatusCode)
	}
	wantErrKind(t, data, "bad_request")
	// Bad timeout query — on create too, which runs under the request
	// deadline like every other admitted endpoint. Each path gets a body it
	// would accept, and the message must name the timeout, so neither case
	// can pass on a body error.
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/sessions/bus/analyze?timeout=banana", nil},
		{"/v1/sessions?timeout=bogus", busPayload(t, "late", 4, shard.OptionsSpec{})},
	} {
		resp, data = do(t, "POST", ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad timeout on %s: status %d: %s", tc.path, resp.StatusCode, data)
		}
		if ei := wantErrKind(t, data, "bad_request"); !strings.Contains(ei.Message, "bad timeout") {
			t.Fatalf("bad timeout on %s: refused for another reason: %q", tc.path, ei.Message)
		}
	}
}

// TestReanalyzeBadPaddingMessageIsStable pins that a body with several bad
// nets is refused with one message, naming the alphabetically first net,
// however the decoded map happens to iterate.
// TestCreateRejectsInjectFault pins that faults are not a product
// surface: a create request carrying options.injectFault is refused like
// any request with an unknown field, and no session is made.
func TestCreateRejectsInjectFault(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, err := json.Marshal(busPayload(t, "s", 4, shard.OptionsSpec{}))
	if err != nil {
		t.Fatal(err)
	}
	body = bytes.Replace(body, []byte(`"options":{`), []byte(`"options":{"injectFault":"panic:*"`), 1)
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("create with injectFault: status %d: %s", resp.StatusCode, data)
	}
	if ei := wantErrKind(t, data, "bad_request"); !strings.Contains(ei.Message, "injectFault") {
		t.Fatalf("refused for another reason: %q", ei.Message)
	}
	if resp, _ := do(t, "GET", ts.URL+"/v1/sessions/s", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("refused create made a session: %d", resp.StatusCode)
	}
}

func TestReanalyzeBadPaddingMessageIsStable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createSession(t, ts.URL, "bus", shard.OptionsSpec{})
	body := ReanalyzeRequest{Padding: map[string]float64{"b2": -2, "b1": -1}}
	for i := 0; i < 20; i++ {
		resp, data := do(t, "POST", ts.URL+"/v1/sessions/bus/reanalyze", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("try %d: status %d: %s", i, resp.StatusCode, data)
		}
		if ei := wantErrKind(t, data, "bad_request"); !strings.Contains(ei.Message, `net "b1"`) {
			t.Fatalf("try %d: message %q does not name b1, the first bad net", i, ei.Message)
		}
	}
}

func TestServerLintRejection(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g, err := workload.Bus(workload.BusSpec{Bits: 4, Segs: 2, WindowWidth: 80 * units.Pico})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Inject(workload.Defects{MultiDriven: true}); err != nil {
		t.Fatal(err)
	}
	var net, sp bytes.Buffer
	if err := netlist.Write(&net, g.Design); err != nil {
		t.Fatal(err)
	}
	if err := spef.Write(&sp, g.Paras); err != nil {
		t.Fatal(err)
	}
	resp, data := do(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{
		Name: "defective", Netlist: net.String(), SPEF: sp.String(),
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	ei := wantErrKind(t, data, "lint_rejected")
	if len(ei.Lint) == 0 {
		t.Fatal("422 without lint findings")
	}
	found := false
	for _, d := range ei.Lint {
		if d.Severity == "error" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no error-severity finding in %+v", ei.Lint)
	}
}

// TestServerPanicFaultIsolation is the headline acceptance test: under
// panic fault injection one request fails with a structured error while a
// concurrent request on another session succeeds.
func TestServerPanicFaultIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 4})
	// FailFast turns the injected per-victim panic into an engine error for
	// the whole request — the hard-failure path.
	createSession(t, ts.URL, "bad", shard.OptionsSpec{FailFast: true})
	createSession(t, ts.URL, "good", shard.OptionsSpec{})

	var wg sync.WaitGroup
	type outcome struct {
		status int
		data   []byte
	}
	results := make([]outcome, 2)
	for i, name := range []string{"bad", "good"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := do(t, "POST", ts.URL+"/v1/sessions/"+name+"/analyze", nil)
			results[i] = outcome{resp.StatusCode, data}
		}()
	}
	wg.Wait()

	if results[0].status != http.StatusInternalServerError {
		t.Fatalf("bad session: status %d: %s", results[0].status, results[0].data)
	}
	ei := wantErrKind(t, results[0].data, "engine")
	if !strings.Contains(ei.Message, "panic") {
		t.Fatalf("engine error does not describe the panic: %q", ei.Message)
	}
	if results[1].status != http.StatusOK {
		t.Fatalf("good session: status %d: %s", results[1].status, results[1].data)
	}

	// The failed session is not wedged: fail-soft sessions on the same
	// design keep serving, and the bad session reports the failure again
	// (structured, not hung) on retry.
	resp, data := do(t, "POST", ts.URL+"/v1/sessions/bad/analyze", nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("bad session retry: status %d: %s", resp.StatusCode, data)
	}
	wantErrKind(t, data, "engine")
}

// TestServerRecoverBarrier exercises the handler-level panic barrier
// directly: a panicking handler becomes a structured 500 and the session
// named by the route is marked suspect.
func TestServerRecoverBarrier(t *testing.T) {
	s := mustNew(t, Config{})
	ss := &session{name: "victim"}
	s.sessions["victim"] = ss

	h := s.barrier(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	}))
	req := httptest.NewRequest("POST", "/v1/sessions/victim/analyze", nil)
	req.SetPathValue("name", "victim")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d", rec.Code)
	}
	ei := wantErrKind(t, rec.Body.Bytes(), "panic")
	if !strings.Contains(ei.Message, "handler exploded") || ei.Session != "victim" {
		t.Fatalf("error = %+v", ei)
	}
	if !ss.info(time.Now()).Suspect {
		t.Fatal("session not marked suspect after panic")
	}
}

// TestServerAdmissionShedding pins bounded admission: with one worker and
// a queue of one, a burst of slow requests sheds the overflow with 429 and
// a Retry-After hint instead of queueing unboundedly.
func TestServerAdmissionShedding(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})
	createSession(t, ts.URL, "slow", shard.OptionsSpec{})

	const burst = 6
	statuses := make([]int, burst)
	retryAfter := make([]string, burst)
	var wg sync.WaitGroup
	for i := range statuses {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequest("POST", ts.URL+"/v1/sessions/slow/analyze", nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}()
	}
	wg.Wait()

	ok, shed := 0, 0
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if retryAfter[i] != "1" {
				t.Fatalf("shed response Retry-After = %q, want 1", retryAfter[i])
			}
		default:
			t.Fatalf("unexpected status %d", st)
		}
	}
	// One runs, one queues, the rest shed. Exact counts depend on arrival
	// order, but with 6 requests against capacity 2 at least 4 must shed
	// and at least 1 must succeed.
	if ok < 1 || shed < 4 {
		t.Fatalf("ok=%d shed=%d, want >=1 ok and >=4 shed (statuses %v)", ok, shed, statuses)
	}
}

// TestServerDeadline pins deadline propagation: a client timeout tighter
// than the work cancels the engine run and maps to a structured 503.
func TestServerDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createSession(t, ts.URL, "slow", shard.OptionsSpec{})
	resp, data := do(t, "POST", ts.URL+"/v1/sessions/slow/analyze?timeout=20ms", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if ei := wantErrKind(t, data, "deadline"); !strings.HasPrefix(ei.Message, "analysis exceeded its deadline: ") || ei.Session != "slow" {
		t.Fatalf("deadline error = %+v, want the analysis-deadline message", ei)
	}
}

// TestServerBreaker pins the degradation circuit breaker: consecutive
// fail-soft degraded results trip the session to 503 until the cooldown
// elapses, after which it goes half-open.
func TestServerBreaker(t *testing.T) {
	clock := time.Now()
	var cfg Config
	cfg.now = func() time.Time { return clock }
	s := mustNew(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Fail-soft (default): the injected panic degrades one net per run,
	// returning a 200 with DegradedNets > 0 — exactly what the breaker
	// watches.
	createSession(t, ts.URL, "flaky", shard.OptionsSpec{})

	for i := 0; i < breakerTrips; i++ {
		resp, data := do(t, "POST", ts.URL+"/v1/sessions/flaky/analyze", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("degraded analyze %d: status %d: %s", i, resp.StatusCode, data)
		}
		var ar AnalyzeResponse
		if err := json.Unmarshal(data, &ar); err != nil {
			t.Fatal(err)
		}
		if ar.Noise.Stats.DegradedNets == 0 {
			t.Fatal("expected a degraded result")
		}
	}

	// The next request: breaker open.
	resp, data := do(t, "POST", ts.URL+"/v1/sessions/flaky/analyze", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	wantErrKind(t, data, "breaker_open")
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("breaker 503 without Retry-After")
	}

	// Info reflects the open breaker.
	_, data = do(t, "GET", ts.URL+"/v1/sessions/flaky", nil)
	var info SessionInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if !info.Breaker.Open || info.Breaker.ConsecutiveDegraded < breakerTrips {
		t.Fatalf("breaker info = %+v", info.Breaker)
	}

	// After the cooldown the breaker goes half-open: the probe request is
	// admitted (and, still degraded, re-trips it).
	clock = clock.Add(11 * time.Second)
	resp, data = do(t, "POST", ts.URL+"/v1/sessions/flaky/analyze", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("half-open probe: status %d: %s", resp.StatusCode, data)
	}
	resp, data = do(t, "POST", ts.URL+"/v1/sessions/flaky/analyze", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("re-trip: status %d: %s", resp.StatusCode, data)
	}
	wantErrKind(t, data, "breaker_open")
}

// TestServerLRUEviction pins the session cap: creating past MaxSessions
// evicts the least-recently-used idle session.
func TestServerLRUEviction(t *testing.T) {
	clock := time.Now()
	cfg := Config{MaxSessions: 2}
	cfg.now = func() time.Time { clock = clock.Add(time.Second); return clock }
	s := mustNew(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	createSession(t, ts.URL, "a", shard.OptionsSpec{})
	createSession(t, ts.URL, "b", shard.OptionsSpec{})
	// Touch "a" so "b" is the LRU.
	if resp, _ := do(t, "GET", ts.URL+"/v1/sessions/a", nil); resp.StatusCode != http.StatusOK {
		t.Fatal("touch a")
	}
	createSession(t, ts.URL, "c", shard.OptionsSpec{})

	resp, data := do(t, "GET", ts.URL+"/v1/sessions/b", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("LRU session b should be evicted: status %d: %s", resp.StatusCode, data)
	}
	for _, name := range []string{"a", "c"} {
		if resp, _ := do(t, "GET", ts.URL+"/v1/sessions/"+name, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("session %s should survive", name)
		}
	}
}

// TestServerSessionLimitBusy pins the no-evictable-session case: when
// every loaded session has requests in flight, a create is shed, not
// blocked.
func TestServerSessionLimitBusy(t *testing.T) {
	s := mustNew(t, Config{MaxSessions: 1})
	if err := s.insert(&session{name: "busy"}); err != nil {
		t.Fatalf("insert: %+v", err)
	}
	ss := s.retain("busy") // pin it the way an in-flight request does
	if ss == nil {
		t.Fatal("retain failed")
	}
	err := s.insert(&session{name: "second"})
	if err == nil || classify(err).Kind != "session_limit" {
		t.Fatalf("insert while busy = %+v, want session_limit", err)
	}
	// Once the request releases its pin the session is evictable again.
	s.releaseRef(ss)
	if err := s.insert(&session{name: "third"}); err != nil {
		t.Fatalf("insert after release: %+v", err)
	}
}

// TestServerDeleteBusySession pins the retain/delete interlock: a session
// with a request in flight refuses deletion with a retryable 409, so the
// request cannot complete against an orphaned session whose cached report
// would be unreachable.
func TestServerDeleteBusySession(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	createSession(t, ts.URL, "bus", shard.OptionsSpec{})
	ss := s.retain("bus") // pin it the way an in-flight request does
	resp, data := do(t, "DELETE", ts.URL+"/v1/sessions/bus", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("delete busy session: status %d: %s", resp.StatusCode, data)
	}
	wantErrKind(t, data, "busy")
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("busy 409 without Retry-After")
	}
	s.releaseRef(ss)
	if resp, _ := do(t, "DELETE", ts.URL+"/v1/sessions/bus", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete after release: status %d", resp.StatusCode)
	}
}

// TestServerAnalysisPanicReleasesSession pins the panic path of the
// serialized engine section: a panic inside the analysis work must release
// the session's busy slot on the way out, or every later request to the
// session would block forever waiting for it.
func TestServerAnalysisPanicReleasesSession(t *testing.T) {
	s := mustNew(t, Config{})
	if err := s.insert(&session{name: "p"}); err != nil {
		t.Fatalf("insert: %+v", err)
	}
	run := func(work func(context.Context, *session) (*answer, error)) *httptest.ResponseRecorder {
		h := s.barrier(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if err := s.analysis(w, r, work); err != nil {
				s.fail(w, err)
			}
		}))
		req := httptest.NewRequest("POST", "/v1/sessions/p/analyze?timeout=100ms", nil)
		req.SetPathValue("name", "p")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	rec := run(func(context.Context, *session) (*answer, error) { panic("work exploded") })
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking analysis: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	wantErrKind(t, rec.Body.Bytes(), "panic")

	// The busy slot and the eviction pin must both be free again: a second
	// analysis reaches its work function (engine 500) instead of timing
	// out against a wedged session (deadline 503).
	rec = run(func(context.Context, *session) (*answer, error) { return nil, errors.New("engine says no") })
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("post-panic analysis: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	wantErrKind(t, rec.Body.Bytes(), "engine")
	s.mu.Lock()
	refs := s.sessions["p"].refs
	s.mu.Unlock()
	if refs != 0 {
		t.Fatalf("refs = %d after both requests finished, want 0", refs)
	}
}

// TestServerSessionWaitRespectsDeadline pins cancellable per-session
// serialization: a request queued behind a long analysis of the same
// session sheds at its own deadline instead of pinning a worker
// uncancellably until the session frees.
func TestServerSessionWaitRespectsDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 4})
	// A 16-bit bus with per-net sleeps is hundreds of ms of serial work.
	resp, data := do(t, "POST", ts.URL+"/v1/sessions", busPayload(t, "slow", 16, shard.OptionsSpec{}))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, data)
	}
	ss := s.lookup("slow")

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(ts.URL+"/v1/sessions/slow/analyze", "application/json", nil)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(ss.busy) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never took the session")
		}
		time.Sleep(time.Millisecond)
	}

	resp, data = do(t, "POST", ts.URL+"/v1/sessions/slow/analyze?timeout=50ms", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued request: status %d: %s", resp.StatusCode, data)
	}
	ei := wantErrKind(t, data, "deadline")
	if ei.Message != "request deadline expired while waiting for the session" {
		t.Fatalf("deadline error = %q, want the session-wait message", ei.Message)
	}
	<-done
}

// TestSessionBreakerHalfOpenSingleProbe pins half-open arbitration: past
// the cooldown exactly one request is admitted as the probe, concurrent
// requests keep shedding until its outcome lands, a degraded probe
// re-trips immediately, and a clean probe closes the breaker for everyone.
func TestSessionBreakerHalfOpenSingleProbe(t *testing.T) {
	ss := &session{name: "x"}
	cooldown := breakerCooldown
	now := time.Now()
	for range breakerTrips {
		ss.recordOutcome(true, now)
	}
	if _, _, open := ss.breakerAdmit(now.Add(time.Second)); !open {
		t.Fatal("breaker should be open during the cooldown")
	}

	half := now.Add(cooldown + time.Second)
	if _, probe, open := ss.breakerAdmit(half); open || !probe {
		t.Fatalf("first half-open caller: probe=%v open=%v, want the single probe", probe, open)
	}
	if retry, probe, open := ss.breakerAdmit(half); !open || probe || retry != 0 {
		t.Fatalf("second half-open caller: retry=%v probe=%v open=%v, want shed with no wait of its own (fail supplies the default hint)", retry, probe, open)
	}

	// One degraded probe re-trips immediately — not after breakerTrips more.
	ss.recordOutcome(true, half)
	ss.probeRelease()
	if _, _, open := ss.breakerAdmit(half.Add(time.Second)); !open {
		t.Fatal("degraded probe must re-trip the breaker")
	}

	half2 := half.Add(cooldown + time.Second)
	if _, probe, open := ss.breakerAdmit(half2); open || !probe {
		t.Fatal("second probe not admitted after the re-trip cooldown")
	}
	ss.recordOutcome(false, half2)
	ss.probeRelease()
	if _, probe, open := ss.breakerAdmit(half2); open || probe {
		t.Fatal("clean probe must close the breaker")
	}
}

// TestServerDrainClean: SIGTERM semantics — in-flight work finishes within
// the budget, new work is refused, readiness flips, Drain reports clean.
func TestServerDrainClean(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	createSession(t, ts.URL, "slow", shard.OptionsSpec{})

	started := make(chan struct{})
	result := make(chan int, 1)
	go func() {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/sessions/slow/analyze", nil)
		close(started)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			result <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		result <- resp.StatusCode
	}()
	<-started
	// Wait for the request to actually be in flight.
	deadline := time.Now().Add(5 * time.Second)
	for s.inflightN.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never entered flight")
		}
		time.Sleep(time.Millisecond)
	}

	if !s.Drain(30 * time.Second) {
		t.Fatal("drain with generous budget should be clean")
	}
	if st := <-result; st != http.StatusOK {
		t.Fatalf("in-flight request during clean drain: status %d", st)
	}

	// Draining server refuses new work but stays live.
	resp, data := do(t, "POST", ts.URL+"/v1/sessions/slow/analyze", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain analyze: status %d", resp.StatusCode)
	}
	wantErrKind(t, data, "draining")
	if resp, _ := do(t, "GET", ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatal("healthz must stay 200 while draining")
	}
	resp, data = do(t, "GET", ts.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: status %d", resp.StatusCode)
	}
	var ready ReadyResponse
	if err := json.Unmarshal(data, &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Status != "draining" {
		t.Fatalf("readyz status = %q", ready.Status)
	}
}

// TestServerDrainForced: when in-flight work exceeds the budget, Drain
// cancels it through the request context and reports a forced drain; the
// cancelled request still gets a structured response.
func TestServerDrainForced(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// A 16-bit bus with per-net sleeps is hundreds of ms of work — far
	// beyond the 10ms budget.
	resp, data := do(t, "POST", ts.URL+"/v1/sessions", busPayload(t, "slow", 16, shard.OptionsSpec{}))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, data)
	}

	result := make(chan struct {
		status int
		body   []byte
	}, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sessions/slow/analyze", "application/json", nil)
		if err != nil {
			result <- struct {
				status int
				body   []byte
			}{-1, nil}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		result <- struct {
			status int
			body   []byte
		}{resp.StatusCode, body}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.inflightN.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never entered flight")
		}
		time.Sleep(time.Millisecond)
	}

	if s.Drain(10 * time.Millisecond) {
		t.Fatal("drain should report forced, not clean")
	}
	r := <-result
	if r.status != http.StatusServiceUnavailable {
		t.Fatalf("cancelled request: status %d: %s", r.status, r.body)
	}
	ei := wantErrKind(t, r.body, "canceled")
	if ei.Session != "slow" {
		t.Fatalf("cancelled error = %+v", ei)
	}
}

// TestServerFailSoftDegradedResponse: the default fail-soft path returns a
// 200 whose body carries the degradation report — per-victim panics do not
// fail the query.
func TestServerFailSoftDegradedResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createSession(t, ts.URL, "flaky", shard.OptionsSpec{})
	resp, data := do(t, "POST", ts.URL+"/v1/sessions/flaky/analyze", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Noise.Stats.DegradedNets != 1 || len(ar.Noise.Degradations) != 1 {
		t.Fatalf("degradations = %+v (stats %+v)", ar.Noise.Degradations, ar.Noise.Stats)
	}
	d := ar.Noise.Degradations[0]
	if d.Net != "b1" || !d.Degraded || !strings.Contains(d.Error, "panic") {
		t.Fatalf("degradation = %+v", d)
	}
}

var _ = fmt.Sprintf // keep fmt linked for debug edits

// readySnapshot and listSnapshot hold the registry lock with a deferred
// unlock (a panic mid-probe must not wedge every later request — the
// session-wedge incident class) and return name-sorted results, so
// /readyz and the session list are byte-stable regardless of map
// iteration order. Enforced statically by deferrelease and mapdeterm;
// this pins the runtime behavior.
func TestSnapshotsSortedAndDeterministic(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	future := time.Now().Add(time.Hour)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		s.sessions[name] = &session{name: name, trippedUntil: future}
	}
	for i := 0; i < 5; i++ {
		n, open := s.readySnapshot()
		if n != 3 || !slicesEqual(open, []string{"alpha", "mid", "zeta"}) {
			t.Fatalf("readySnapshot = %d %v, want 3 sorted names", n, open)
		}
		infos, loaded := s.listSnapshot()
		if len(infos) != 3 || len(loaded) != 3 {
			t.Fatalf("listSnapshot = %d infos, %d loaded", len(infos), len(loaded))
		}
		for j, want := range []string{"alpha", "mid", "zeta"} {
			if infos[j].Name != want {
				t.Fatalf("infos[%d] = %q, want %q", j, infos[j].Name, want)
			}
		}
	}
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
