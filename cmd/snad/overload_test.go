package main

// The overload contract: whatever the load, every reply snad sends is a
// success or an honest refusal — one the caller may retry, saying when —
// and a job that does not end done says why. The test drives a real server
// process past every limit it has at once and reads each reply against
// that contract, then requires a clean drain.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/report"
	"repro/internal/server"
)

// classify reads one reply against the contract. A success (2xx) must
// decode into out when out is non-nil; anything else must be the error
// envelope with a kind the server's table marks retryable, a 429 or 503
// status, and a Retry-After of whole seconds. It returns the refusal's kind
// ("" for a success) and a non-nil error for a violation.
func classify(status int, header http.Header, body []byte, out any) (kind string, err error) {
	if status < 300 {
		if out != nil {
			if err := json.Unmarshal(body, out); err != nil {
				return "", fmt.Errorf("%d reply does not decode: %v", status, err)
			}
		}
		return "", nil
	}
	var eb server.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		return "", fmt.Errorf("%d reply is not an error envelope: %v", status, err)
	}
	kind = eb.Error.Kind
	retry, known := server.Retryable(kind)
	switch {
	case !known:
		return kind, fmt.Errorf("%d %q: a kind the table does not know", status, kind)
	case !retry || (status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable):
		return kind, fmt.Errorf("%d %q: not a retryable refusal: %s", status, kind, eb.Error.Message)
	}
	if secs, err := strconv.Atoi(header.Get("Retry-After")); err != nil || secs <= 0 {
		return kind, fmt.Errorf("%d %q without a usable Retry-After (%q)", status, kind, header.Get("Retry-After"))
	}
	return kind, nil
}

// loadRun tallies the replies of one load run.
type loadRun struct {
	http *http.Client
	base string

	mu         sync.Mutex
	ok         int
	sheds      map[string]int // by "op kind"
	flagged    int            // jobs that ended other than done, cause stated
	violations []string
}

func (l *loadRun) violate(format string, args ...any) {
	l.mu.Lock()
	l.violations = append(l.violations, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// do sends one request as tenant and tallies its reply under op. It
// reports the refusal's kind ("" for a success) and false for a violation.
// A refused caller backs off briefly before its next request.
func (l *loadRun) do(op, method, path, tenant string, body, out any) (kind string, ok bool) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			panic(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, l.base+path, rd)
	if err != nil {
		panic(err)
	}
	req.Header.Set(server.TenantHeader, tenant)
	resp, err := l.http.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err == nil {
		kind, err = classify(resp.StatusCode, resp.Header, data, out)
	}
	if err != nil {
		l.violate("%s %s: %v", op, path, err)
		return kind, false
	}
	l.mu.Lock()
	if kind == "" {
		l.ok++
	} else {
		l.sheds[op+" "+kind]++
	}
	l.mu.Unlock()
	if kind != "" {
		time.Sleep(2 * time.Millisecond)
	}
	return kind, true
}

// analyze is one interactive analysis of a session.
func (l *loadRun) analyze(tenant, session string) {
	var resp server.AnalyzeResponse
	if kind, ok := l.do("analyze", "POST", "/v1/sessions/"+session+"/analyze", tenant, nil, &resp); ok && kind == "" && resp.Noise == nil {
		l.violate("analyze %s: a success without a noise section", session)
	}
}

// job submits an iterate job on a session and polls it until it ends.
func (l *loadRun) job(tenant, session string) {
	var snap report.JobJSON
	if kind, ok := l.do("submit", "POST", "/v1/jobs", tenant, jobs.Spec{Session: session, Type: "iterate", Local: true}, &snap); !ok || kind != "" {
		return
	}
	for deadline := time.Now().Add(30 * time.Second); !snap.Terminal(); {
		if time.Now().After(deadline) {
			l.violate("job %s still %s after 30s", snap.ID, snap.State)
			return
		}
		time.Sleep(5 * time.Millisecond)
		if _, ok := l.do("job", "GET", "/v1/jobs/"+snap.ID, tenant, nil, &snap); !ok {
			return
		}
	}
	switch {
	case snap.State == string(jobs.StateDone):
	case snap.Error != "" || snap.Quarantined:
		l.mu.Lock()
		l.flagged++
		l.mu.Unlock()
	default:
		l.violate("job %s ended %s with no cause", snap.ID, snap.State)
	}
}

// churn creates a session over design, analyzes it once and deletes it.
func (l *loadRun) churn(tenant, name string, design server.CreateSessionRequest) {
	design.Name = name
	if kind, ok := l.do("create", "POST", "/v1/sessions", tenant, &design, &server.SessionInfo{}); !ok || kind != "" {
		return
	}
	l.analyze(tenant, name)
	for range 100 {
		if kind, ok := l.do("delete", "DELETE", "/v1/sessions/"+name, tenant, nil, nil); !ok || kind == "" {
			return
		}
	}
	l.violate("delete %s: refused 100 times", name)
}

// busRequest is a create request over a generated bus of the given width.
func busRequest(t *testing.T, bits int) server.CreateSessionRequest {
	t.Helper()
	netPath, spefPath, winPath := writeBus(t, t.TempDir(), bits)
	text := func(p string) string {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	return server.CreateSessionRequest{
		Netlist: text(netPath), SPEF: text(spefPath), Timing: text(winPath),
	}
}

// TestOverloadContract squeezes a real snad process on every axis at once:
// a memory budget that holds two designs (each bus here charges ≈ 70 kB) —
// the base design all tenants share and one more — two engine slots, at
// most one of them a job's, with a one-deep request queue, and a one-deep
// job queue. For two seconds four tenants each run two clients of
// interactive analyses on their base session, one of iterate-job
// submit→wait cycles on it (10 ms of injected sleep per round keeps a job
// slot busy), and one of create/analyze/delete churn over three other
// designs. No reply may break the contract, the run must provoke each shed
// it is built to provoke so that it cannot pass vacuously, and SIGTERM must
// then drain cleanly. The classifier is first shown to fail on planted
// replies.
func TestOverloadContract(t *testing.T) {
	retryAfter := http.Header{"Retry-After": {"1"}}
	for _, p := range []struct {
		name   string
		status int
		header http.Header
		body   string
	}{
		{"500 engine", http.StatusInternalServerError, http.Header{}, `{"error":{"kind":"engine","message":"boom"}}`},
		{"503 budget without Retry-After", http.StatusServiceUnavailable, http.Header{}, `{"error":{"kind":"budget","message":"over budget"}}`},
		{"torn body", http.StatusOK, http.Header{}, `{"session":"s","noise":{"stats":{"vic`},
	} {
		if _, err := classify(p.status, p.header, []byte(p.body), &server.AnalyzeResponse{}); err == nil {
			t.Errorf("planted %s: the classifier accepted it", p.name)
		}
	}
	if kind, err := classify(http.StatusServiceUnavailable, retryAfter, []byte(`{"error":{"kind":"budget","message":"over budget"}}`), nil); err != nil || kind != "budget" {
		t.Fatalf("a well-formed budget shed classified as %q, %v", kind, err)
	}

	child, base := startChild(t, t.TempDir(), childFaults{sessions: "base-*=sleep:b0"}, "-mem-budget", "160KiB", "-max-concurrent", "2", "-queue", "1",
		"-job-queue", "1")
	l := &loadRun{
		http:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}, Timeout: 30 * time.Second},
		base:  base,
		sheds: map[string]int{},
	}
	const tenants = 4
	shared := busRequest(t, 8)
	for i := range tenants {
		req := shared
		req.Name = fmt.Sprintf("base-t%d", i)
		if kind, ok := l.do("setup", "POST", "/v1/sessions", "", &req, &server.SessionInfo{}); !ok || kind != "" {
			t.Fatalf("creating %s: refused (%q) or violated: %v", req.Name, kind, l.violations)
		}
	}
	churn := []server.CreateSessionRequest{busRequest(t, 9), busRequest(t, 10), busRequest(t, 11)}

	deadline := time.Now().Add(2 * time.Second)
	var wg sync.WaitGroup
	loop := func(op func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op()
			}
		}()
	}
	var seq atomic.Int64
	for i := range tenants {
		tenant := fmt.Sprintf("t%d", i)
		session := "base-" + tenant
		loop(func() { l.analyze(tenant, session) })
		loop(func() { l.analyze(tenant, session) })
		loop(func() { l.job(tenant, session) })
		loop(func() {
			n := seq.Add(1)
			l.churn(tenant, fmt.Sprintf("churn-%d", n), churn[n%int64(len(churn))])
		})
	}
	wg.Wait()

	if err := child.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- child.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Errorf("SIGTERM after the load: %v, want a clean drain (exit 0)", err)
		}
	case <-time.After(30 * time.Second):
		child.Process.Kill()
		<-exited
		t.Error("the server did not drain within 30s of SIGTERM")
	}

	t.Logf("%d successes; sheds %v; %d job(s) ended with a stated cause", l.ok, l.sheds, l.flagged)
	if n := len(l.violations); n > 0 {
		t.Errorf("%d contract violation(s), the first %d:\n%s", n, min(n, 10), strings.Join(l.violations[:min(n, 10)], "\n"))
	}
	if l.ok == 0 {
		t.Error("not one success under load")
	}
	for _, want := range []string{"analyze overloaded", "create budget", "submit overloaded"} {
		if l.sheds[want] == 0 {
			t.Errorf("the load never provoked %q; the run proves nothing about that refusal", want)
		}
	}
}
