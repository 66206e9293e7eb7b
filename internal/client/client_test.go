package client

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// testClient builds a client whose sleeps are recorded instead of slept
// and whose jitter is the identity, so backoff arithmetic is observable.
func testClient(base string, policy RetryPolicy) (*Client, *[]time.Duration) {
	c := New(base, policy)
	var slept []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		slept = append(slept, d)
		return nil
	}
	c.jitter = func(d time.Duration) time.Duration { return d }
	return c, &slept
}

func shedding(failures int, retryAfter string, kind string) (*httptest.Server, *atomic.Int64) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if int(n) <= failures {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			status := http.StatusTooManyRequests
			if kind != "overloaded" {
				status = http.StatusServiceUnavailable
			}
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(server.ErrorBody{Error: server.ErrorInfo{Kind: kind, Message: "shed"}})
			return
		}
		w.WriteHeader(http.StatusOK)
		json.NewEncoder(w).Encode(server.AnalyzeResponse{Session: "s"})
	}))
	return ts, &calls
}

func TestRetryOnSheddingHonorsRetryAfter(t *testing.T) {
	ts, calls := shedding(2, "3", "overloaded")
	defer ts.Close()
	c, slept := testClient(ts.URL, RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 10 * time.Second})
	out, err := c.Analyze(context.Background(), "s", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Session != "s" {
		t.Fatalf("response = %+v", out)
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
	// Both waits must come from the server hint (3s), not the 10ms base.
	if len(*slept) != 2 || (*slept)[0] != 3*time.Second || (*slept)[1] != 3*time.Second {
		t.Fatalf("slept = %v, want [3s 3s]", *slept)
	}
}

func TestRetryBackoffGrowsExponentially(t *testing.T) {
	ts, _ := shedding(3, "", "draining")
	defer ts.Close()
	c, slept := testClient(ts.URL, RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 10 * time.Second})
	if _, err := c.Analyze(context.Background(), "s", nil, 0); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	if len(*slept) != len(want) {
		t.Fatalf("slept = %v", *slept)
	}
	for i, w := range want {
		if (*slept)[i] != w {
			t.Fatalf("slept[%d] = %v, want %v", i, (*slept)[i], w)
		}
	}
}

func TestRetryCapsAtMaxDelay(t *testing.T) {
	ts, _ := shedding(3, "", "breaker_open")
	defer ts.Close()
	c, slept := testClient(ts.URL, RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 150 * time.Millisecond})
	if _, err := c.Analyze(context.Background(), "s", nil, 0); err != nil {
		t.Fatal(err)
	}
	for i, d := range *slept {
		if d > 150*time.Millisecond {
			t.Fatalf("slept[%d] = %v exceeds MaxDelay", i, d)
		}
	}
}

func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	ts, calls := shedding(100, "", "overloaded")
	defer ts.Close()
	c, _ := testClient(ts.URL, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond})
	_, err := c.Analyze(context.Background(), "s", nil, 0)
	if err == nil {
		t.Fatal("want error after exhausting attempts")
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
	if !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("err = %v", err)
	}
}

func TestNoRetryOnNonRetryableStatuses(t *testing.T) {
	for _, tc := range []struct {
		status int
		kind   string
	}{
		{http.StatusInternalServerError, "engine"},
		{http.StatusInternalServerError, "panic"},
		{http.StatusBadRequest, "bad_request"},
		{http.StatusNotFound, "not_found"},
		{http.StatusConflict, "conflict"},
		{http.StatusUnprocessableEntity, "lint_rejected"},
	} {
		var calls atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			w.WriteHeader(tc.status)
			json.NewEncoder(w).Encode(server.ErrorBody{Error: server.ErrorInfo{Kind: tc.kind, Message: "nope"}})
		}))
		c, _ := testClient(ts.URL, RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond})
		_, err := c.Analyze(context.Background(), "s", nil, 0)
		ts.Close()
		if err == nil {
			t.Fatalf("%s: want error", tc.kind)
		}
		ae, ok := err.(*APIError)
		if !ok || ae.Info.Kind != tc.kind {
			t.Fatalf("%s: err = %v", tc.kind, err)
		}
		if calls.Load() != 1 {
			t.Fatalf("%s: calls = %d, want 1 (non-retryable)", tc.kind, calls.Load())
		}
	}
}

func TestCreateNotRetriedOnTransportError(t *testing.T) {
	// A server that dies immediately: transport error on every attempt.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close()
	c, _ := testClient(ts.URL, RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond})
	_, err := c.CreateSession(context.Background(), &server.CreateSessionRequest{Name: "x"})
	if err == nil {
		t.Fatal("want transport error")
	}
	if _, ok := err.(*APIError); ok {
		t.Fatalf("transport failure should not be an APIError: %v", err)
	}
}

func TestAnalyzeRetriedOnTransportError(t *testing.T) {
	var calls atomic.Int64
	// First attempt: hijack and kill the connection; second: succeed.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("no hijacker")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatal(err)
			}
			conn.Close()
			return
		}
		json.NewEncoder(w).Encode(server.AnalyzeResponse{Session: "s"})
	}))
	defer ts.Close()
	c, _ := testClient(ts.URL, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond})
	out, err := c.Analyze(context.Background(), "s", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Session != "s" || calls.Load() != 2 {
		t.Fatalf("out=%+v calls=%d", out, calls.Load())
	}
}

// TestUnencodableBodyFailsAtOnce pins that a request body JSON cannot carry
// (a NaN padding) fails the call before any attempt: it is not a transport
// error, so nothing is sent and nothing is retried.
func TestUnencodableBodyFailsAtOnce(t *testing.T) {
	ts, calls := shedding(0, "", "overloaded")
	defer ts.Close()
	c, slept := testClient(ts.URL, RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond})
	req := &server.ReanalyzeRequest{Padding: map[string]float64{"b1": math.NaN()}}
	if _, err := c.Reanalyze(context.Background(), "s", req, 0); err == nil {
		t.Fatal("NaN padding encoded")
	}
	if calls.Load() != 0 || len(*slept) != 0 {
		t.Fatalf("calls=%d slept=%v, want no attempt and no backoff", calls.Load(), *slept)
	}
}

func TestRetryRespectsContext(t *testing.T) {
	ts, _ := shedding(100, "", "overloaded")
	defer ts.Close()
	c := New(ts.URL, RetryPolicy{MaxAttempts: 10, BaseDelay: 50 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Analyze(ctx, "s", nil, 0)
	if err == nil {
		t.Fatal("want error")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("retry loop ignored context cancellation")
	}
}

func TestTimeoutQueryPropagates(t *testing.T) {
	var gotTimeout string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotTimeout = r.URL.Query().Get("timeout")
		json.NewEncoder(w).Encode(server.AnalyzeResponse{Session: "s"})
	}))
	defer ts.Close()
	c, _ := testClient(ts.URL, RetryPolicy{})
	if _, err := c.Analyze(context.Background(), "s", nil, 250*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if gotTimeout != "250ms" {
		t.Fatalf("timeout query = %q", gotTimeout)
	}
}

// TestBackoffJitterClampedToMaxDelay pins the documented contract that
// MaxDelay caps one backoff step absolutely: the +50% side of the jitter
// applied to an at-cap delay must not push the sleep past the cap.
func TestBackoffJitterClampedToMaxDelay(t *testing.T) {
	c := New("http://unused", RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: 200 * time.Millisecond})
	c.jitter = func(d time.Duration) time.Duration { return d + d/2 } // worst-case +50%
	for attempt := 0; attempt < 8; attempt++ {
		if d := c.backoff(attempt, 0); d > 200*time.Millisecond {
			t.Fatalf("backoff(%d) = %v exceeds MaxDelay", attempt, d)
		}
	}
	// The Retry-After path stays capped too.
	if d := c.backoff(0, time.Minute); d != 200*time.Millisecond {
		t.Fatalf("backoff with huge Retry-After = %v, want the 200ms cap", d)
	}
}

// TestParseRetryAfter pins the RFC 9110 §10.2.3 contract: Retry-After is
// either delay-seconds or an HTTP-date, and anything unusable (garbage,
// zero, a date already past) means "no hint" rather than an error.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"3", 3 * time.Second},
		{"120", 2 * time.Minute},
		{"0", 0},
		{"-5", 0},
		{now.Add(30 * time.Second).Format(http.TimeFormat), 30 * time.Second},
		{now.Add(-time.Minute).Format(http.TimeFormat), 0},                       // already past
		{now.Add(time.Hour).Format("Monday, 02-Jan-06 15:04:05 MST"), time.Hour}, // RFC 850
		{now.Add(2 * time.Second).Format(time.ANSIC), 2 * time.Second},           // asctime
		{"soon", 0},
		{"", 0},
	} {
		if got := parseRetryAfter(tc.in, now); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestRetryOnSheddingHonorsHTTPDateRetryAfter is the end-to-end half of
// the regression: a server hinting with an HTTP-date (the form proxies
// and some load balancers emit) must steer the backoff exactly like the
// integral-seconds form.
func TestRetryOnSheddingHonorsHTTPDateRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	ts, calls := shedding(2, now.Add(3*time.Second).Format(http.TimeFormat), "overloaded")
	defer ts.Close()
	c, slept := testClient(ts.URL, RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 10 * time.Second})
	c.now = func() time.Time { return now }
	if _, err := c.Analyze(context.Background(), "s", nil, 0); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
	if len(*slept) != 2 || (*slept)[0] != 3*time.Second || (*slept)[1] != 3*time.Second {
		t.Fatalf("slept = %v, want [3s 3s] from the HTTP-date hint", *slept)
	}
}

func TestJitterSpreadsDefaultBackoff(t *testing.T) {
	c := New("http://unused", RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: 10 * time.Second})
	for i := 0; i < 100; i++ {
		d := c.backoff(0, 0)
		if d < 50*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("jittered delay %v outside ±50%% of 100ms", d)
		}
	}
}
