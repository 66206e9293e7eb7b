// Package client is the Go client for the snad analysis service, with
// the retry discipline the service's shedding design assumes: snad sheds
// load fast (429/503 + Retry-After) expecting callers to back off and
// retry, so the client owns exponential backoff with jitter, honors
// Retry-After hints, and retries only requests that are safe to repeat.
//
// Retryability is decided from the response, not the method, and not
// here: the reply's kind is looked up in the server's own kind table
// (server.Retryable; the rows are in internal/server/wire.go and README),
// so the client retries exactly what the server wrote Retry-After on. Load
// is retried — nothing was applied, and analyses are idempotent because
// padding is max-monotonic; a verdict (a caller or input bug, an engine
// failure that repeating the work repeats) is not.
//
// Transport errors (connection refused, reset) are retried for GETs and
// for the idempotent analysis POSTs, but not for session creation, where
// the request may have been applied before the connection died.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/report"
	"repro/internal/server"
)

// RetryPolicy tunes the backoff loop. The zero value gets defaults.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, first included
	// (default 4).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff: attempt n waits about
	// BaseDelay·2ⁿ, ±50% jitter (default 100ms).
	BaseDelay time.Duration
	// MaxDelay caps one backoff step (default 5s). A server Retry-After
	// hint overrides the computed delay (it is the server saying exactly
	// when capacity returns) but is still capped here.
	MaxDelay time.Duration
	// AttemptTimeout bounds each individual attempt (0 = unbounded; only
	// the caller's context limits it). A stalled attempt — a hung
	// connection, a server that accepted the request and went silent —
	// is cut off and, for retryable requests, retried, instead of eating
	// the whole deadline. The caller's context still bounds the overall
	// call.
	AttemptTimeout time.Duration
}

func (p *RetryPolicy) fill() {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
}

// APIError is a structured error response from the service.
type APIError struct {
	Status int
	Info   server.ErrorInfo

	// retryAfter carries the server's Retry-After hint into the backoff
	// computation; it is advice, not payload.
	retryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("snad: %s (%d): %s", e.Info.Kind, e.Status, e.Info.Message)
}

// Retryable reports whether repeating the request can succeed: the kind's
// row in the server's table says.
func (e *APIError) Retryable() bool {
	if retry, known := server.Retryable(e.Info.Kind); known {
		return retry
	}
	// No kind the table knows — a proxy's reply, an unparseable body: a
	// 429 or 503 is still a capacity signal.
	return e.Status == http.StatusServiceUnavailable || e.Status == http.StatusTooManyRequests
}

// Client talks to one snad server.
type Client struct {
	base  string
	http  *http.Client
	retry RetryPolicy
	// tenant, when set, is stamped on every request as the X-Snad-Tenant
	// header: the server's engine slot pool schedules requests and jobs
	// fairly across tenants, so tagging traffic is how a caller gets its
	// slice.
	tenant string

	// sleep, jitter, and now are injectable for tests (now anchors
	// HTTP-date Retry-After parsing).
	sleep  func(ctx context.Context, d time.Duration) error
	jitter func(d time.Duration) time.Duration
	now    func() time.Time
}

// New builds a client for the server at base (e.g. "http://127.0.0.1:8347").
func New(base string, policy RetryPolicy) *Client {
	policy.fill()
	return &Client{
		base:  base,
		http:  &http.Client{},
		retry: policy,
		sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
		jitter: func(d time.Duration) time.Duration {
			// Full ±50% jitter: spreads synchronized retries (thundering
			// herd after a drain or breaker trip) across the window.
			return d/2 + time.Duration(rand.Int63n(int64(d)+1))
		},
		now: time.Now,
	}
}

// SetTenant tags every subsequent request with the tenant ID ("" clears
// the tag). Call it once after New; the client is then safe for
// concurrent use as usual.
func (c *Client) SetTenant(tenant string) { c.tenant = tenant }

// parseRetryAfter interprets a Retry-After header value per RFC 9110
// §10.2.3: either a non-negative integral number of seconds ("120") or an
// HTTP-date ("Fri, 07 Aug 2026 11:30:00 GMT" and the obsolete RFC 850 /
// asctime forms, which http.ParseTime covers). A date in the past, a zero
// delay, or an unparseable value all return 0 — "no usable hint", letting
// the exponential backoff decide.
func parseRetryAfter(v string, now time.Time) time.Duration {
	if secs, err := strconv.ParseInt(v, 10, 64); err == nil {
		if secs > 0 {
			return time.Duration(secs) * time.Second
		}
		return 0
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// backoff computes the wait before attempt n (0-based), preferring the
// server's Retry-After hint when present. Jitter is applied before the
// MaxDelay clamp so the cap holds absolutely: a +50% jittered step can
// never sleep past MaxDelay.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		if retryAfter > c.retry.MaxDelay {
			return c.retry.MaxDelay
		}
		return retryAfter
	}
	d := c.retry.BaseDelay << uint(attempt)
	if d > c.retry.MaxDelay || d <= 0 {
		d = c.retry.MaxDelay
	}
	if d = c.jitter(d); d > c.retry.MaxDelay {
		d = c.retry.MaxDelay
	}
	return d
}

// doRetry runs one request through the retry loop. retryTransport allows
// retrying transport-level failures (safe only for idempotent requests).
// body (nil for none) is encoded once, before the first attempt: a body
// that cannot be encoded fails the call at once rather than being retried
// as if the transport had failed.
func (c *Client) doRetry(ctx context.Context, method, path string, body any, out any, retryTransport bool) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return err
		}
	}
	var lastErr error
	for attempt := 0; attempt < c.retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			var wait time.Duration
			if ae, ok := lastErr.(*APIError); ok {
				wait = c.backoff(attempt-1, ae.retryAfter)
			} else {
				wait = c.backoff(attempt-1, 0)
			}
			if err := c.sleep(ctx, wait); err != nil {
				return fmt.Errorf("snad: giving up after %d attempt(s): %w (last: %v)", attempt, err, lastErr)
			}
		}
		err := c.attempt(ctx, method, path, payload, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if ae, ok := err.(*APIError); ok {
			if !ae.Retryable() {
				return err
			}
			continue
		}
		if ctx.Err() != nil || !retryTransport {
			return err
		}
	}
	return fmt.Errorf("snad: giving up after %d attempts: %w", c.retry.MaxAttempts, lastErr)
}

// attempt runs doOnce under the per-attempt timeout. ctx.Err() checks in
// the retry loop use the caller's context, so an expired attempt counts
// as a transport failure (retryable) rather than ending the whole call.
func (c *Client) attempt(ctx context.Context, method, path string, payload []byte, out any) error {
	ctx, cancel := c.attemptCtx(ctx)
	defer cancel()
	return c.doOnce(ctx, method, path, payload, out)
}

func (c *Client) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.retry.AttemptTimeout > 0 {
		return context.WithTimeout(ctx, c.retry.AttemptTimeout)
	}
	return ctx, func() {}
}

func (c *Client) doOnce(ctx context.Context, method, path string, payload []byte, out any) error {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	data, err := c.roundTrip(ctx, method, path, "application/json", body)
	if err != nil {
		return err
	}
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("snad: decoding %s %s response: %w", method, path, err)
		}
	}
	return nil
}

// roundTrip performs one HTTP exchange and returns the reply's body, read
// whole and sized by its Content-Length when the server sent one. A status
// of 400 or more becomes an *APIError, decoded from the JSON error body every
// endpoint answers with.
func (c *Client) roundTrip(ctx context.Context, method, path, contentType string, body io.Reader) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if c.tenant != "" {
		req.Header.Set(server.TenantHeader, c.tenant)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		ae := &APIError{Status: resp.StatusCode}
		var eb server.ErrorBody
		if json.Unmarshal(data, &eb) == nil {
			ae.Info = eb.Error
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			ae.retryAfter = parseRetryAfter(ra, c.now())
		}
		return nil, ae
	}
	return data, nil
}

// readBody reads a reply's body whole, presized from its Content-Length when
// the server sent one instead of regrowing; a dishonest length costs at most
// maxPresize.
func readBody(resp *http.Response) ([]byte, error) {
	const maxPresize = 64 << 20
	var buf bytes.Buffer
	if n := resp.ContentLength; n > 0 {
		buf.Grow(int(min(n, maxPresize)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// CreateSession loads a design into a named session. Not retried on
// transport failure: the create may have landed before the connection
// died, and replaying it would read as a conflict.
func (c *Client) CreateSession(ctx context.Context, req *server.CreateSessionRequest) (*server.SessionInfo, error) {
	var info server.SessionInfo
	if err := c.doRetry(ctx, "POST", "/v1/sessions", req, &info, false); err != nil {
		return nil, err
	}
	return &info, nil
}

// Analyze runs (or replays) the session's full analysis.
func (c *Client) Analyze(ctx context.Context, name string, req *server.AnalyzeRequest, timeout time.Duration) (*server.AnalyzeResponse, error) {
	var out server.AnalyzeResponse
	path := "/v1/sessions/" + url.PathEscape(name) + "/analyze" + timeoutQuery(timeout)
	if err := c.doRetry(ctx, "POST", path, req, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Reanalyze applies window padding and incrementally re-analyzes. Padding
// is max-monotonic server-side, so retrying a delta is safe.
func (c *Client) Reanalyze(ctx context.Context, name string, req *server.ReanalyzeRequest, timeout time.Duration) (*server.AnalyzeResponse, error) {
	var out server.AnalyzeResponse
	path := "/v1/sessions/" + url.PathEscape(name) + "/reanalyze" + timeoutQuery(timeout)
	if err := c.doRetry(ctx, "POST", path, req, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Report fetches the cached last analysis of a session.
func (c *Client) Report(ctx context.Context, name string) (*server.AnalyzeResponse, error) {
	var out server.AnalyzeResponse
	if err := c.doRetry(ctx, "GET", "/v1/sessions/"+url.PathEscape(name)+"/report", nil, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// List fetches all sessions.
func (c *Client) List(ctx context.Context) ([]server.SessionInfo, error) {
	var out []server.SessionInfo
	if err := c.doRetry(ctx, "GET", "/v1/sessions", nil, &out, true); err != nil {
		return nil, err
	}
	return out, nil
}

// Delete unloads a session. Idempotent server-side except for the 404 on
// replay, which callers can treat as success-after-retry.
func (c *Client) Delete(ctx context.Context, name string) error {
	return c.doRetry(ctx, "DELETE", "/v1/sessions/"+url.PathEscape(name), nil, nil, true)
}

// Recovery fetches the server's boot replay report: which sessions were
// restored from the durable store, which records were quarantined and
// why. A memory-only server answers 404 not_found.
func (c *Client) Recovery(ctx context.Context) (*report.RecoveryJSON, error) {
	var out report.RecoveryJSON
	if err := c.doRetry(ctx, "GET", "/v1/recovery", nil, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health fetches liveness (200 even while draining).
func (c *Client) Health(ctx context.Context) (*server.HealthResponse, error) {
	var out server.HealthResponse
	if err := c.doOnce(ctx, "GET", "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func timeoutQuery(d time.Duration) string {
	if d <= 0 {
		return ""
	}
	return "?timeout=" + url.QueryEscape(d.String())
}
