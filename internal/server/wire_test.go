package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path"
	"strconv"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/shard"
)

// failing serves every request by failing it with errOf's error through the
// real exit of a real server.
func failing(t *testing.T, fail func(*server.Server, http.ResponseWriter, error), errOf func(*http.Request) error) string {
	t.Helper()
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { fail(s, w, errOf(r)) }))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestKindTable holds every row of the kind table to its word after a real
// round trip: the status is the row's and is an error status, Retry-After is
// a positive integer exactly when the row says retry, and the client's
// Retryable — a lookup in the same table — agrees with the header the server
// wrote.
func TestKindTable(t *testing.T) {
	rows := server.KindRows()
	if len(rows) != 18 {
		t.Fatalf("the kind table has %d rows, want the 18 documented kinds", len(rows))
	}
	// The kind to fail with is the session the request names; its hint is
	// fractional, like a breaker's remaining cooldown.
	url := failing(t, (*server.Server).Fail, func(r *http.Request) error {
		return server.WithRetryAfter(&server.ErrorInfo{Kind: path.Base(r.URL.Path), Message: "m", Session: "s"}, 1500*time.Millisecond)
	})
	c := client.New(url, client.RetryPolicy{MaxAttempts: 1})
	for kind, row := range rows {
		err := c.Delete(context.Background(), kind)
		var ae *client.APIError
		if !errors.As(err, &ae) {
			t.Fatalf("%s: error %v is not an APIError", kind, err)
		}
		if ae.Status != row.Status || ae.Status < 400 || ae.Status > 599 {
			t.Errorf("%s: status %d, want the row's %d, an error status", kind, ae.Status, row.Status)
		}
		if ae.Info.Kind != kind || ae.Info.Message != "m" || ae.Info.Session != "s" {
			t.Errorf("%s: body came back as %+v", kind, ae.Info)
		}
		if ae.Retryable() != row.Retry {
			t.Errorf("%s: client Retryable() = %v, the row says %v", kind, ae.Retryable(), row.Retry)
		}
		// The header itself, not the client's reading of it.
		resp, err := http.Get(url + "/" + kind)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ra := resp.Header.Get("Retry-After")
		if secs, err := strconv.Atoi(ra); row.Retry && (err != nil || secs != 2) {
			t.Errorf("%s: Retry-After = %q, want the 1.5 s hint rounded up to 2", kind, ra)
		} else if !row.Retry && ra != "" {
			t.Errorf("%s: Retry-After = %q on a kind that is not retryable", kind, ra)
		}
	}
}

// TestShardErrorsRoundTrip sends each class of the shard taxonomy through
// both halves of the pair in wire.go — runner error → worker reply →
// ShardWorker.Do error — and asks the two questions the coordinator asks of
// a worker's error. The answers must be the ones the error itself gives an
// in-process worker, except where the wire is the point (flips): load that
// the runner wrapped as fatal (a budget shed, a canceled wait) arrives
// transient, and a dispatch the worker's gate refused as malformed, which no
// in-process worker can be sent, arrives fatal. Fatal is no wider than that:
// a kind no worker writes is as transient as any reply the pair does not name.
func TestShardErrorsRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name  string
		err   error
		kind  string // of the reply
		flips bool
	}{
		{"engine broken", fmt.Errorf("%w: padding died halfway", shard.ErrEngineBroken), "shard_broken", false},
		{"fatal", &shard.FatalError{Err: errors.New("net b3 has no driver")}, "shard_fatal", false},
		{"fatal build failure", &shard.FatalError{Err: &server.ErrorInfo{Kind: "lint_rejected", Message: "design rejected by lint"}}, "shard_fatal", false},
		{"budget shed", &shard.FatalError{Err: &server.ErrorInfo{Kind: "budget", Message: "design needs ~9 bytes"}}, "budget", true},
		{"canceled wait", &shard.FatalError{Err: &server.ErrorInfo{Kind: "canceled", Message: "request expired"}}, "canceled", true},
		{"deadline", fmt.Errorf("eval: %w", context.DeadlineExceeded), "deadline", false},
		{"cancel", context.Canceled, "canceled", false},
		{"anything else", errors.New("disk on fire"), "engine", false},
		{"malformed dispatch", &server.ErrorInfo{Kind: "bad_request", Message: "bad timeout"}, "bad_request", true},
		{"a verdict no worker writes", &server.ErrorInfo{Kind: "conflict", Message: "session exists"}, "conflict", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fe *shard.FatalError
			broken, fatal := errors.Is(tc.err, shard.ErrEngineBroken), errors.As(tc.err, &fe) != tc.flips
			url := failing(t, (*server.Server).FailShard, func(*http.Request) error { return tc.err })
			// The worker's half alone: the reply's kind.
			resp, err := http.Post(url, "application/octet-stream", nil)
			if err != nil {
				t.Fatal(err)
			}
			var body server.ErrorBody
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error.Kind != tc.kind {
				t.Fatalf("reply kind %q (decode: %v), want %q", body.Error.Kind, err, tc.kind)
			}
			resp.Body.Close()
			w := client.NewShardWorker("w1", url, client.RetryPolicy{})
			got := w.Do(context.Background(), shard.OpClose, &shard.CloseRequest{}, nil)
			if got == nil {
				t.Fatal("the failure did not cross the wire")
			}
			if errors.Is(got, shard.ErrEngineBroken) != broken || errors.As(got, &fe) != fatal {
				t.Fatalf("over the wire: %v (broken=%v fatal=%v), want broken=%v fatal=%v",
					got, errors.Is(got, shard.ErrEngineBroken), errors.As(got, &fe), broken, fatal)
			}
			// What is neither is transient, and says which kind of transient.
			var ae *client.APIError
			if errors.As(got, &ae) != (!broken && !fatal) {
				t.Fatalf("over the wire: %T, want an APIError exactly for a transient failure", got)
			}
			if retry, _ := server.Retryable(tc.kind); ae != nil && (ae.Info.Kind != tc.kind || ae.Retryable() != retry) {
				t.Fatalf("transient failure arrived as %v (retryable=%v), want kind %q", ae, ae.Retryable(), tc.kind)
			}
		})
	}
}
