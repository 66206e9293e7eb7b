package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/report"
	"repro/internal/server"
)

// jobServer fakes the /v1/jobs surface: one job that reports "running"
// for the first polls status calls, then "done".
func jobServer(t *testing.T, polls int) (*httptest.Server, *atomic.Int64, *atomic.Int64) {
	t.Helper()
	var submits, status atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		submits.Add(1)
		var spec jobs.Spec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil || spec.Validate() != nil {
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(server.ErrorBody{Error: server.ErrorInfo{Kind: "bad_request", Message: "bad spec"}})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(report.JobJSON{ID: "job-000001", Session: spec.Session, Type: spec.Type, State: "queued"})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		n := status.Add(1)
		state := "running"
		if int(n) > polls {
			state = "done"
		}
		json.NewEncoder(w).Encode(report.JobJSON{ID: r.PathValue("id"), State: state, Result: json.RawMessage(`{"session":"s"}`)})
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.JobsResponse{Jobs: []report.JobJSON{{ID: "job-000001", State: "queued"}}})
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(report.JobJSON{ID: r.PathValue("id"), State: "running", CancelRequested: true})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &submits, &status
}

func TestSubmitWaitCancelJob(t *testing.T) {
	ts, _, statusCalls := jobServer(t, 2)
	c, slept := testClient(ts.URL, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond})

	snap, err := c.SubmitJob(context.Background(), &jobs.Spec{Session: "s", Type: "analyze"})
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID != "job-000001" || snap.State != "queued" {
		t.Fatalf("submit snapshot = %+v", snap)
	}

	final, err := c.WaitJob(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || len(final.Result) == 0 {
		t.Fatalf("final = %+v", final)
	}
	if statusCalls.Load() != 3 {
		t.Fatalf("status polls = %d, want 3", statusCalls.Load())
	}
	// The poll loop slept between the non-terminal statuses, starting at
	// its 5 ms base and growing by half.
	if len(*slept) != 2 || (*slept)[0] != 5*time.Millisecond || (*slept)[1] != 7500*time.Microsecond {
		t.Fatalf("slept = %v", *slept)
	}

	list, err := c.Jobs(context.Background())
	if err != nil || len(list) != 1 {
		t.Fatalf("list = %v, %v", list, err)
	}

	got, err := c.CancelJob(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.CancelRequested {
		t.Fatalf("cancel snapshot = %+v", got)
	}
}

// TestSubmitJobNotRetriedOnTransportError pins the at-most-once posture:
// a submit is journaled before its ack, so a dead connection must not be
// replayed into a duplicate job.
func TestSubmitJobNotRetriedOnTransportError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close()
	c, _ := testClient(ts.URL, RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond})
	if _, err := c.SubmitJob(context.Background(), &jobs.Spec{Session: "s", Type: "analyze"}); err == nil {
		t.Fatal("want transport error")
	}
}

// TestSubmitJobRetriedOnShed pins that explicit refusals (429) are still
// retried: the server acknowledged nothing, so replaying is safe.
func TestSubmitJobRetriedOnShed(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(server.ErrorBody{Error: server.ErrorInfo{Kind: "overloaded", Message: "queue full"}})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(report.JobJSON{ID: "job-000002", State: "queued"})
	}))
	defer ts.Close()
	c, _ := testClient(ts.URL, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond})
	snap, err := c.SubmitJob(context.Background(), &jobs.Spec{Session: "s", Type: "analyze"})
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID != "job-000002" || calls.Load() != 2 {
		t.Fatalf("snap=%+v calls=%d", snap, calls.Load())
	}
}

// TestWaitJobReturnsPromptly: a job that finishes about 10 ms after it is
// submitted is seen done well within 100 ms — the first poll interval is a
// few milliseconds, not a floor every short job pays.
func TestWaitJobReturnsPromptly(t *testing.T) {
	start := time.Now()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		state := "running"
		if time.Since(start) >= 10*time.Millisecond {
			state = "done"
		}
		json.NewEncoder(w).Encode(report.JobJSON{ID: r.PathValue("id"), State: state})
	}))
	t.Cleanup(ts.Close)
	c := New(ts.URL, RetryPolicy{})
	snap, err := c.WaitJob(context.Background(), "job-000001")
	if took := time.Since(start); err != nil || snap.State != "done" || took >= 100*time.Millisecond {
		t.Fatalf("WaitJob took %v for a 10 ms job: %+v, %v", took, snap, err)
	}
}
