package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/report"
	"repro/internal/shard"
)

func waitJobHTTP(t *testing.T, base, id string, state string) *report.JobJSON {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, data := do(t, "GET", base+"/v1/jobs/"+id, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job status %s: %d: %s", id, resp.StatusCode, data)
		}
		var j report.JobJSON
		if err := json.Unmarshal(data, &j); err != nil {
			t.Fatalf("job body: %v\n%s", err, data)
		}
		if (state == "" && j.Terminal()) || j.State == state {
			return &j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (want %s): %s", id, j.State, state, data)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func submitJob(t *testing.T, base string, spec jobs.Spec) *report.JobJSON {
	t.Helper()
	resp, data := do(t, "POST", base+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var j report.JobJSON
	if err := json.Unmarshal(data, &j); err != nil {
		t.Fatalf("submit body: %v\n%s", err, data)
	}
	return &j
}

func TestJobLifecycleHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createSession(t, ts.URL, "bus", shard.OptionsSpec{})

	ack := submitJob(t, ts.URL, jobs.Spec{Session: "bus", Type: "analyze", Delay: true})
	if ack.State != "queued" || ack.ID == "" {
		t.Fatalf("202 ack = %+v", ack)
	}
	done := waitJobHTTP(t, ts.URL, ack.ID, "done")
	var result AnalyzeResponse
	if err := json.Unmarshal(done.Result, &result); err != nil {
		t.Fatalf("job result: %v", err)
	}
	if result.Noise == nil || result.Noise.Stats.Victims == 0 || result.Delay == nil {
		t.Fatalf("job result missing sections: %+v", result)
	}

	// The job's analysis is the session's cached report now.
	resp, data := do(t, "GET", ts.URL+"/v1/sessions/bus/report", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report after job: %d: %s", resp.StatusCode, data)
	}

	// Listing includes the job; readyz exposes the gauges.
	resp, data = do(t, "GET", ts.URL+"/v1/jobs", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d", resp.StatusCode)
	}
	var list JobsResponse
	if err := json.Unmarshal(data, &list); err != nil || len(list.Jobs) != 1 || list.Jobs[0].ID != ack.ID {
		t.Fatalf("list = %s (%v)", data, err)
	}
	resp, data = do(t, "GET", ts.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"jobsQueued"`) {
		t.Fatalf("readyz lacks job gauges: %d %s", resp.StatusCode, data)
	}

	// There is nothing left to cancel, and the refusal says how it ended.
	resp, data = do(t, "DELETE", ts.URL+"/v1/jobs/"+ack.ID, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel of a done job: %d: %s", resp.StatusCode, data)
	}
	if ei, want := wantErrKind(t, data, "conflict"), fmt.Sprintf("job %q already finished as done", ack.ID); ei.Message != want {
		t.Fatalf("cancel of a done job: message %q, want %q", ei.Message, want)
	}
}

func TestJobSweepHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createSession(t, ts.URL, "bus", shard.OptionsSpec{})

	ack := submitJob(t, ts.URL, jobs.Spec{Session: "bus", Type: "sweep", Sweep: []jobs.SweepPoint{
		{Mode: "all"}, {Mode: "noise"}, {Mode: "timing", Threshold: 0.05},
	}})
	done := waitJobHTTP(t, ts.URL, ack.ID, "done")
	var result SweepResult
	if err := json.Unmarshal(done.Result, &result); err != nil {
		t.Fatalf("sweep result: %v", err)
	}
	if len(result.Points) != 3 || result.Points[0].Mode != "all" || result.Points[2].Threshold != 0.05 {
		t.Fatalf("sweep points = %+v", result.Points)
	}
	// Noise-window mode is never more pessimistic than all-aggressors.
	if nv, av := len(result.Points[1].Noise.Violations), len(result.Points[0].Noise.Violations); nv > av {
		t.Fatalf("noise mode found more violations than all mode: %d > %d", nv, av)
	}
}

func TestJobUnknownSessionFailsFast(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ack := submitJob(t, ts.URL, jobs.Spec{Session: "ghost", Type: "analyze"})
	failed := waitJobHTTP(t, ts.URL, ack.ID, "failed")
	// Permanent failure: one attempt, no quarantine, cause in the error.
	if failed.Attempts != 1 || failed.Quarantined || !strings.Contains(failed.Error, "ghost") {
		t.Fatalf("unknown-session job = %+v", failed)
	}
}

func TestJobValidationAndNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := do(t, "POST", ts.URL+"/v1/jobs", jobs.Spec{Session: "s", Type: "bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %d: %s", resp.StatusCode, data)
	}
	wantErrKind(t, data, "bad_request")
	resp, data = do(t, "GET", ts.URL+"/v1/jobs/job-999999", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %d", resp.StatusCode)
	}
	if ei := wantErrKind(t, data, "not_found"); ei.Message != `no job "job-999999"` {
		t.Fatalf("missing job: message %q", ei.Message)
	}
	resp, data = do(t, "DELETE", ts.URL+"/v1/jobs/job-999999", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel missing job: %d", resp.StatusCode)
	}
	if ei := wantErrKind(t, data, "not_found"); ei.Message != `no job "job-999999"` {
		t.Fatalf("cancel missing job: message %q", ei.Message)
	}
}

// A poison job (injected to panic on every attempt) must quarantine with
// Diag records while the server keeps serving — interactive and batch.
func TestJobPoisonQuarantineKeepsServing(t *testing.T) {
	_, ts := newTestServer(t, Config{Faults: testFaults(t, "", "panic:reanalyze:*")})
	createSession(t, ts.URL, "bus", shard.OptionsSpec{})

	ack := submitJob(t, ts.URL, jobs.Spec{
		Session: "bus", Type: "reanalyze",
		Padding:     map[string]float64{"b0": 10e-12},
		MaxAttempts: 2,
	})
	failed := waitJobHTTP(t, ts.URL, ack.ID, "failed")
	if !failed.Quarantined || len(failed.Diags) != 2 {
		t.Fatalf("poison job = %+v", failed)
	}
	for _, d := range failed.Diags {
		if d.Stage != "panic" {
			t.Fatalf("diag = %+v", d)
		}
	}

	// The server survived: interactive analyze works, and so does a job
	// of a type the fault spec does not match.
	resp, data := do(t, "POST", ts.URL+"/v1/sessions/bus/analyze", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze after poison: %d: %s", resp.StatusCode, data)
	}
	good := submitJob(t, ts.URL, jobs.Spec{Session: "bus", Type: "analyze"})
	waitJobHTTP(t, ts.URL, good.ID, "done")

	// Metrics expose the quarantine.
	resp, data = do(t, "GET", ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{"snad_jobs_quarantined_total 1", "snad_jobs_done_total 1", "snad_jobs_queued 0"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("metrics missing %q:\n%s", want, data)
		}
	}
}

// TestRequestsAndJobsShareTheSlots keeps both classes busy at
// MaxConcurrent 2 — analyses and analyze jobs, each on a session of its
// own, each held in its b0 preparation until the test lets one go — and
// counts the engines at once: never more than the two slots, never more
// than one of them a job's, and a job does run beside the requests.
func TestRequestsAndJobsShareTheSlots(t *testing.T) {
	const each = 4
	var mu sync.Mutex
	var held, heldJobs, maxHeld, maxJobs int
	release := make(chan struct{})
	hold := func(session, net string) error {
		if net != "b0" {
			return nil
		}
		job := strings.HasPrefix(session, "job-")
		mu.Lock()
		held++
		if job {
			heldJobs++
		}
		maxHeld, maxJobs = max(maxHeld, held), max(maxJobs, heldJobs)
		mu.Unlock()
		<-release
		mu.Lock()
		held--
		if job {
			heldJobs--
		}
		mu.Unlock()
		return nil
	}
	_, ts := newTestServer(t, Config{MaxConcurrent: 2, MaxSessions: 2 * each, Faults: &Faults{Prepare: hold}})
	for i := range each {
		createSession(t, ts.URL, fmt.Sprintf("live-%d", i), shard.OptionsSpec{})
		createSession(t, ts.URL, fmt.Sprintf("job-%d", i), shard.OptionsSpec{})
	}
	var wg sync.WaitGroup
	ids := make([]string, each)
	for i := range each {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, data := do(t, "POST", fmt.Sprintf("%s/v1/sessions/live-%d/analyze", ts.URL, i), nil); resp.StatusCode != http.StatusOK {
				t.Errorf("analyze live-%d: %d: %s", i, resp.StatusCode, data)
			}
		}()
		ids[i] = submitJob(t, ts.URL, jobs.Spec{Session: fmt.Sprintf("job-%d", i), Type: "analyze"}).ID
	}
	holding := func() int {
		mu.Lock()
		defer mu.Unlock()
		return held
	}
	for left := 2 * each; left > 0; left-- {
		waitFor(t, func() bool { return holding() >= min(2, left) })
		// Time for an engine past the slots to reach its preparation.
		time.Sleep(10 * time.Millisecond)
		release <- struct{}{}
	}
	wg.Wait()
	for _, id := range ids {
		waitJobHTTP(t, ts.URL, id, "done")
	}
	if maxHeld > 2 || maxJobs != 1 {
		t.Fatalf("saw %d engines at once, %d of them jobs; want at most 2, exactly 1", maxHeld, maxJobs)
	}
}

// Bounded job admission: past JobQueueDepth waiting jobs, POST /v1/jobs
// sheds with 429 + Retry-After.
func TestJobQueueSheds(t *testing.T) {
	_, ts := newTestServer(t, Config{
		MaxConcurrent: 2,
		JobQueueDepth: 1,
		Faults:        testFaults(t, "", "hang:analyze:*"),
	})
	createSession(t, ts.URL, "bus", shard.OptionsSpec{})

	running := submitJob(t, ts.URL, jobs.Spec{Session: "bus", Type: "analyze"})
	waitJobHTTP(t, ts.URL, running.ID, "running")
	submitJob(t, ts.URL, jobs.Spec{Session: "bus", Type: "analyze"})

	resp, data := do(t, "POST", ts.URL+"/v1/jobs", jobs.Spec{Session: "bus", Type: "analyze"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d: %s", resp.StatusCode, data)
	}
	if ei := wantErrKind(t, data, "overloaded"); ei.Message != "job queue of 1 is full" || ei.Session != "bus" {
		t.Fatalf("overflow submit answered %+v, want the queue's depth and the session", ei)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// DELETE cancels the hung job: 202 while the attempt unwinds, then
	// the job lands canceled without burning its retry budget further.
	resp, data = do(t, "DELETE", ts.URL+"/v1/jobs/"+running.ID, nil)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel running: %d: %s", resp.StatusCode, data)
	}
	canceled := waitJobHTTP(t, ts.URL, running.ID, "canceled")
	if canceled.Quarantined {
		t.Fatalf("canceled job = %+v", canceled)
	}
	// Canceling a terminal job conflicts.
	resp, data = do(t, "DELETE", ts.URL+"/v1/jobs/"+running.ID, nil)
	if resp.StatusCode != http.StatusOK {
		// Already canceled is idempotent 200; anything else is a bug.
		t.Fatalf("re-cancel: %d: %s", resp.StatusCode, data)
	}
}

// Jobs survive a server restart: a running job interrupted by shutdown
// re-enqueues (drain refunds the attempt) and completes under the next
// process.
func TestJobsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{DataDir: dir, Faults: testFaults(t, "", "hang:iterate:*")})
	createSession(t, ts1.URL, "bus", shard.OptionsSpec{})
	ack := submitJob(t, ts1.URL, jobs.Spec{Session: "bus", Type: "iterate", Local: true})
	waitJobHTTP(t, ts1.URL, ack.ID, "running")
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	_, ts2 := newTestServer(t, Config{DataDir: dir})
	done := waitJobHTTP(t, ts2.URL, ack.ID, "done")
	if done.Attempts != 1 {
		t.Fatalf("restarted job = %+v (want the drained attempt refunded)", done)
	}
	var result AnalyzeResponse
	if err := json.Unmarshal(done.Result, &result); err != nil || result.Iterate == nil {
		t.Fatalf("iterate job result: %v: %s", err, done.Result)
	}
}

// Submits refused by a sick disk are 503 storage with nothing enqueued —
// the no-lost-ack contract over HTTP.
func TestJobSubmitStorageFault(t *testing.T) {
	dir := t.TempDir()
	// The fault rules count appends across both WALs; the session create
	// consumes the first append, so the second lands on the job submit.
	_, ts := newTestServer(t, Config{DataDir: dir, Faults: testFaults(t, "enospc:append:2", "")})
	createSession(t, ts.URL, "bus", shard.OptionsSpec{})
	resp, data := do(t, "POST", ts.URL+"/v1/jobs", jobs.Spec{Session: "bus", Type: "analyze"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit under fault: %d: %s", resp.StatusCode, data)
	}
	ei := wantErrKind(t, data, "storage")
	if !strings.HasPrefix(ei.Message, "job not accepted: journal append failed: ") || !strings.HasSuffix(ei.Message, "; retry once storage recovers") {
		t.Fatalf("submit under fault: message %q", ei.Message)
	}
	var list JobsResponse
	_, data = do(t, "GET", ts.URL+"/v1/jobs", nil)
	if err := json.Unmarshal(data, &list); err != nil || len(list.Jobs) != 0 {
		t.Fatalf("refused submit left jobs: %s", data)
	}
}

// A cancel refused by a sick disk is 503 storage too, says what was refused,
// and leaves the job as it was: the retried cancel lands.
func TestJobCancelStorageFault(t *testing.T) {
	// Appends across both WALs: the create, the first submit, its start
	// record, the second submit — the fifth is the cancel.
	_, ts := newTestServer(t, Config{
		DataDir: t.TempDir(), MaxConcurrent: 2, Faults: testFaults(t, "enospc:append:5", "hang:analyze:*"),
	})
	createSession(t, ts.URL, "bus", shard.OptionsSpec{})
	running := submitJob(t, ts.URL, jobs.Spec{Session: "bus", Type: "analyze"})
	waitJobHTTP(t, ts.URL, running.ID, "running")
	queued := submitJob(t, ts.URL, jobs.Spec{Session: "bus", Type: "analyze"})
	resp, data := do(t, "DELETE", ts.URL+"/v1/jobs/"+queued.ID, nil)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("cancel under fault: %d (Retry-After %q): %s", resp.StatusCode, resp.Header.Get("Retry-After"), data)
	}
	ei := wantErrKind(t, data, "storage")
	if !strings.HasPrefix(ei.Message, "cancel not accepted: journal append failed: ") || !strings.HasSuffix(ei.Message, "; retry once storage recovers") {
		t.Fatalf("cancel under fault: message %q", ei.Message)
	}
	waitJobHTTP(t, ts.URL, queued.ID, "queued")
	resp, data = do(t, "DELETE", ts.URL+"/v1/jobs/"+queued.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retried cancel: %d: %s", resp.StatusCode, data)
	}
	do(t, "DELETE", ts.URL+"/v1/jobs/"+running.ID, nil)
}

func TestJobReanalyzePersistsPadding(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{DataDir: dir})
	createSession(t, ts1.URL, "bus", shard.OptionsSpec{})
	ack := submitJob(t, ts1.URL, jobs.Spec{
		Session: "bus", Type: "reanalyze",
		Padding: map[string]float64{"b0": 15e-12},
	})
	done := waitJobHTTP(t, ts1.URL, ack.ID, "done")
	var result AnalyzeResponse
	if err := json.Unmarshal(done.Result, &result); err != nil || result.ChangedNets == 0 {
		t.Fatalf("reanalyze job = %v: %s", err, done.Result)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// The padding journaled by the job replays into the restored session:
	// re-applying the same delta is absorbed (0 changed nets).
	_, ts2 := newTestServer(t, Config{DataDir: dir})
	resp, data := do(t, "POST", ts2.URL+"/v1/sessions/bus/reanalyze", ReanalyzeRequest{
		Padding: map[string]float64{"b0": 15e-12},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reanalyze after restart: %d: %s", resp.StatusCode, data)
	}
	var rr AnalyzeResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.ChangedNets != 0 {
		t.Fatalf("padding not persisted by job: %d nets changed on replayed delta", rr.ChangedNets)
	}
}

func TestMetricsServesWhileDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if !s.Drain(time.Second) {
		t.Fatal("empty server did not drain cleanly")
	}
	resp, data := do(t, "GET", ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), "snad_draining 1") {
		t.Fatalf("metrics while draining: %d\n%s", resp.StatusCode, data)
	}
	// Regular endpoints are refused.
	resp, data = do(t, "GET", ts.URL+"/v1/jobs", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("list while draining: %d", resp.StatusCode)
	}
	wantErrKind(t, data, "draining")
}

// Iterate jobs journal their round state as the job's progress, and
// leave nothing else behind in the data directory.
func TestJobIterateCheckpointCleared(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir})
	createSession(t, ts.URL, "bus", shard.OptionsSpec{})
	ack := submitJob(t, ts.URL, jobs.Spec{Session: "bus", Type: "iterate", Local: true, MaxRounds: 3})
	waitJobHTTP(t, ts.URL, ack.ID, "done")
	data, err := os.ReadFile(filepath.Join(dir, "jobs", "jobs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"type":"progress"`)) {
		t.Fatal("the iterate job journaled no round state")
	}
	wantOnlyJournals(t, dir)
}

// TestSubmitRefusesUnknownSweepMode: a sweep point naming a mode no
// analysis has is refused at submit as a bad request, and nothing reaches
// the job journal, rather than being accepted and failing in the job.
func TestSubmitRefusesUnknownSweepMode(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir})
	createSession(t, ts.URL, "bus", shard.OptionsSpec{})
	journal := filepath.Join(dir, "jobs", "jobs.wal")
	size := func() int64 {
		fi, err := os.Stat(journal)
		if err != nil {
			return 0
		}
		return fi.Size()
	}
	before := size()
	resp, data := do(t, "POST", ts.URL+"/v1/jobs", json.RawMessage(`{"session":"bus","type":"sweep","sweep":[{"mode":"bogus"}]}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus sweep mode: status %d: %s", resp.StatusCode, data)
	}
	if ei := wantErrKind(t, data, "bad_request"); !strings.Contains(ei.Message, `"bogus"`) {
		t.Fatalf("bogus sweep mode: refused for another reason: %q", ei.Message)
	}
	if after := size(); after != before {
		t.Fatalf("the refused job reached the journal: %d bytes, %d before", after, before)
	}
	resp, data = do(t, "GET", ts.URL+"/v1/jobs", nil)
	var list JobsResponse
	if err := json.Unmarshal(data, &list); err != nil || resp.StatusCode != http.StatusOK || len(list.Jobs) != 0 {
		t.Fatalf("jobs after the refused submit: %d %v: %s", resp.StatusCode, err, data)
	}
}
