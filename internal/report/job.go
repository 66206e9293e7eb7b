package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// JobJSON is one async job's status on the wire: the body of
// GET /v1/jobs/{id}, the elements of GET /v1/jobs, and the 202 body of
// POST /v1/jobs. Like RecoveryJSON it lives here so the server, the
// client, and the CLI share one definition without an import cycle.
type JobJSON struct {
	// ID is the server-assigned job identifier ("job-000001", monotonic
	// across restarts).
	ID string `json:"id"`
	// Session and Type identify the work: Type is "analyze",
	// "reanalyze", "iterate", or "sweep".
	Session string `json:"session"`
	Type    string `json:"type"`
	// Tenant attributes the job for fair scheduling ("" = anonymous).
	Tenant string `json:"tenant,omitempty"`
	// State is the job's position in the lifecycle state machine:
	// "queued", "running", "done", "failed", or "canceled".
	State string `json:"state"`
	// Attempts counts execution attempts started so far (journaled
	// before each attempt runs, so a crash mid-attempt still counts);
	// MaxAttempts is the retry budget.
	Attempts    int `json:"attempts"`
	MaxAttempts int `json:"maxAttempts"`
	// Error is the terminal failure cause ("" unless State is "failed").
	Error string `json:"error,omitempty"`
	// Quarantined marks a poison job: one that panicked, degraded the
	// engine, or crashed the process on every attempt and was parked as
	// failed rather than retried forever. Diags carries the per-attempt
	// evidence.
	Quarantined bool `json:"quarantined,omitempty"`
	// Diags records each failed attempt: what stage killed it and why.
	Diags []JobDiagJSON `json:"diags,omitempty"`
	// SubmittedAt/StartedAt/FinishedAt are RFC3339 lifecycle instants
	// (StartedAt is the most recent attempt's start).
	SubmittedAt string `json:"submittedAt,omitempty"`
	StartedAt   string `json:"startedAt,omitempty"`
	FinishedAt  string `json:"finishedAt,omitempty"`
	// Deadline is the per-attempt execution budget, as a duration string.
	Deadline string `json:"deadline,omitempty"`
	// CancelRequested reports a DELETE was journaled but the running
	// attempt has not yet observed its context cancellation.
	CancelRequested bool `json:"cancelRequested,omitempty"`
	// Result is the job's analysis payload, present once State is
	// "done" (and retained for a quarantined degraded result so the
	// evidence is inspectable).
	Result json.RawMessage `json:"result,omitempty"`
}

// JobDiagJSON is one failed attempt's diagnostic record.
type JobDiagJSON struct {
	Attempt int `json:"attempt"`
	// Stage classifies the failure: "panic" (the executor panicked),
	// "error" (it returned an error), "degraded" (the engine degraded
	// nets), "deadline" (the attempt blew its budget), or "interrupted"
	// (the process died mid-attempt; observed at the next boot's replay).
	Stage string `json:"stage"`
	Error string `json:"error,omitempty"`
	// Time is the RFC3339 instant the diagnostic was recorded.
	Time string `json:"time,omitempty"`
}

// Terminal reports whether the job has reached a final state.
func (j *JobJSON) Terminal() bool {
	return j.State == "done" || j.State == "failed" || j.State == "canceled"
}

// JobText renders one job's status in the repo's report idiom.
func JobText(w io.Writer, j *JobJSON) {
	fmt.Fprintf(w, "job %s: %s %s on session %s (attempt %d/%d)\n",
		j.ID, j.State, j.Type, j.Session, j.Attempts, j.MaxAttempts)
	if j.SubmittedAt != "" {
		fmt.Fprintf(w, "  submitted %s\n", j.SubmittedAt)
	}
	if j.StartedAt != "" {
		fmt.Fprintf(w, "  started   %s\n", j.StartedAt)
	}
	if j.FinishedAt != "" {
		fmt.Fprintf(w, "  finished  %s\n", j.FinishedAt)
	}
	if j.CancelRequested && !j.Terminal() {
		fmt.Fprintf(w, "  cancel requested\n")
	}
	if j.Quarantined {
		fmt.Fprintf(w, "  QUARANTINED as a poison job after %d attempt(s)\n", j.Attempts)
	}
	if j.Error != "" {
		fmt.Fprintf(w, "  error: %s\n", j.Error)
	}
	for _, d := range j.Diags {
		fmt.Fprintf(w, "  attempt %d %s: %s\n", d.Attempt, d.Stage, d.Error)
	}
	if len(j.Result) > 0 && j.State == "done" {
		var shown bytes.Buffer // the size -json prints it at, one level deep
		json.Indent(&shown, j.Result, "  ", "  ")
		fmt.Fprintf(w, "  result: %d bytes (fetch with -json for the full report)\n", shown.Len())
	}
}

// JobsText renders a job listing, one line per job.
func JobsText(w io.Writer, jobs []JobJSON) {
	if len(jobs) == 0 {
		fmt.Fprintln(w, "no jobs")
		return
	}
	for i := range jobs {
		j := &jobs[i]
		extra := ""
		if j.Quarantined {
			extra = "  [quarantined]"
		} else if j.CancelRequested && !j.Terminal() {
			extra = "  [cancel requested]"
		}
		fmt.Fprintf(w, "%-12s  %-8s  %-9s  %s  %d/%d%s\n",
			j.ID, j.State, j.Type, j.Session, j.Attempts, j.MaxAttempts, extra)
	}
}
