package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/report"
)

// Async jobs: POST /v1/jobs accepts a batch-analysis work order and
// returns 202 once the spec is journaled; each attempt runs in a batch
// slot of the engine pool the interactive routes share (tenant.go), with
// retry, per-attempt deadlines, and poison-job quarantine. The queue
// machinery lives in internal/jobs; this file owns the HTTP surface and
// the executor that maps job specs onto sessions and engines.

// SweepResult is the result payload of a sweep job: the session's
// design analyzed once per scenario point.
type SweepResult struct {
	Session string             `json:"session"`
	Points  []SweepPointResult `json:"points"`
}

// SweepPointResult is one sweep scenario's outcome.
type SweepPointResult struct {
	// Mode and Threshold echo the effective analysis knobs of this point
	// (the session's own values where the point didn't override).
	Mode      string  `json:"mode"`
	Threshold float64 `json:"threshold"`
	// Noise is the point's full analysis report.
	Noise *report.ResultJSON `json:"noise"`
}

// execJob is the jobs.Executor: one attempt of one job, run in the batch
// slot the manager took for it, through the same sessionWork harness as an
// interactive analysis (no admission of its own), routed by job type.
// An analyze-shaped result becomes the session's cached report — GET
// report serves it; a sweep keeps its own payload. A refusal that would
// recur — unknown session, unreplayable spec, a bad sweep point — is marked
// Permanent so the manager fails fast instead of burning the retry budget.
func (s *Server) execJob(ctx context.Context, id string, spec *jobs.Spec, progress *jobs.Progress) (json.RawMessage, bool, error) {
	start := time.Now()
	defer func() { s.histJobRun.Observe(time.Since(start).Seconds()) }()
	var sweep json.RawMessage
	body, degraded, err := s.sessionWork(ctx, spec.Session, nil, func(ctx context.Context, ss *session) (a *answer, err error) {
		switch spec.Type {
		case "analyze":
			return s.analyzeWork(ctx, ss, spec.Delay)
		case "reanalyze":
			return s.reanalyzeWork(ctx, ss, spec.Padding, spec.Delay)
		case "iterate":
			return s.iterate(ctx, ss, id, spec, progress)
		case "sweep":
			sweep, err = s.jobSweep(ctx, ss, spec)
			return nil, err
		}
		return nil, badRequest(fmt.Errorf("unknown job type %q", spec.Type), "")
	})
	if err != nil {
		if permanent(err) {
			err = jobs.Permanent(err)
		}
		return nil, false, err
	}
	if body == nil {
		body = sweep
	}
	return body, degraded, nil
}

// jobSweep analyzes the session's design once per scenario point, each
// under the point's mode/threshold overrides, encoding as it goes.
func (s *Server) jobSweep(ctx context.Context, ss *session, spec *jobs.Spec) (json.RawMessage, error) {
	b := report.AppendString([]byte(`{"session":`), ss.name)
	b = append(b, `,"points":[`...)
	for i, pt := range spec.Sweep {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		opts := ss.opts
		if pt.Mode != "" {
			mode, err := core.ParseMode(pt.Mode)
			if err != nil {
				return nil, badRequest(err, "")
			}
			opts.Mode = mode
		}
		if pt.Threshold > 0 {
			opts.FilterThreshold = pt.Threshold
		}
		res, err := core.AnalyzeCtx(ctx, ss.b, opts)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = report.AppendString(append(b, `{"mode":`...), opts.Mode.Name())
		if b, err = report.AppendFloat(append(b, `,"threshold":`...), opts.FilterThreshold); err == nil {
			b, err = report.AppendJSON(append(b, `,"noise":`...), res, nil, nil)
		}
		if err != nil {
			return nil, fmt.Errorf("encoding sweep result: %w", err)
		}
		b = append(b, '}')
	}
	return append(b, "]}"...), nil
}

// --- HTTP surface -----------------------------------------------------

// jobRefusal is a refusal of the jobs manager in the words the API has always
// had for it, which say what the bare error cannot: the job's ID and final
// state, the queue's depth, the journal's own failure under what was refused
// ("job", "cancel"). Only the words are chosen here; the kind is classify's.
func (s *Server) jobRefusal(err error, what, id string, snap *report.JobJSON, session string) *ErrorInfo {
	info := inSession(err, session)
	var storage *jobs.StorageError
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		info.Message = fmt.Sprintf("job queue of %d is full", s.cfg.JobQueueDepth)
	case errors.Is(err, jobs.ErrDraining):
		// The drain is the server's, whatever session was asked for.
		info.Message, info.Session = "server is draining; no new jobs accepted", ""
	case errors.Is(err, jobs.ErrNotFound):
		info.Message = fmt.Sprintf("no job %q", id)
	case errors.Is(err, jobs.ErrTerminal):
		info.Message = fmt.Sprintf("job %q already finished as %s", id, snap.State)
	case errors.As(err, &storage):
		info.Message = fmt.Sprintf("%s not accepted: journal append failed: %v; retry once storage recovers", what, storage.Err)
	}
	return info
}

// handleSubmitJob is POST /v1/jobs: validate, journal, 202. The 202 is
// written only after the spec's journal append fsyncs; a full queue
// sheds with 429 and a sick disk refuses with 503 storage — in both
// cases nothing was acknowledged and nothing is owed.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) error {
	var spec jobs.Spec
	if err := decodeBody(r.Body, &spec); err != nil {
		return err
	}
	// The transport-level tenant wins over the body's: proxies stamp the
	// header per caller, and a spec replayed from a template must not
	// smuggle another tenant's identity.
	if t := tenantOf(r); t != "" {
		spec.Tenant = t
	}
	snap, err := s.jobs.Submit(&spec)
	if err != nil {
		if !retryable(err) {
			// A full queue, a drain and a sick journal are load; whatever
			// else Submit refuses, it refuses the spec.
			return badRequest(err, spec.Session)
		}
		return s.jobRefusal(err, "job", "", nil, spec.Session)
	}
	s.writeJob(w, http.StatusAccepted, snap)
	return nil
}

// handleListJobs is GET /v1/jobs, optionally filtered with ?state=:
// one of the lifecycle states, or the pseudo-state "quarantined"
// (failed jobs parked as poison — the ones an operator triages first).
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) error {
	all := s.jobs.List()
	state := r.URL.Query().Get("state")
	if state == "" {
		s.writeJobs(w, all)
		return nil
	}
	switch state {
	case "queued", "running", "done", "failed", "canceled", "quarantined":
	default:
		return badRequest(fmt.Errorf("unknown state filter %q (want queued|running|done|failed|canceled|quarantined)", state), "")
	}
	filtered := make([]report.JobJSON, 0, len(all))
	for _, j := range all {
		if state == "quarantined" {
			if j.Quarantined {
				filtered = append(filtered, j)
			}
		} else if j.State == state {
			filtered = append(filtered, j)
		}
	}
	s.writeJobs(w, filtered)
	return nil
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	snap, err := s.jobs.Get(id)
	if err != nil {
		return s.jobRefusal(err, "", id, nil, "")
	}
	s.writeJob(w, http.StatusOK, snap)
	return nil
}

// handleCancelJob is DELETE /v1/jobs/{id}. The cancel intent is
// journaled before the response: 200 when the job is already terminal
// in the canceled state, 202 while a running attempt unwinds, 409 for
// done/failed jobs (there is nothing left to cancel).
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	snap, err := s.jobs.Cancel(id)
	if err != nil {
		return s.jobRefusal(err, "cancel", id, snap, "")
	}
	// Constant statuses, so the ackorder analyzer can prove both are
	// acknowledgements that follow the journal append.
	if snap.State == string(jobs.StateCanceled) {
		s.writeJob(w, http.StatusOK, snap)
		return nil
	}
	s.writeJob(w, http.StatusAccepted, snap)
	return nil
}

// writeJob and writeJobs write what writeJSON would, except that a job's
// result goes out as the bytes its analysis encoded: writeJSON would re-scan
// and re-indent them, at many times the cost of the rest of the reply.
func (s *Server) writeJob(w http.ResponseWriter, status int, j *report.JobJSON) {
	writeBody(w, status, append(appendJob(nil, j, ""), '\n'))
}

// writeJobs writes a JobsResponse over jobs, which is never nil.
func (s *Server) writeJobs(w http.ResponseWriter, jobs []report.JobJSON) {
	b := []byte("{\n  \"jobs\": [")
	sep := "\n    "
	for i := range jobs {
		b = appendJob(append(b, sep...), &jobs[i], "    ")
		sep = ",\n    "
	}
	if len(jobs) > 0 {
		b = append(b, "\n  "...)
	}
	writeBody(w, http.StatusOK, append(b, "]\n}\n"...))
}

// appendJob appends j indented at prefix, its result spliced in last, where
// JobJSON declares it.
func appendJob(b []byte, j *report.JobJSON, prefix string) []byte {
	head := *j
	head.Result = nil
	env, _ := json.MarshalIndent(&head, prefix, "  ") // cannot fail: strings, ints and bools
	if len(j.Result) == 0 {
		return append(b, env...)
	}
	end := bytes.LastIndexByte(env, '\n')
	b = append(append(b, env[:end]...), ",\n"+prefix+`  "result": `...)
	return append(append(b, j.Result...), env[end:]...)
}
