package jobs

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"repro/internal/report"
)

// The job journal is one journaled log (internal/wal.Log), jobs.wal, of
// state transitions. The log owns replay, sequence numbers, tail repair,
// quarantine and the atomic rewrite; this file owns the record schema,
// what each record does to the job table, and which jobs a compaction
// keeps.
//
// Record types, in lifecycle order:
//
//	submit    {id, spec}            the durable ack behind POST /v1/jobs
//	start     {id, attempt}         appended BEFORE an attempt runs, so a
//	                                crash mid-attempt still consumes it
//	attempt   {id, attempt, stage,  a failed attempt's diagnostic
//	           error}
//	requeue   {id, attempt}         a drain interrupted the attempt; it
//	                                is refunded (replay decrements)
//	progress  {id, progress}        an attempt's opaque progress payload,
//	                                handed to the job's next attempt
//	cancel    {id}                  cancel intent (journaled before the
//	                                DELETE ack; the terminal record follows
//	                                when the attempt unwinds)
//	done      {id, result}          terminal: success, with the payload
//	fail      {id, error,           terminal: retries exhausted or
//	           quarantined}         permanent failure
//	canceled  {id}                  terminal: cancel completed
//	                                (each terminal record drops the
//	                                job's progress)
//	job       {job}                 a full snapshot, written by compaction
//	meta      {nextId}              the ID counter, so pruning terminal
//	                                jobs never reuses their IDs
const (
	recSubmit   = "submit"
	recStart    = "start"
	recAttempt  = "attempt"
	recRequeue  = "requeue"
	recProgress = "progress"
	recCancel   = "cancel"
	recDone     = "done"
	recFail     = "fail"
	recCanceled = "canceled"
	recJob      = "job"
	recMeta     = "meta"
)

const journalFile = "jobs.wal"

// record is one journaled job event.
type record struct {
	Type        string          `json:"type"`
	ID          string          `json:"id,omitempty"`
	Spec        *Spec           `json:"spec,omitempty"`
	Attempt     int             `json:"attempt,omitempty"`
	Stage       string          `json:"stage,omitempty"`
	Error       string          `json:"error,omitempty"`
	Quarantined bool            `json:"quarantined,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	Progress    json.RawMessage `json:"progress,omitempty"`
	Job         *jobSnapshot    `json:"job,omitempty"`
	NextID      uint64          `json:"nextId,omitempty"`
}

// jobSnapshot is a job's full durable state: what the record chain of
// one job replays to, and what compaction collapses that chain into.
type jobSnapshot struct {
	ID              string               `json:"id"`
	Spec            *Spec                `json:"spec"`
	State           State                `json:"state"`
	Attempts        int                  `json:"attempts"`
	Diags           []report.JobDiagJSON `json:"diags,omitempty"`
	Error           string               `json:"error,omitempty"`
	Quarantined     bool                 `json:"quarantined,omitempty"`
	Result          json.RawMessage      `json:"result,omitempty"`
	CancelRequested bool                 `json:"cancelRequested,omitempty"`
	SubmittedAt     time.Time            `json:"submittedAt"`
	StartedAt       time.Time            `json:"startedAt"`
	FinishedAt      time.Time            `json:"finishedAt"`
	// Progress is the last payload an attempt saved, until the job ends.
	Progress json.RawMessage `json:"progress,omitempty"`
}

// appendLocked journals one record. Callers decide whether a failure is
// fatal to their operation (submit/cancel: yes, the ack is refused) or
// fail-soft (attempt bookkeeping: the work proceeds). Memory-only
// managers (no Dir) treat every append as a success.
func (m *Manager) appendLocked(rec *record) error {
	if m.log == nil {
		return nil
	}
	payload, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	return m.log.Append(payload)
}

// encodeRecord marshals rec with its job's result and progress spliced in
// as the stored bytes they are: an encoder wrote them, or replay decoded
// them, so they are valid JSON that encoding/json would only re-scan, on
// every append and rewrite. They go last in their object; replay reads by
// name.
func encodeRecord(rec *record) ([]byte, error) {
	head := *rec
	head.Result, head.Progress, head.Job = nil, nil, nil
	b, err := json.Marshal(&head)
	if snap := rec.Job; err == nil && snap != nil {
		js := *snap
		js.Result, js.Progress = nil, nil
		var jb []byte
		if jb, err = json.Marshal(&js); err == nil {
			b = splice(b, "job", splice(splice(jb, "progress", snap.Progress), "result", snap.Result))
		}
	}
	if err != nil {
		return nil, fmt.Errorf("encoding %s record: %w", rec.Type, err)
	}
	return splice(splice(b, "progress", rec.Progress), "result", rec.Result), nil
}

// splice adds the member key: raw, unless raw is empty, to the end of the
// encoded object obj, which has members already.
func splice(obj []byte, key string, raw []byte) []byte {
	if len(raw) == 0 {
		return obj
	}
	obj = append(append(obj[:len(obj)-1], `,"`+key+`":`...), raw...)
	return append(obj, '}')
}

// applyRecord folds one replayed journal record, appended at instant at,
// into the in-memory job table. Returned errors mean the record was
// unreplayable (the log quarantines it); they never abort the replay.
func (m *Manager) applyRecord(payload []byte, at time.Time) error {
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return fmt.Errorf("undecodable record: %v", err)
	}
	switch rec.Type {
	case recMeta:
		if rec.NextID > m.nextID {
			m.nextID = rec.NextID
		}
		return nil
	case recJob:
		s := rec.Job
		if s == nil || s.ID == "" || s.Spec == nil {
			return fmt.Errorf("job snapshot record missing id or spec")
		}
		if err := s.Spec.Validate(); err != nil {
			return fmt.Errorf("unreplayable job spec for %s: %v", s.ID, err)
		}
		m.jobs[s.ID] = newJob(*s)
		return nil
	case recSubmit:
		if rec.ID == "" || rec.Spec == nil {
			return fmt.Errorf("submit record missing id or spec")
		}
		if err := rec.Spec.Validate(); err != nil {
			// A spec that journaled but no longer validates can never
			// execute; quarantining beats an eternal retry loop.
			return fmt.Errorf("unreplayable job spec for %s: %v", rec.ID, err)
		}
		m.jobs[rec.ID] = newJob(jobSnapshot{ID: rec.ID, Spec: rec.Spec, State: StateQueued, SubmittedAt: at})
		return nil
	}

	j := m.jobs[rec.ID]
	if j == nil {
		return fmt.Errorf("%s record for unknown job %q", rec.Type, rec.ID)
	}
	switch rec.Type {
	case recStart:
		j.Attempts = rec.Attempt
		j.State = StateRunning
		j.StartedAt = at
	case recAttempt:
		j.Diags = append(j.Diags, report.JobDiagJSON{
			Attempt: rec.Attempt,
			Stage:   rec.Stage,
			Error:   rec.Error,
			Time:    at.Format(time.RFC3339Nano),
		})
		// The attempt concluded; until a new start record the job is
		// retry-pending, i.e. queued.
		j.State = StateQueued
	case recRequeue:
		// A drain interrupted the attempt cooperatively; refund it.
		if j.Attempts > 0 {
			j.Attempts--
		}
		j.State = StateQueued
	case recProgress:
		j.Progress = rec.Progress
	case recCancel:
		j.CancelRequested = true
	case recDone:
		j.State, j.Progress = StateDone, nil
		j.Result = rec.Result
		j.FinishedAt = at
	case recFail:
		j.State, j.Progress = StateFailed, nil
		j.Error = rec.Error
		j.Quarantined = rec.Quarantined
		if len(rec.Result) > 0 {
			j.Result = rec.Result
		}
		j.FinishedAt = at
	case recCanceled:
		j.State, j.Progress = StateCanceled, nil
		j.CancelRequested = true
		j.FinishedAt = at
	default:
		return fmt.Errorf("unknown record type %q", rec.Type)
	}
	return nil
}

// recoverInterrupted normalizes post-replay state: every non-terminal
// job either re-enqueues or — when the process death itself exhausted
// the attempt budget — quarantines as a poison job. Runs after the
// journal writer reopens so the decisions are themselves journaled.
func (m *Manager) recoverInterrupted() {
	for _, id := range m.sortedIDsLocked() {
		j := m.jobs[id]
		if j.State.Terminal() {
			continue
		}
		if j.State == StateRunning {
			// The process died mid-attempt: the start record consumed the
			// attempt; record what happened to it.
			m.failAttemptLocked(j, "interrupted", "process exited mid-attempt")
		}
		switch {
		case j.CancelRequested:
			// Cancel intent was durable but the terminal record was not;
			// honor the intent.
			m.finalizeLocked(j, StateCanceled, "", false, nil)
		case j.Attempts >= j.maxAttempts:
			// Every budgeted attempt died with the process — the poison
			// signature a recover barrier can't catch.
			m.finalizeLocked(j, StateFailed,
				fmt.Sprintf("interrupted by process exit on attempt %d/%d", j.Attempts, j.maxAttempts),
				true, nil)
		default:
			j.State = StateQueued
			m.startLocked(j)
			m.cfg.Logf("jobs: %s re-enqueued after restart (attempt %d/%d)", id, j.Attempts, j.maxAttempts)
		}
	}
}

// sortedIDsLocked lists every retained job's ID; IDs are zero-padded, so
// lexical order is submission order.
func (m *Manager) sortedIDsLocked() []string {
	ids := make([]string, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// compactLocked rewrites the journal — when the log says a rewrite is
// due, or when force is set — as the nextID floor plus one snapshot
// record per retained job, pruning all but the newest keepDone terminal
// jobs. The pruning takes effect in memory only once the rewrite has
// committed; a failed one leaves journal and job table as they were and
// is retried after the next append.
func (m *Manager) compactLocked(force bool) {
	if m.log == nil || !force && !m.log.Due() {
		return
	}
	ids := m.sortedIDsLocked()
	// Walking back from the newest ID keeps the newest terminal jobs.
	keep := make(map[string]bool, len(ids))
	terminal := 0
	for i := len(ids) - 1; i >= 0; i-- {
		if !m.jobs[ids[i]].State.Terminal() {
			keep[ids[i]] = true
		} else if terminal < keepDone {
			keep[ids[i]] = true
			terminal++
		}
	}
	err := m.log.Rewrite(func(emit func([]byte) error) error {
		put := func(rec *record) error {
			payload, err := encodeRecord(rec)
			if err != nil {
				return err
			}
			return emit(payload)
		}
		if err := put(&record{Type: recMeta, NextID: m.nextID}); err != nil {
			return err
		}
		for _, id := range ids {
			if !keep[id] {
				continue
			}
			if err := put(&record{Type: recJob, Job: &m.jobs[id].jobSnapshot}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		m.cfg.Logf("jobs: compaction failed (will retry): %v", err)
		return
	}
	for _, id := range ids {
		if !keep[id] {
			delete(m.jobs, id)
		}
	}
}

func fmtTime(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.Format(time.RFC3339Nano)
}
