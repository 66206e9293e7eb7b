// Package jobs is snad's durable asynchronous job subsystem: batch
// analyses (analyze / reanalyze / iterate / sweep) submitted over the
// HTTP API, each attempt run in a batch slot of the server's one engine
// pool (internal/fairq), with the same journal-before-acknowledge
// durability discipline as the session store.
//
// The contract, in the order the robustness machinery earns it:
//
//   - A 202-acknowledged submit is durable: the job spec is framed,
//     appended, and fsynced (internal/wal) before Submit returns, so a
//     crash immediately after cannot lose the job.
//
//   - Every state transition (queued → running → done/failed/canceled)
//     is journaled. A SIGKILL'd server replays the journal on boot:
//     queued jobs re-enqueue, in-flight jobs re-enqueue with their
//     interrupted attempt counted (the "start" record lands before the
//     attempt runs), finished jobs keep their results.
//
//   - Poison jobs are quarantined, not retried forever: each attempt
//     runs under a recover barrier, and a job that panics, degrades the
//     engine, or dies with the process MaxAttempts times is parked as
//     failed-with-Diag records — while the rest of the queue keeps
//     draining.
//
//   - Admission is bounded: past MaxQueued waiting jobs Submit refuses
//     with ErrQueueFull (the server maps it to 429 + Retry-After).
//
//   - Storage faults fail soft, never a lost ack: a journal append
//     failure refuses the submit with a StorageError (503 storage), and
//     the in-memory queue never runs ahead of the durable state.
//
//   - Graceful drain requeues: Close cancels running attempts through
//     their contexts and journals a "requeue" so a clean shutdown does
//     not burn an attempt.
//
//   - Progress rides the journal: an attempt may journal an opaque
//     progress payload (Progress.Save; the server's iterate executor saves
//     its round state after every fixpoint round), which the job's next
//     attempt — after a retry, a drain or a crash — is handed back, and
//     which the job's terminal record drops.
//
// The package is deliberately engine-agnostic: execution is an injected
// Executor callback, so the queue machinery is unit-testable without a
// design database, and the server owns the mapping from job specs onto
// sessions.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fairq"
	"repro/internal/report"
	"repro/internal/units"
	"repro/internal/wal"
)

// State is a job's position in the lifecycle state machine.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Spec is one job's work order — the JSON body of POST /v1/jobs. It is
// journaled verbatim, so everything needed to re-run the job after a
// restart lives here.
type Spec struct {
	// Session names the session the job runs against.
	Session string `json:"session"`
	// Tenant attributes the job for fair scheduling: batch slots go
	// round-robin across tenants with queued jobs, so one tenant flooding
	// the queue cannot starve another's submissions. Empty is the shared
	// anonymous tenant. Journaled with the spec, so fairness survives a
	// restart.
	Tenant string `json:"tenant,omitempty"`
	// Type is "analyze", "reanalyze", "iterate", or "sweep".
	Type string `json:"type"`
	// Delay includes the crosstalk delta-delay section in the result.
	Delay bool `json:"delay,omitempty"`
	// Padding is the per-net late-edge window padding of a reanalyze job
	// (seconds, max-monotonic — re-running a replayed job is absorbed).
	Padding map[string]float64 `json:"padding,omitempty"`
	// MaxRounds bounds an iterate job's fixpoint loop (0 = server
	// default).
	MaxRounds int `json:"maxRounds,omitempty"`
	// Shards overrides an iterate job's shard count (0 = one per healthy
	// worker).
	Shards int `json:"shards,omitempty"`
	// Local forces an iterate job onto the single-process path even when
	// workers are registered.
	Local bool `json:"local,omitempty"`
	// Sweep lists the scenario points of a sweep job, analyzed in order.
	Sweep []SweepPoint `json:"sweep,omitempty"`
	// Deadline bounds each execution attempt, as a duration string like
	// "90s". It may lower the server's 5m, never raise it (empty = 5m).
	Deadline string `json:"deadline,omitempty"`
	// MaxAttempts is the retry budget. It may lower the server's 3, never
	// raise it (0 = 3).
	MaxAttempts int `json:"maxAttempts,omitempty"`
}

// SweepPoint is one scenario of a sweep job: the session's design
// analyzed under an alternative mode/threshold.
type SweepPoint struct {
	// Mode overrides the combination policy ("all", "timing", "noise";
	// empty keeps the session's).
	Mode string `json:"mode,omitempty"`
	// Threshold overrides the aggressor filter threshold (0 keeps the
	// session's).
	Threshold float64 `json:"threshold,omitempty"`
}

// CheckValues holds window padding (seconds) and sweep thresholds to the
// one rule they share, units.FiniteNonNeg, and each sweep point's mode,
// when set, to one core.ParseMode reads. With several bad padding
// entries it names the alphabetically first net, so the message never
// depends on map order. It is the check every entry point applies: a job
// spec, a reanalyze request, and the snad flags that build them.
func CheckValues(padding map[string]float64, sweep []SweepPoint) error {
	first, found := "", false
	for net, pad := range padding {
		if !units.FiniteNonNeg(pad) && (!found || net < first) {
			first, found = net, true
		}
	}
	if found {
		return fmt.Errorf("bad padding %v for net %q (want finite seconds >= 0)", padding[first], first)
	}
	for i, pt := range sweep {
		if !units.FiniteNonNeg(pt.Threshold) {
			return fmt.Errorf("bad threshold %v in sweep point %d (want finite >= 0)", pt.Threshold, i)
		}
		if pt.Mode != "" {
			if _, err := core.ParseMode(pt.Mode); err != nil {
				return fmt.Errorf("sweep point %d: %v", i, err)
			}
		}
	}
	return nil
}

// Validate rejects specs that could never execute. It runs at submit
// (before the journal ack) and again at replay — a journaled spec that
// stops validating is quarantined, not retried forever.
func (s *Spec) Validate() error {
	if s.Session == "" {
		return fmt.Errorf("job session is required")
	}
	switch s.Type {
	case "analyze", "iterate":
	case "reanalyze":
		if len(s.Padding) == 0 {
			return fmt.Errorf("reanalyze job needs a padding map")
		}
	case "sweep":
		if len(s.Sweep) == 0 {
			return fmt.Errorf("sweep job needs at least one sweep point")
		}
	default:
		return fmt.Errorf("unknown job type %q (want analyze|reanalyze|iterate|sweep)", s.Type)
	}
	if err := CheckValues(s.Padding, s.Sweep); err != nil {
		return err
	}
	if s.Deadline != "" {
		d, err := time.ParseDuration(s.Deadline)
		if err != nil || d <= 0 {
			return fmt.Errorf("bad deadline %q (want a positive duration like 90s)", s.Deadline)
		}
	}
	if s.MaxAttempts < 0 {
		return fmt.Errorf("bad maxAttempts %d", s.MaxAttempts)
	}
	return nil
}

// Executor runs one attempt of one job. It returns the result payload
// (the bytes GET /v1/jobs/{id} serves once the job is done), whether
// the engine degraded, and an error. Wrap deterministic failures in
// Permanent so the manager fails fast instead of burning retries.
type Executor func(ctx context.Context, id string, spec *Spec, progress *Progress) (result json.RawMessage, degraded bool, err error)

// Progress is an attempt's handle on its job's progress record.
type Progress struct {
	m *Manager
	j *job
	// Last is the payload the job's last Save journaled, in this attempt
	// or an earlier one; nil when there is none.
	Last json.RawMessage
}

// Save journals payload, which must be valid JSON, as the job's progress,
// for the job's next attempt to start from. A failed append is returned
// for the caller to log, and the job keeps the progress it had.
func (p *Progress) Save(payload json.RawMessage) error {
	m := p.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.appendLocked(&record{Type: recProgress, ID: p.j.ID, Progress: payload}); err != nil {
		return err
	}
	p.j.Progress = payload
	m.compactLocked(false)
	return nil
}

// Config tunes a Manager. The zero value of every field has a usable
// default except Exec, which is required.
type Config struct {
	// Dir is the job journal directory; empty runs memory-only (jobs die
	// with the process — the pre-durability behavior).
	Dir string
	// Slots is the engine pool whose batch slots attempts run in; the
	// server shares it with its requests (default: a pool of its own with
	// two slots, one of them batch).
	Slots *fairq.Pool
	// MaxQueued bounds waiting jobs; Submit past it returns ErrQueueFull
	// (default 16).
	MaxQueued int
	// Hooks is the write-path fault-injection seam (chaos tests).
	Hooks wal.Hooks
	// Exec executes attempts. Required.
	Exec Executor
	// Fault, when set, fires at the top of every attempt before Exec. It
	// is the job-level fault seam, set only by tests (chaos.JobFaults.Fire),
	// and may panic, hang on ctx, force an error, or force a degraded
	// outcome.
	Fault func(ctx context.Context, jobType string) (degrade bool, err error)
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)

	// backoff is the base retry delay, doubled per failed attempt and
	// capped at 16x (default 250ms); this package's tests shorten it.
	backoff time.Duration
}

func (c *Config) fill() {
	if c.Slots == nil {
		c.Slots = fairq.NewPool(2, 0)
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 16
	}
	if c.backoff <= 0 {
		c.backoff = 250 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// A job's retry budget and per-attempt deadline: a spec may set less,
// never more (batch work gets more room than an interactive request's
// 30 s, but one submit must not hold an engine slot for weeks).
const (
	attemptBudget   = 3
	attemptDeadline = 5 * time.Minute
)

// keepDone bounds terminal-job retention: compaction prunes all but the
// newest this-many finished jobs.
const keepDone = 64

// Sentinel errors of the admission and cancel paths. StorageError wraps
// journal failures so the server can map them to 503 storage.
var (
	// ErrQueueFull refuses a submit past the MaxQueued bound (429).
	ErrQueueFull = errors.New("job queue is full")
	// ErrNotFound reports an unknown job ID (404).
	ErrNotFound = errors.New("no such job")
	// ErrTerminal refuses canceling a job that already finished (409).
	ErrTerminal = errors.New("job already finished")
	// ErrDraining refuses submits after Close began (503).
	ErrDraining = errors.New("job manager is draining")
)

// StorageError marks a journal append failure: the operation was NOT
// acknowledged and the in-memory state was not changed — retryable once
// the disk recovers.
type StorageError struct{ Err error }

func (e *StorageError) Error() string { return fmt.Sprintf("job journal: %v", e.Err) }
func (e *StorageError) Unwrap() error { return e.Err }

// permanentError marks an executor failure that would recur on any
// retry (unknown session, unbuildable spec).
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps an executor error so the manager fails the job
// immediately instead of retrying a deterministic failure.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err carries the Permanent marker.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// job is one job's runtime state: its durable part — what a compaction
// writes and a replay rebuilds — plus what is resolved from the spec or
// lives only while an attempt runs. Every field is guarded by the
// manager's mu.
type job struct {
	jobSnapshot
	maxAttempts int
	deadline    time.Duration
	// cancel ends the job's context: its wait for a slot, its backoff and
	// its running attempt. Set when the job is put in line.
	cancel context.CancelFunc
}

// newJob wraps a durable snapshot with the knobs its spec resolves to.
func newJob(s jobSnapshot) *job {
	return &job{jobSnapshot: s, maxAttempts: maxAttemptsOf(s.Spec), deadline: deadlineOf(s.Spec)}
}

// Manager owns the jobs and their journal. Open one with Open; it is
// safe for concurrent use.
type Manager struct {
	cfg Config

	mu     sync.Mutex
	log    *wal.Log // nil when memory-only
	nextID uint64
	jobs   map[string]*job
	closed bool

	// baseCtx dies when Close begins; every job's context derives from
	// it, so a drain withdraws waits and cancels running work
	// cooperatively. wg counts the jobs' run goroutines.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	doneTotal     atomic.Uint64
	failedTotal   atomic.Uint64
	canceledTotal atomic.Uint64
	quarantinedN  atomic.Uint64
}

// Open builds a Manager: replays the journal (when Dir is set),
// and finalizes or re-enqueues interrupted jobs.
// Like the session store, corrupt records never fail the boot — only a
// structurally unusable directory does. The returned Replay (nil when
// memory-only) says what the journal held and what was quarantined.
func Open(cfg Config) (*Manager, *wal.Replay, error) {
	cfg.fill()
	if cfg.Exec == nil {
		return nil, nil, fmt.Errorf("jobs: Config.Exec is required")
	}
	m := &Manager{
		cfg:    cfg,
		jobs:   make(map[string]*job),
		nextID: 1,
	}
	m.baseCtx, m.baseCancel = context.WithCancel(context.Background())
	var replay *wal.Replay
	if cfg.Dir != "" {
		var err error
		m.log, replay, err = wal.OpenLog(filepath.Join(cfg.Dir, journalFile), "jobs", cfg.Hooks, cfg.Logf, m.applyRecord)
		if err != nil {
			return nil, nil, err
		}
		// The meta record floors nextID past the jobs compaction pruned;
		// the jobs replayed on top of it floor it past themselves.
		for id := range m.jobs {
			var n uint64
			if _, serr := fmt.Sscanf(id, "job-%d", &n); serr == nil && n >= m.nextID {
				m.nextID = n + 1
			}
		}
		// Under the lock: a re-enqueued job's attempt may start at once.
		m.mu.Lock()
		m.compactLocked(false)
		m.recoverInterrupted()
		m.mu.Unlock()
	}
	return m, replay, nil
}

// Submit validates, journals, and enqueues one job, returning its
// acknowledged status snapshot. The journal append happens BEFORE the
// return — the ackorder discipline: a 202 the caller sends is backed by
// an fsynced record.
func (m *Manager) Submit(spec *Spec) (*report.JobJSON, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	if queued, _ := m.countLocked(); queued >= m.cfg.MaxQueued {
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	id := fmt.Sprintf("job-%06d", m.nextID)
	if err := m.appendLocked(&record{Type: recSubmit, ID: id, Spec: spec}); err != nil {
		m.mu.Unlock()
		return nil, &StorageError{Err: err}
	}
	m.nextID++
	j := newJob(jobSnapshot{ID: id, Spec: spec, State: StateQueued, SubmittedAt: time.Now().UTC()})
	m.jobs[id] = j
	m.startLocked(j)
	snap := m.snapshotLocked(j)
	m.compactLocked(false)
	m.mu.Unlock()
	m.cfg.Logf("jobs: %s submitted (%s on %q)", id, spec.Type, spec.Session)
	return snap, nil
}

// Get returns one job's status snapshot, or ErrNotFound.
func (m *Manager) Get(id string) (*report.JobJSON, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return nil, ErrNotFound
	}
	return m.snapshotLocked(j), nil
}

// List returns every retained job's status, sorted by ID (IDs are
// zero-padded, so lexical order is submission order).
func (m *Manager) List() []report.JobJSON {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := m.sortedIDsLocked()
	out := make([]report.JobJSON, 0, len(ids))
	for _, id := range ids {
		out = append(out, *m.snapshotLocked(m.jobs[id]))
	}
	return out
}

// Cancel requests a job's cancellation. The intent is journaled before
// the call returns (a crash after the ack must not resurrect the job as
// runnable): a queued job finalizes canceled immediately and leaves the
// line, a running job has its attempt context cancelled and finalizes
// when the executor returns. Canceling an already-canceled job is idempotent; canceling a
// done/failed job returns ErrTerminal.
func (m *Manager) Cancel(id string) (*report.JobJSON, error) {
	m.mu.Lock()
	j := m.jobs[id]
	if j == nil {
		m.mu.Unlock()
		return nil, ErrNotFound
	}
	if j.State.Terminal() || j.CancelRequested {
		var err error
		if j.State.Terminal() && j.State != StateCanceled {
			err = ErrTerminal
		}
		snap := m.snapshotLocked(j)
		m.mu.Unlock()
		return snap, err
	}
	// A job not yet claimed (or parked between retry attempts) can take
	// its terminal record right now; a running one gets the intent.
	final := j.State == StateQueued
	typ := recCancel
	if final {
		typ = recCanceled
	}
	if err := m.appendLocked(&record{Type: typ, ID: id}); err != nil {
		m.mu.Unlock()
		return nil, &StorageError{Err: err}
	}
	j.CancelRequested = true
	if final {
		m.finishLocked(j, StateCanceled, "", false, nil)
	}
	j.cancel()
	snap := m.snapshotLocked(j)
	m.mu.Unlock()
	m.cfg.Logf("jobs: %s cancel requested", id)
	return snap, nil
}

// Metrics is a point-in-time gauge/counter snapshot for /metrics and
// /readyz.
type Metrics struct {
	Queued          int
	Running         int
	Done            uint64
	Failed          uint64
	Canceled        uint64
	Quarantined     uint64
	StorageDegraded bool
}

// MetricsSnapshot collects the current job gauges and counters.
func (m *Manager) MetricsSnapshot() Metrics {
	m.mu.Lock()
	queued, running := m.countLocked()
	m.mu.Unlock()
	return Metrics{
		Queued:          queued,
		Running:         running,
		Done:            m.doneTotal.Load(),
		Failed:          m.failedTotal.Load(),
		Canceled:        m.canceledTotal.Load(),
		Quarantined:     m.quarantinedN.Load(),
		StorageDegraded: m.log != nil && m.log.Degraded(),
	}
}

// countLocked counts the waiting jobs (in the queue or parked between
// retry attempts) and the running ones.
func (m *Manager) countLocked() (queued, running int) {
	for _, j := range m.jobs {
		switch j.State {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
	}
	return queued, running
}

// Close drains the jobs: no new attempts start, waits for a slot are
// withdrawn, running attempts are cancelled through their contexts (an
// iterate job's journaled progress keeps its completed rounds), and a
// "requeue" record refunds each interrupted attempt so a clean shutdown
// never burns the retry budget. Blocks until every job's goroutine exits
// or budget elapses.
func (m *Manager) Close(budget time.Duration) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.baseCancel()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(budget):
		m.cfg.Logf("jobs: drain budget %s exceeded; abandoning the wait for running attempts", budget)
	}
	if m.log != nil {
		m.mu.Lock()
		m.log.Close()
		m.mu.Unlock()
	}
}

// --- running jobs -----------------------------------------------------

// startLocked puts j in line for a batch slot and starts the goroutine
// that runs its attempts. Joining here, under m.mu, keeps a tenant's jobs
// in the order they were submitted.
func (m *Manager) startLocked(j *job) {
	ctx, cancel := context.WithCancel(m.baseCtx)
	j.cancel = cancel
	t := m.cfg.Slots.Join(fairq.Batch, j.Spec.Tenant)
	m.wg.Add(1)
	go m.run(ctx, cancel, j, t)
}

// run drives j to a terminal state, one attempt per batch slot, or leaves
// it queued when the manager drains. The retry backoff holds no slot.
func (m *Manager) run(ctx context.Context, cancel context.CancelFunc, j *job, t *fairq.Ticket) {
	defer m.wg.Done()
	defer cancel()
	for t.Wait(ctx) == nil {
		backoff, failed := m.attempt(ctx, j)
		m.cfg.Slots.Release(fairq.Batch)
		if failed == "" {
			return
		}
		m.cfg.Logf("jobs: %s %s; retrying in %s", j.ID, failed, backoff)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			// Canceled, and final; or a drain: the failed attempt was
			// genuinely spent, and the journal replays the job to queued.
			return
		}
		t = m.cfg.Slots.Join(fairq.Batch, j.Spec.Tenant)
	}
}

// attempt runs j's next attempt in the slot the caller holds and records
// its outcome: a terminal state, a refunded attempt when the manager
// drains mid-attempt, or a retry after backoff, which failed then says
// what failed.
func (m *Manager) attempt(ctx context.Context, j *job) (backoff time.Duration, failed string) {
	m.mu.Lock()
	if j.State != StateQueued || m.closed {
		// Canceled while in line, or drain began: a queued job's journal
		// state already replays to queued.
		m.mu.Unlock()
		return 0, ""
	}
	attempt := j.Attempts + 1
	// The start record lands BEFORE the attempt runs, so a process
	// death mid-attempt still consumes the attempt on replay — the
	// poison-quarantine counter survives crashes. An append failure
	// here is logged and the attempt runs anyway: refusing work
	// because bookkeeping failed would turn a sick disk into a dead
	// queue.
	if err := m.appendLocked(&record{Type: recStart, ID: j.ID, Attempt: attempt}); err != nil {
		m.cfg.Logf("jobs: %s attempt %d not journaled (running anyway): %v", j.ID, attempt, err)
	}
	j.Attempts = attempt
	j.State = StateRunning
	j.StartedAt = time.Now().UTC()
	actx, acancel := context.WithTimeout(ctx, j.deadline)
	progress := &Progress{m: m, j: j, Last: j.Progress}
	m.mu.Unlock()

	result, degraded, err, panicked := m.safeExec(actx, j, progress)
	deadlineHit := actx.Err() == context.DeadlineExceeded
	acancel()

	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case j.CancelRequested && (err != nil || degraded):
		// Any failure after a cancel request is attributed to the
		// cancel; a fully successful result still wins below.
		m.finalizeLocked(j, StateCanceled, "", false, nil)
		return 0, ""
	case err == nil && !degraded:
		m.finalizeLocked(j, StateDone, "", false, result)
		return 0, ""
	case m.closed && err != nil && !IsPermanent(err):
		// The drain cancelled the attempt; refund it so a clean
		// shutdown costs no retry budget. Replay of start+requeue
		// nets out to a queued job.
		if aerr := m.appendLocked(&record{Type: recRequeue, ID: j.ID, Attempt: attempt}); aerr != nil {
			m.cfg.Logf("jobs: %s requeue not journaled (replay will count the attempt): %v", j.ID, aerr)
		}
		j.Attempts--
		j.State = StateQueued
		return 0, ""
	}

	// A failed attempt: classify, record the diagnostic, then retry,
	// quarantine, or fail.
	stage := "error"
	switch {
	case panicked:
		stage = "panic"
	case err == nil && degraded:
		stage = "degraded"
	case deadlineHit:
		stage = "deadline"
	}
	msg := "engine degraded the analysis"
	if err != nil {
		msg = err.Error()
	}
	m.failAttemptLocked(j, stage, msg)

	if IsPermanent(err) {
		m.finalizeLocked(j, StateFailed, msg, false, nil)
		return 0, ""
	}
	if j.Attempts >= j.maxAttempts {
		// Out of budget. Panic and degraded outcomes mark the job as
		// poison — quarantined so operators can tell "this job broke
		// the engine" from "this job just kept failing". A degraded
		// last result is retained as evidence.
		quarantine := stage == "panic" || stage == "degraded"
		var keep json.RawMessage
		if stage == "degraded" {
			keep = result
		}
		m.finalizeLocked(j, StateFailed,
			fmt.Sprintf("%s on attempt %d/%d: %s", stage, attempt, j.maxAttempts, msg),
			quarantine, keep)
		return 0, ""
	}
	// Park as queued during the backoff: a Cancel in this window
	// takes the immediate queued path, and the next attempt's state
	// check honors it.
	j.State = StateQueued
	return m.backoffFor(j.Attempts), fmt.Sprintf("attempt %d/%d failed (%s): %s", attempt, j.maxAttempts, stage, msg)
}

// failAttemptLocked records the diagnostic of the job's current attempt
// on the job and, fail-soft, in the journal.
func (m *Manager) failAttemptLocked(j *job, stage, msg string) {
	j.Diags = append(j.Diags, report.JobDiagJSON{
		Attempt: j.Attempts, Stage: stage, Error: msg, Time: time.Now().UTC().Format(time.RFC3339Nano),
	})
	if err := m.appendLocked(&record{Type: recAttempt, ID: j.ID, Attempt: j.Attempts, Stage: stage, Error: msg}); err != nil {
		m.cfg.Logf("jobs: %s %s diag not journaled: %v", j.ID, stage, err)
	}
}

// safeExec runs one attempt under the recover barrier: a panicking
// executor (or fault hook) kills the attempt, not the worker.
func (m *Manager) safeExec(ctx context.Context, j *job, progress *Progress) (result json.RawMessage, degraded bool, err error, panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			result, degraded = nil, false
			err = fmt.Errorf("job executor panicked: %v", p)
			panicked = true
		}
	}()
	if m.cfg.Fault != nil {
		d, ferr := m.cfg.Fault(ctx, j.Spec.Type)
		if ferr != nil {
			return nil, d, ferr, false
		}
		degraded = d
	}
	res, d, err := m.cfg.Exec(ctx, j.ID, j.Spec, progress)
	return res, degraded || d, err, false
}

// backoffFor is the exponential retry delay: backoff × 2^(attempts-1),
// capped at 16×, so a failing job retries within seconds; the wait holds
// no engine slot.
func (m *Manager) backoffFor(attempts int) time.Duration {
	d := m.cfg.backoff
	for i := 1; i < attempts && d < 16*m.cfg.backoff; i++ {
		d *= 2
	}
	if d > 16*m.cfg.backoff {
		d = 16 * m.cfg.backoff
	}
	return d
}

// finalizeLocked journals and applies a terminal transition. The append
// is fail-soft: the work already happened, and the state is preserved
// in memory even when the disk refuses the record (the next boot may
// then re-run the job — re-running a completed analysis is idempotent
// by the engine's determinism oracle, while losing an acknowledged
// result would not be).
func (m *Manager) finalizeLocked(j *job, state State, errMsg string, quarantined bool, result json.RawMessage) {
	var typ string
	switch state {
	case StateDone:
		typ = recDone
	case StateCanceled:
		typ = recCanceled
	default:
		typ = recFail
	}
	if err := m.appendLocked(&record{Type: typ, ID: j.ID, Error: errMsg, Quarantined: quarantined, Result: result}); err != nil {
		m.cfg.Logf("jobs: %s %s record not journaled: %v", j.ID, typ, err)
	}
	m.finishLocked(j, state, errMsg, quarantined, result)
}

// finishLocked applies a terminal transition whose record the caller has
// journaled (Cancel of a queued job, which must refuse the ack when the
// append fails) or finalizeLocked has tried to.
func (m *Manager) finishLocked(j *job, state State, errMsg string, quarantined bool, result json.RawMessage) {
	j.State, j.Progress = state, nil
	j.Error = errMsg
	j.Quarantined = quarantined
	if result != nil {
		j.Result = result
	}
	j.FinishedAt = time.Now().UTC()
	switch state {
	case StateDone:
		m.doneTotal.Add(1)
	case StateCanceled:
		m.canceledTotal.Add(1)
	default:
		m.failedTotal.Add(1)
		if quarantined {
			m.quarantinedN.Add(1)
		}
	}
	m.compactLocked(false)
	m.cfg.Logf("jobs: %s -> %s%s", j.ID, state, map[bool]string{true: " (quarantined)", false: ""}[quarantined])
}

// --- resolved knobs and snapshots -------------------------------------

func maxAttemptsOf(s *Spec) int {
	if s.MaxAttempts > 0 {
		return min(s.MaxAttempts, attemptBudget)
	}
	return attemptBudget
}

func deadlineOf(s *Spec) time.Duration {
	if s.Deadline != "" {
		if d, err := time.ParseDuration(s.Deadline); err == nil && d > 0 {
			return min(d, attemptDeadline)
		}
	}
	return attemptDeadline
}

func (m *Manager) snapshotLocked(j *job) *report.JobJSON {
	out := &report.JobJSON{
		ID:              j.ID,
		Session:         j.Spec.Session,
		Type:            j.Spec.Type,
		Tenant:          j.Spec.Tenant,
		State:           string(j.State),
		Attempts:        j.Attempts,
		MaxAttempts:     j.maxAttempts,
		Error:           j.Error,
		Quarantined:     j.Quarantined,
		Deadline:        j.deadline.String(),
		CancelRequested: j.CancelRequested && !j.State.Terminal(),
		Result:          j.Result,
		SubmittedAt:     fmtTime(j.SubmittedAt),
		StartedAt:       fmtTime(j.StartedAt),
		FinishedAt:      fmtTime(j.FinishedAt),
	}
	if len(j.Diags) > 0 {
		out.Diags = append([]report.JobDiagJSON(nil), j.Diags...)
	}
	return out
}
