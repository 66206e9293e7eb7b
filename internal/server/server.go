// Package server implements snad, the fail-soft static-noise-analysis
// service: an HTTP/JSON daemon that loads designs into named sessions
// (each wrapping core.Session, the persistent incremental analyzer) and
// serves analyze / delta-reanalyze / report queries.
//
// Robustness is the point, not a feature:
//
//   - Bounded admission: at most MaxConcurrent analyses run at once and at
//     most QueueDepth requests wait; overflow is shed immediately with
//     429 and a Retry-After hint, so a traffic spike degrades into fast
//     rejections instead of unbounded memory growth and timeouts.
//
//   - Per-request deadlines: the effective deadline is the tighter of the
//     client's ?timeout and the server's MaxRequestTimeout, propagated
//     into core.AnalyzeCtx's cooperative cancellation. No request can
//     hold a worker forever.
//
//   - Per-request panic isolation: a recover barrier converts a handler
//     panic into a structured 500 and marks the session suspect; other
//     requests and other sessions are untouched. (Per-victim panics never
//     even reach it — the engine's own fail-soft isolation degrades the
//     victim and reports a diagnostic.)
//
//   - A degradation-aware circuit breaker per session: consecutive
//     engine-degraded results trip the session to 503 for a cooldown, so
//     a poisoned design stops burning worker time while healthy sessions
//     keep serving.
//
//   - Graceful drain: Drain stops admission (readyz flips to 503), lets
//     in-flight work finish within a budget, then cancels whatever is
//     left through the same context plumbing. The caller (cmd/snad) maps
//     a clean or forced drain onto the exit-code discipline.
//
//   - Durable sessions: with Config.DataDir set, session lifecycle events
//     (create, cumulative reanalyze padding, delete) are journaled —
//     fsynced and CRC-framed — before the response is acknowledged, and
//     boot replays the journal fail-soft: corrupt records are quarantined
//     with a reason, healthy sessions come back, and a SIGKILL at any
//     instant never prevents the next boot (store.go).
//     LRU-evicting a persisted session keeps it reloadable: a later
//     request transparently re-materializes it from its stored sources.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"path/filepath"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/lint"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/shard"
	"repro/internal/sta"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Config tunes the service. The zero value is usable: every field has a
// production-shaped default.
type Config struct {
	// MaxSessions caps the number of loaded sessions; creating one past
	// the cap evicts the least-recently-used idle session, and if every
	// session is busy the create is shed (default 8).
	MaxSessions int
	// MaxConcurrent caps simultaneously running analyses (default
	// GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth caps requests waiting for a worker slot; overflow is
	// shed with 429 (default 2×MaxConcurrent).
	QueueDepth int
	// MaxRequestTimeout is the server-side ceiling on one request's
	// analysis deadline; a client ?timeout tighter than this wins
	// (default 30s).
	MaxRequestTimeout time.Duration
	// RetryAfter is the hint attached to 429 shed responses (default 1s).
	RetryAfter time.Duration
	// BreakerTrips is the number of consecutive engine-degraded results
	// that trip a session's circuit breaker (default 3).
	BreakerTrips int
	// BreakerCooldown is how long a tripped session sheds requests before
	// going half-open (default 10s).
	BreakerCooldown time.Duration
	// MemBudget is the server-wide byte budget for cached bound designs
	// (serve -mem-budget). Creating or re-materializing a session charges
	// the design's measured size against it; when idle-entry eviction
	// cannot make room the request sheds with 503 kind "budget" instead
	// of growing until the OOM killer arrives. 0 disables budgeting.
	MemBudget int64
	// TenantCap caps one tenant's simultaneously running interactive
	// analyses, so round-robin admission stays fair even against a tenant
	// that floods the queue (default MaxConcurrent — no per-tenant cap).
	TenantCap int
	// JobTenantCap caps one tenant's simultaneously running jobs in the
	// async worker pool (default JobWorkers — no per-tenant cap).
	JobTenantCap int
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)

	// DataDir enables durable sessions: lifecycle events are journaled
	// here and replayed on boot. Empty runs memory-only (sessions die
	// with the process), the pre-persistence behavior.
	DataDir string
	// StoreFaultSpec injects faults into the store's write path (see
	// workload.ParseStoreFaults). It exists for chaos-testing the
	// recovery machinery; production leaves it empty. The same faults
	// apply to the job journal's write path.
	StoreFaultSpec string

	// JobWorkers sizes the async job worker pool — deliberately separate
	// from MaxConcurrent so queued batch work cannot starve interactive
	// requests (default 2).
	JobWorkers int
	// JobQueueDepth caps jobs waiting for a job worker; POST /v1/jobs
	// past it is shed with 429 (default 16).
	JobQueueDepth int
	// JobKeepDone bounds terminal-job retention for status queries
	// (default 64). High-throughput batch callers that poll for results
	// need retention deeper than their poll interval times the completion
	// rate, or a finished job can be pruned before its submitter sees it.
	JobKeepDone int
	// JobMaxAttempts is the default retry budget for jobs that don't set
	// their own (default 3).
	JobMaxAttempts int
	// JobDeadline is the default per-attempt execution budget for jobs
	// that don't set their own (default 5m — batch work gets more room
	// than MaxRequestTimeout gives an interactive request).
	JobDeadline time.Duration
	// JobFaultSpec injects faults into job execution attempts (see
	// workload.ParseJobFaults); chaos testing only.
	JobFaultSpec string

	// WorkerDialer builds a shard.Worker for a registered worker URL. It
	// is injected by cmd/snad (the client package implements it, and the
	// server cannot import the client); nil disables worker registration
	// and distributed iterate.
	WorkerDialer func(name, url string) shard.Worker
	// Shards is the default shard count for distributed iterate (0 = one
	// shard per healthy worker).
	Shards int
	// HeartbeatEvery is the worker health-probe interval (default 2s).
	HeartbeatEvery time.Duration

	// now is the clock, injectable for breaker tests.
	now func() time.Time
}

func (c *Config) fill() {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.MaxConcurrent
	}
	if c.MaxRequestTimeout <= 0 {
		c.MaxRequestTimeout = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.BreakerTrips <= 0 {
		c.BreakerTrips = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 2 * time.Second
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.JobQueueDepth <= 0 {
		c.JobQueueDepth = 16
	}
	if c.JobMaxAttempts <= 0 {
		c.JobMaxAttempts = 3
	}
	if c.JobDeadline <= 0 {
		c.JobDeadline = 5 * time.Minute
	}
	if c.now == nil {
		c.now = time.Now
	}
}

// Server is the snad service state. Create one with New, serve
// Handler(), and call Drain on shutdown.
type Server struct {
	cfg Config

	// gate is the bounded, tenant-fair admission controller: at most
	// MaxConcurrent analyses run, at most QueueDepth wait, and waiters
	// are granted round-robin across tenants with a per-tenant running
	// cap (tenant.go).
	gate *admission

	// cache is the content-addressed shared design cache: sessions and
	// shard run tokens hold refcounted entries, and the optional byte
	// budget governs create/re-materialize admission (cache.go).
	cache *designCache

	// flightMu orders request entry against the drain flag so Drain's
	// WaitGroup wait cannot race a late arrival.
	flightMu  sync.Mutex
	draining  atomic.Bool
	inflight  sync.WaitGroup
	inflightN atomic.Int64
	shedN     atomic.Int64

	// Per-stage latency histograms served by GET /metrics.
	histAdmission *metrics.Histogram
	histAnalysis  *metrics.Histogram
	histFsync     *metrics.Histogram
	histJobRun    *metrics.Histogram

	// forceCtx is cancelled when a drain exceeds its budget; every
	// request context is derived to die with it.
	forceCtx    context.Context
	forceCancel context.CancelFunc

	mu       sync.Mutex
	sessions map[string]*session
	lastUsed map[string]time.Time

	// store is the durable session store (nil when DataDir is empty);
	// recovery is the boot replay report /v1/recovery serves.
	store    *Store
	recovery *report.RecoveryJSON

	// jobs owns the durable async job queue and its worker pool.
	jobs *jobs.Manager

	// shardHost keeps the shard engines this server hosts as a worker;
	// shardMu guards the per-run-token design references its engines share
	// (a bound design is immutable after binding).
	shardHost    *shard.Host
	shardMu      sync.Mutex
	shardDesigns map[string]*sharedDesign

	// workerMu guards the registered shard workers (this server as
	// coordinator); hbStop ends the heartbeat loop, started on the first
	// registration.
	workerMu sync.Mutex
	workers  map[string]*workerEntry
	hbOnce   sync.Once
	hbStop   chan struct{}

	handler http.Handler
}

// New builds a Server. It fails only when the configured data directory
// is structurally unusable (cannot be created, journal cannot be opened
// for append) — corrupt durable state never fails New; it is quarantined
// and reported through /v1/recovery instead.
//
//snavet:ctxloop boot-time merge of the job journal's replay summary, before any request context exists; bounded by what replay quarantined
func New(cfg Config) (*Server, error) {
	cfg.fill()
	s := &Server{
		cfg:          cfg,
		gate:         newAdmission(cfg.MaxConcurrent, cfg.QueueDepth, cfg.TenantCap),
		cache:        newDesignCache(cfg.MemBudget, cfg.now, cfg.Logf),
		sessions:     make(map[string]*session),
		lastUsed:     make(map[string]time.Time),
		shardDesigns: make(map[string]*sharedDesign),
		workers:      make(map[string]*workerEntry),
		hbStop:       make(chan struct{}),

		histAdmission: metrics.NewHistogram("snad_admission_wait_seconds", "Time requests spend waiting for a worker slot.", nil),
		histAnalysis:  metrics.NewHistogram("snad_analysis_seconds", "Engine time of completed analysis requests.", nil),
		histFsync:     metrics.NewHistogram("snad_journal_fsync_seconds", "Durable session-journal append latency (fsync included).", nil),
		histJobRun:    metrics.NewHistogram("snad_job_run_seconds", "Wall time of async job execution attempts.", nil),
	}
	s.shardHost = shard.NewHost(s.designForToken, s.dropTokenDesign)
	s.forceCtx, s.forceCancel = context.WithCancel(context.Background())
	faults, err := workload.ParseStoreFaults(cfg.StoreFaultSpec)
	if err != nil {
		return nil, err
	}
	// The job journal shares the data directory and the injected
	// write-path faults with the session store, but is its own log: the
	// two subsystems fail and recover independently.
	var hooks wal.Hooks
	if faults != nil {
		hooks = wal.Hooks{BeforeWrite: faults.BeforeWrite, BeforeSync: faults.BeforeSync, BeforeRename: faults.BeforeRename}
	}
	if cfg.DataDir != "" {
		st, rep, err := OpenStore(cfg.DataDir, hooks, s.histFsync, cfg.Logf)
		if err != nil {
			return nil, err
		}
		s.store, s.recovery = st, rep
		s.restoreSessions()
	}
	jobFaults, err := workload.ParseJobFaults(cfg.JobFaultSpec)
	if err != nil {
		return nil, err
	}
	jcfg := jobs.Config{
		Workers:            cfg.JobWorkers,
		MaxQueued:          cfg.JobQueueDepth,
		KeepDone:           cfg.JobKeepDone,
		TenantCap:          cfg.JobTenantCap,
		DefaultMaxAttempts: cfg.JobMaxAttempts,
		DefaultDeadline:    cfg.JobDeadline,
		Exec:               s.execJob,
		OnFinal:            s.jobFinal,
		Logf:               cfg.Logf,
	}
	if jobFaults != nil {
		jcfg.Fault = jobFaults.Fire
	}
	if cfg.DataDir != "" {
		jcfg.Dir, jcfg.Hooks = filepath.Join(cfg.DataDir, "jobs"), hooks
	}
	jm, replay, err := jobs.Open(jcfg)
	if err != nil {
		if s.store != nil {
			s.store.Close()
		}
		return nil, err
	}
	s.jobs = jm
	if replay != nil {
		// One recovery report for both journals; the job journal's entries
		// carry source "jobs" and paths under jobs/.
		s.recovery.Records += replay.Records
		s.recovery.TornTail = s.recovery.TornTail || replay.TornTail
		for _, q := range replay.Quarantined {
			q.File = filepath.Join("jobs", q.File)
			s.recovery.Quarantined = append(s.recovery.Quarantined, q)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /v1/recovery", s.handleRecovery)
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("GET /v1/sessions", s.handleList)
	mux.HandleFunc("GET /v1/sessions/{name}", s.handleInfo)
	mux.HandleFunc("DELETE /v1/sessions/{name}", s.handleDelete)
	mux.HandleFunc("POST /v1/sessions/{name}/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/sessions/{name}/reanalyze", s.handleReanalyze)
	mux.HandleFunc("POST /v1/sessions/{name}/iterate", s.handleIterate)
	mux.HandleFunc("GET /v1/sessions/{name}/report", s.handleReport)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/shard/{op}", s.handleShardOp)
	mux.HandleFunc("POST /v1/workers", s.handleRegisterWorker)
	mux.HandleFunc("GET /v1/workers", s.handleListWorkers)
	s.handler = s.barrier(mux)
	return s, nil
}

// restoreSessions eagerly re-materializes recovered sessions into memory,
// up to the session cap; the remainder stay on disk and re-materialize
// lazily on first access. A spec whose sources no longer build is
// quarantined — the server still boots with every healthy session.
func (s *Server) restoreSessions() {
	names := s.store.Names()
	loaded := 0
	for _, name := range names {
		if loaded >= s.cfg.MaxSessions {
			s.cfg.Logf("restore: %d session(s) beyond the cap of %d stay on disk, reloadable on access", len(names)-loaded, s.cfg.MaxSessions)
			break
		}
		sp := s.store.Spec(name)
		if sp == nil {
			continue
		}
		ss, einfo := s.materialize(context.Background(), name, sp)
		if einfo != nil {
			if einfo.Kind == "budget" {
				// Out of memory budget, not an unreplayable spec: leave it
				// on disk for lazy revive once memory frees up.
				s.cfg.Logf("restore: %q stays on disk (memory budget): %s", name, einfo.Message)
				continue
			}
			s.quarantineSpec(name, einfo.Message)
			continue
		}
		if einfo := s.insert(ss); einfo != nil {
			s.cache.release(ss.entry)
			s.cfg.Logf("restore: %q stays on disk: %s", name, einfo.Message)
			continue
		}
		loaded++
		s.cfg.Logf("restore: session %q re-materialized from %s", name, s.cfg.DataDir)
	}
}

// materialize builds an in-memory session from a persisted spec: the same
// parse/lint/bind pipeline as a create, plus the restored padding, which
// seeds the engine on first analyze (core.NewSession applies seeded
// padding in its full analysis, and the session oracle pins that this
// equals create-then-reanalyze).
func (s *Server) materialize(ctx context.Context, name string, sp *sessionSpec) (*session, *ErrorInfo) {
	ss, einfo := s.buildSession(ctx, sp.Create)
	if einfo != nil {
		return nil, einfo
	}
	ss.padding = sp.Padding
	ss.persisted = true
	ss.restored = true
	if !sp.restoredAt.IsZero() {
		ss.recoveredAt = sp.restoredAt
	} else {
		ss.recoveredAt = s.cfg.now()
	}
	return ss, nil
}

// quarantineSpec moves an unreplayable persisted session out of the
// store: its spec bytes land in quarantine/ with the reason, a tombstone
// is journaled so it never resurfaces, and the recovery report gains the
// entry. The registry mutex guards the report against concurrent revives
// and /v1/recovery reads.
func (s *Server) quarantineSpec(name, reason string) {
	s.cfg.Logf("restore: session %q quarantined: %s", name, reason)
	if rep := s.store.QuarantineSpec(name, reason); rep != nil {
		s.mu.Lock()
		s.recovery.Quarantined = append(s.recovery.Quarantined, *rep)
		for i, n := range s.recovery.Restored {
			if n == name {
				s.recovery.Restored = append(s.recovery.Restored[:i], s.recovery.Restored[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
	}
}

// Close stops the worker heartbeat, drops hosted shard engines, and
// releases the store's journal handle. The server stays usable for
// in-memory reads; call it after Drain.
func (s *Server) Close() error {
	s.stopHeartbeat()
	s.shardHost.CloseAll()
	if s.jobs != nil {
		s.jobs.Close(2 * time.Second)
	}
	if s.store == nil {
		return nil
	}
	return s.store.Close()
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Draining reports whether a drain has started.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain performs the graceful-shutdown sequence: stop admitting work, wait
// up to budget for in-flight requests, then cancel whatever is left and
// wait (bounded) for the cancellation to take. It returns true for a
// clean drain and false when work had to be cancelled.
func (s *Server) Drain(budget time.Duration) bool {
	s.beginDrain()
	// Job workers drain in parallel with the HTTP in-flight wait: running
	// attempts are cancelled through their contexts (iterate jobs keep
	// their round-boundary checkpoints) and requeued for the next boot.
	jobsDone := make(chan struct{})
	go func() {
		s.jobs.Close(budget)
		close(jobsDone)
	}()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		<-jobsDone
		return true
	case <-time.After(budget):
	}
	s.cfg.Logf("drain budget %s exceeded with %d in flight; cancelling", budget, s.inflightN.Load())
	s.forceCancel()
	// The cancellation propagates through every request context; give the
	// handlers one more budget to observe it, then give up either way —
	// exiting late is worse than exiting with a goroutine mid-flight.
	select {
	case <-done:
	case <-time.After(budget):
		s.cfg.Logf("in-flight work ignored cancellation for %s; giving up", budget)
	}
	<-jobsDone
	return false
}

// beginDrain flips the draining flag under flightMu (the barrier's
// admission lock), with the unlock deferred so nothing between the lock
// and the release can leak it.
func (s *Server) beginDrain() {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	s.draining.Store(true)
}

// enter registers a request with the drain accounting; it fails once
// draining has started.
func (s *Server) enter() bool {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.inflight.Add(1)
	s.inflightN.Add(1)
	return true
}

func (s *Server) exit() {
	s.inflightN.Add(-1)
	s.inflight.Done()
}

// barrier is the outermost middleware: drain gating, in-flight
// accounting, and the per-request panic barrier.
func (s *Server) barrier(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Health probes stay answerable while draining (liveness and
		// readiness are separate questions from admission); everything
		// else is refused once the drain starts so the listener can empty
		// out.
		if probe := r.URL.Path == "/healthz" || r.URL.Path == "/readyz" || r.URL.Path == "/metrics"; !probe {
			if !s.enter() {
				s.writeErr(w, http.StatusServiceUnavailable, ErrorInfo{
					Kind: "draining", Message: "server is draining; no new work accepted",
				}, s.cfg.RetryAfter)
				return
			}
			defer s.exit()
		}
		ww := &statusWriter{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				// The request dies; the process, the other sessions, and
				// the other requests do not. The session (if the route
				// names one) is marked suspect so operators can see which
				// state absorbed a panic.
				name := r.PathValue("name")
				if name != "" {
					if ss := s.lookup(name); ss != nil {
						ss.markSuspect()
					}
				}
				s.cfg.Logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				if !ww.wrote {
					s.writeErr(ww, http.StatusInternalServerError, ErrorInfo{
						Kind:    "panic",
						Message: fmt.Sprintf("internal error: %v", p),
						Session: name,
					}, 0)
				}
			}
		}()
		next.ServeHTTP(ww, r)
	})
}

// statusWriter remembers whether a handler already wrote headers, so the
// panic barrier knows whether a structured 500 can still be sent.
type statusWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// admit implements bounded, tenant-fair admission for the heavy
// endpoints. It returns a release function on success; otherwise it has
// already written the shed response. Waiting in the queue respects the
// request context and the drain signal; grants rotate round-robin
// across tenants (tenant.go), so one flooding tenant cannot starve the
// rest of the queue.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (func(), bool) {
	tenant := tenantOf(r)
	start := time.Now()
	if s.gate.tryAcquire(tenant) {
		s.histAdmission.Observe(time.Since(start).Seconds())
		return func() { s.gate.release(tenant) }, true
	}
	// No slot free for this tenant: try to join the wait queue. A full
	// queue means the server is past its configured backlog — shed
	// immediately rather than building an invisible line of doomed
	// requests.
	wt := s.gate.enqueue(tenant)
	if wt == nil {
		s.shedN.Add(1)
		s.writeErr(w, http.StatusTooManyRequests, ErrorInfo{
			Kind:    "overloaded",
			Message: fmt.Sprintf("all %d workers busy and queue of %d full", s.cfg.MaxConcurrent, s.cfg.QueueDepth),
		}, s.cfg.RetryAfter)
		return nil, false
	}
	var gaveUp ErrorInfo
	select {
	case <-wt.ready:
		s.histAdmission.Observe(time.Since(start).Seconds())
		return func() { s.gate.release(tenant) }, true
	case <-r.Context().Done():
		gaveUp = ErrorInfo{Kind: "deadline", Message: "request expired while queued for a worker"}
	case <-s.forceCtx.Done():
		gaveUp = ErrorInfo{Kind: "draining", Message: "server drained while request was queued"}
	}
	if !s.gate.abandon(wt) {
		// The grant raced the expiry; the slot is ours to return.
		s.gate.release(tenant)
	}
	s.writeErr(w, http.StatusServiceUnavailable, gaveUp, s.cfg.RetryAfter)
	return nil, false
}

// requestCtx derives the analysis context: the client's connection
// context, bounded by min(client ?timeout, MaxRequestTimeout), and tied to
// the forced-drain signal.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc, error) {
	eff := s.cfg.MaxRequestTimeout
	if q := r.URL.Query().Get("timeout"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			return nil, nil, fmt.Errorf("bad timeout %q (want a positive duration like 5s)", q)
		}
		if d < eff {
			eff = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), eff)
	stop := context.AfterFunc(s.forceCtx, cancel)
	return ctx, func() { stop(); cancel() }, nil
}

func (s *Server) lookup(name string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	ss := s.sessions[name]
	if ss == nil || ss.pending || ss.deleting {
		return nil
	}
	s.lastUsed[name] = s.cfg.now()
	return ss
}

// retain looks up a session and pins it against eviction and deletion for
// the duration of a request; callers must releaseRef when done. Without
// the pin, a request that passed lookup but is still queued in admit could
// have its session evicted underneath it and complete against an orphaned
// object whose cached result no report could ever see.
func (s *Server) retain(name string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	ss := s.sessions[name]
	if ss == nil || ss.pending || ss.deleting {
		return nil
	}
	s.lastUsed[name] = s.cfg.now()
	ss.refs++
	return ss
}

// revive transparently re-materializes a persisted session that is not in
// memory — LRU-evicted under pressure, or never loaded since the last
// restart. The rebuild (parse, lint, bind) happens outside the registry
// lock; insertion tolerates losing a race with a concurrent revive of the
// same name. Returns (nil, nil) when the store has no such session.
//
// The returned session is PINNED (refs incremented before it becomes
// visible in the registry) and the caller must releaseRef it. Handing it
// back unpinned would reopen an overload race: under heavy session churn
// every other loaded session can be pinned by in-flight requests, which
// makes a freshly revived refs==0 session the only LRU-eviction candidate
// — it would be evicted between revive and the caller's retain, turning a
// perfectly durable session into a spurious 404.
func (s *Server) revive(ctx context.Context, name string) (*session, *ErrorInfo) {
	if s.store == nil {
		return nil, nil
	}
	for {
		sp := s.store.Spec(name)
		if sp == nil {
			return nil, nil
		}
		sp.restoredAt = time.Time{} // a revive is recovered "now", not at boot
		ss, einfo := s.materialize(ctx, name, sp)
		if einfo != nil {
			if einfo.Kind == "budget" || einfo.Kind == "canceled" {
				// A budget shed is load and a canceled wait is the
				// caller's own deadline — neither is rot: the spec still
				// builds. Do NOT quarantine; surface the transient error
				// for the caller to map onto 503.
				return nil, einfo
			}
			s.quarantineSpec(name, einfo.Message)
			return nil, &ErrorInfo{
				Kind:    "unreplayable",
				Message: fmt.Sprintf("session %q could not be re-materialized from disk and was quarantined: %s", name, einfo.Message),
				Session: name,
			}
		}
		// Born pinned: the ref must exist before insert makes the session
		// visible, or a concurrent insert could evict it first.
		ss.refs = 1
		if einfo := s.insert(ss); einfo != nil {
			s.cache.release(ss.entry)
			if einfo.Kind == "conflict" {
				// A concurrent request revived it first; use theirs.
				//snavet:deferrelease the pin is handed to the caller, which defers releaseRef for the request's lifetime
				if cur := s.retain(name); cur != nil {
					return cur, nil
				}
				continue
			}
			return nil, einfo
		}
		// A DELETE may have tombstoned the spec between our read and the
		// insert; honor the tombstone rather than resurrecting.
		if s.store.Spec(name) == nil {
			func() {
				s.mu.Lock()
				defer s.mu.Unlock()
				if s.sessions[name] == ss {
					if ss.refs--; ss.refs == 0 {
						s.dropSessionLocked(ss)
					}
				}
			}()
			return nil, nil
		}
		s.cfg.Logf("session %q re-materialized from disk", name)
		return ss, nil
	}
}

// retainOrRevive pins the named session, re-materializing it from the
// store when it is not in memory. The caller must releaseRef the result.
func (s *Server) retainOrRevive(ctx context.Context, name string) (*session, *ErrorInfo) {
	//snavet:deferrelease the pin is handed to the caller, which defers releaseRef for the request's lifetime
	if ss := s.retain(name); ss != nil {
		return ss, nil
	}
	// revive returns the session already pinned; the caller defers
	// releaseRef just the same.
	return s.revive(ctx, name)
}

func (s *Server) releaseRef(ss *session) {
	s.mu.Lock()
	ss.refs--
	s.mu.Unlock()
}

// dropSessionLocked removes a session from the registry and releases
// its design-cache reference. Callers hold s.mu (the cache mutex is a
// leaf below it).
func (s *Server) dropSessionLocked(ss *session) {
	delete(s.sessions, ss.name)
	delete(s.lastUsed, ss.name)
	s.cache.release(ss.entry)
}

// insert registers a new session, evicting the least-recently-used idle
// session when the cap is reached. It fails with a conflict if the name
// exists and with session_limit when every loaded session is busy.
func (s *Server) insert(ss *session) *ErrorInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ss.busy == nil {
		ss.busy = make(chan struct{}, 1)
	}
	if _, dup := s.sessions[ss.name]; dup {
		return &ErrorInfo{Kind: "conflict", Message: fmt.Sprintf("session %q already exists", ss.name), Session: ss.name}
	}
	for len(s.sessions) >= s.cfg.MaxSessions {
		victim := ""
		var oldest time.Time
		for name := range s.sessions {
			if victim == "" || s.lastUsed[name].Before(oldest) {
				// Only unreferenced sessions are evictable: refs counts
				// every in-flight request pinned to the session, including
				// ones still waiting in the admission queue, so eviction
				// can never orphan a request that already passed lookup.
				if s.sessions[name].refs == 0 {
					victim, oldest = name, s.lastUsed[name]
				}
			}
		}
		if victim == "" {
			return &ErrorInfo{Kind: "session_limit", Message: fmt.Sprintf("session cap %d reached and every session is busy", s.cfg.MaxSessions)}
		}
		if s.store != nil && s.sessions[victim].persisted {
			// Eviction under persistence is memory-only: the spec stays in
			// the store and the session re-materializes transparently on
			// its next access (losing only warm engine state and the
			// cached report).
			s.cfg.Logf("evicting idle session %q (LRU, still on disk) for %q", victim, ss.name)
		} else {
			s.cfg.Logf("evicting idle session %q (LRU) for %q", victim, ss.name)
		}
		s.dropSessionLocked(s.sessions[victim])
	}
	s.sessions[ss.name] = ss
	s.lastUsed[ss.name] = s.cfg.now()
	return nil
}

// --- handlers ---

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	s.writeJSON(w, http.StatusOK, HealthResponse{
		Status:   status,
		Draining: s.draining.Load(),
		Sessions: n,
		Inflight: int(s.inflightN.Load()),
	})
}

// readySnapshot counts sessions and collects the open-breaker names under
// the session lock — released by defer so a panicking breaker probe cannot
// wedge the server, and sorted so /readyz is byte-stable across runs.
func (s *Server) readySnapshot() (n int, open []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n = len(s.sessions)
	now := s.cfg.now()
	for name, ss := range s.sessions {
		if _, isOpen := ss.breakerOpen(now); isOpen {
			open = append(open, name)
		}
	}
	slices.Sort(open)
	return n, open
}

// storageDegraded reports whether either journal has failed an append or
// a compaction since boot.
func (s *Server) storageDegraded(jm jobs.Metrics) bool {
	return jm.StorageDegraded || s.store != nil && s.store.Degraded()
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	n, open := s.readySnapshot()
	jm := s.jobs.MetricsSnapshot()
	running, queued := s.gate.snapshot()
	cs := s.cache.stats()
	resp := ReadyResponse{
		Status:          "ready",
		Inflight:        running,
		Queued:          queued,
		Capacity:        s.cfg.MaxConcurrent,
		QueueDepth:      s.cfg.QueueDepth,
		Sessions:        n,
		Shed:            s.shedN.Load(),
		OpenBreakers:    open,
		Durable:         s.store != nil,
		StorageDegraded: s.storageDegraded(jm),
		JobsQueued:      jm.Queued,
		JobsRunning:     jm.Running,
		MemBudget:       cs.Budget,
		MemCharged:      cs.Charged,
		CachedDesigns:   cs.Entries,
		CacheHits:       cs.Hits,
		CacheEvictions:  cs.Evictions,
		BudgetSheds:     cs.BudgetSheds,
	}
	if s.draining.Load() {
		resp.Status = "draining"
		s.writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleRecovery serves the boot replay report: what was restored, what
// was quarantined and why, and whether the journal ended in a torn tail.
// Memory-only servers answer 404 — there is no durable state to recover.
func (s *Server) handleRecovery(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		s.writeErr(w, http.StatusNotFound, ErrorInfo{
			Kind: "not_found", Message: "server is running memory-only (no -data-dir); nothing to recover",
		}, 0)
		return
	}
	s.mu.Lock()
	rep := *s.recovery
	rep.Restored = append([]string(nil), s.recovery.Restored...)
	rep.Quarantined = append([]report.QuarantineJSON(nil), s.recovery.Quarantined...)
	s.mu.Unlock()
	s.writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	var req CreateSessionRequest
	if err := decodeBody(r.Body, &req); err != nil {
		s.writeErr(w, http.StatusBadRequest, ErrorInfo{Kind: "bad_request", Message: err.Error()}, 0)
		return
	}
	ss, einfo := s.buildSession(r.Context(), &req)
	if einfo != nil {
		status := http.StatusBadRequest
		var retry time.Duration
		switch einfo.Kind {
		case "lint_rejected":
			status = http.StatusUnprocessableEntity
		case "budget":
			// The design did not fit the memory budget even after idle
			// eviction: shed, don't grow until the OOM killer decides.
			status = http.StatusServiceUnavailable
			retry = s.cfg.RetryAfter
		case "canceled":
			// The request expired while coalesced on an in-flight build;
			// the design is intact and likely cached by the retry.
			status = http.StatusServiceUnavailable
			retry = s.cfg.RetryAfter
		}
		s.writeErr(w, status, *einfo, retry)
		return
	}
	if s.store != nil {
		// A persisted session that was LRU-evicted from memory still
		// exists; its name is not reusable until it is deleted.
		if s.store.Spec(req.Name) != nil {
			s.cache.release(ss.entry)
			s.writeErr(w, http.StatusConflict, ErrorInfo{
				Kind: "conflict", Message: fmt.Sprintf("session %q already exists (persisted)", req.Name), Session: req.Name,
			}, 0)
			return
		}
		// Reserve the name first (pending sessions are invisible to
		// lookups and pinned against eviction), then journal, then
		// publish: the 201 is not sent until the create record is fsynced,
		// so an acknowledged session survives a crash; and a journaling
		// failure unwinds the reservation, so the in-memory state never
		// runs ahead of the durable state.
		ss.pending = true
		ss.persisted = true
		ss.refs = 1
	}
	if einfo := s.insert(ss); einfo != nil {
		s.cache.release(ss.entry)
		status := http.StatusConflict
		if einfo.Kind == "session_limit" {
			status = http.StatusServiceUnavailable
		}
		var retry time.Duration
		if status == http.StatusServiceUnavailable {
			retry = s.cfg.RetryAfter
		}
		s.writeErr(w, status, *einfo, retry)
		return
	}
	if s.store != nil {
		if err := s.store.Create(&req); err != nil {
			func() {
				s.mu.Lock()
				defer s.mu.Unlock()
				s.dropSessionLocked(ss)
			}()
			s.cfg.Logf("session %q create not journaled, refused: %v", ss.name, err)
			s.writeErr(w, http.StatusServiceUnavailable, ErrorInfo{
				Kind:    "storage",
				Message: fmt.Sprintf("session could not be journaled: %v", err),
				Session: ss.name,
			}, s.cfg.RetryAfter)
			return
		}
		s.mu.Lock()
		ss.pending = false
		ss.refs--
		s.mu.Unlock()
	}
	s.cfg.Logf("session %q created", ss.name)
	s.writeJSON(w, http.StatusCreated, ss.info(s.cfg.now()))
}

// buildSession resolves the request into a session: cheap per-session
// inputs (timing annotation, mode, fault spec) are parsed here, and the
// expensive immutable part — the parsed, linted, bound design — is
// acquired from the shared content-addressed cache, which builds it at
// most once per distinct source set. The returned session holds one
// cache reference; every path that discards the session must release it
// (dropSessionLocked, or cache.release on pre-insert failures).
func (s *Server) buildSession(ctx context.Context, req *CreateSessionRequest) (*session, *ErrorInfo) {
	if req.Name == "" {
		return nil, &ErrorInfo{Kind: "bad_request", Message: "session name is required"}
	}
	if (req.Netlist == "") == (req.Verilog == "") {
		return nil, &ErrorInfo{Kind: "bad_request", Message: "exactly one of netlist or verilog is required", Session: req.Name}
	}
	bad := func(err error) *ErrorInfo {
		return &ErrorInfo{Kind: "bad_request", Message: err.Error(), Session: req.Name}
	}
	var inputs map[string]*sta.Timing
	var err error
	if req.Timing != "" {
		if inputs, err = sta.ParseInputTiming(strings.NewReader(req.Timing)); err != nil {
			return nil, bad(err)
		}
	}
	mode, err := parseMode(req.Options.Mode)
	if err != nil {
		return nil, bad(err)
	}
	faults, err := workload.ParseRuntimeFaults(req.Options.InjectFault)
	if err != nil {
		return nil, bad(err)
	}
	src := sourcesOf(req)
	//snavet:deferrelease the entry reference is owned by the returned session and released by dropSessionLocked (or by the caller on insert failure)
	entry, einfo := s.cache.acquire(ctx, src, func() (*bind.Design, *ErrorInfo) {
		return buildDesign(src, inputs)
	})
	if einfo != nil {
		// The error object may be shared with coalesced waiters of the
		// same build; annotate a copy with this request's session name.
		e := *einfo
		e.Session = req.Name
		return nil, &e
	}
	return &session{
		name:  req.Name,
		spec:  req,
		busy:  make(chan struct{}, 1),
		b:     entry.b,
		entry: entry,
		opts: core.Options{
			Mode:             mode,
			FilterThreshold:  req.Options.Threshold,
			NoPropagation:    req.Options.NoPropagation,
			LogicCorrelation: req.Options.LogicCorrelation,
			Workers:          req.Options.Workers,
			FailSoft:         !req.Options.FailFast,
			PrepareHook:      faults.Hook(),
			STA:              sta.Options{InputTiming: inputs},
		},
	}, nil
}

// buildDesign is the cache-miss build path: parse every database, run
// the lint pre-flight, and bind. Errors carry no session name — the
// result may be shared by coalesced acquires from different sessions,
// so callers annotate a copy. A lint rejection fails the build (noise
// results computed from a broken database are worse than no results)
// and is deliberately not cached: it is deterministic, cheap to rerun,
// and caching failures would pin rejected source text in memory.
func buildDesign(src designSources, inputs map[string]*sta.Timing) (*bind.Design, *ErrorInfo) {
	bad := func(err error) *ErrorInfo {
		return &ErrorInfo{Kind: "bad_request", Message: err.Error()}
	}
	ls := load.Sources{
		Netlist: load.Text(src.Netlist), Liberty: load.Text(src.Liberty), SPEF: load.Text(src.SPEF), Inputs: inputs,
	}
	if src.Verilog != "" {
		ls.Netlist, ls.Verilog = load.Text(src.Verilog), true
	}
	loaded, err := load.Load(ls, lint.Config{})
	if err != nil {
		return nil, bad(err)
	}
	lres := loaded.Lint
	if lres.HasErrors() {
		info := &ErrorInfo{
			Kind:    "lint_rejected",
			Message: fmt.Sprintf("design rejected by lint: %d error(s)", lres.Errors()),
		}
		for _, d := range lres.Diags {
			info.Lint = append(info.Lint, LintDiagJSON{
				Rule: d.Rule, Severity: d.Sev.String(), Object: d.Object, Message: d.Msg, Hint: d.Hint,
			})
		}
		return nil, info
	}
	b, err := loaded.Bind()
	if err != nil {
		return nil, bad(err)
	}
	return b, nil
}

// listSnapshot collects the visible in-memory sessions under the session
// lock — released by defer so a panic mid-listing cannot wedge the server
// — in sorted name order so the listing is deterministic before the
// persisted-session merge.
func (s *Server) listSnapshot() (infos []SessionInfo, loaded map[string]bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.sessions))
	for name := range s.sessions {
		names = append(names, name)
	}
	slices.Sort(names)
	infos = make([]SessionInfo, 0, len(names))
	loaded = make(map[string]bool, len(names))
	now := s.cfg.now()
	for _, name := range names {
		ss := s.sessions[name]
		loaded[name] = true
		if ss.pending || ss.deleting {
			// Mid-create and mid-delete sessions are invisible until their
			// journal record lands, like they are to lookups.
			continue
		}
		infos = append(infos, ss.info(now))
	}
	return infos, loaded
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	infos, loaded := s.listSnapshot()
	if s.store != nil {
		// Persisted sessions that are not in memory (LRU-evicted, or beyond
		// the cap at boot) are still part of the session list: any request
		// to one transparently reloads it.
		for _, name := range s.store.Names() {
			if !loaded[name] {
				infos = append(infos, SessionInfo{Name: name, Persisted: true})
			}
		}
	}
	slices.SortFunc(infos, func(a, b SessionInfo) int { return strings.Compare(a.Name, b.Name) })
	s.writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ss, einfo := s.retainOrRevive(r.Context(), name)
	if einfo != nil {
		s.writeReviveErr(w, einfo)
		return
	}
	if ss == nil {
		s.writeNotFound(w, name)
		return
	}
	defer s.releaseRef(ss)
	s.writeJSON(w, http.StatusOK, ss.info(s.cfg.now()))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	ss, inMem := s.sessions[name]
	if inMem && (ss.refs > 0 || ss.deleting) {
		// In-flight requests pin the session (see retain); deleting it now
		// would let them complete against an orphaned object. Refuse and
		// let the caller retry once the session quiesces.
		s.mu.Unlock()
		s.writeErr(w, http.StatusConflict, ErrorInfo{
			Kind: "busy", Message: fmt.Sprintf("session %q has requests in flight", name), Session: name,
		}, s.cfg.RetryAfter)
		return
	}
	// A persisted session may exist on disk only (LRU-evicted); it is
	// deletable without reloading it.
	persisted := s.store != nil && s.store.Spec(name) != nil
	if !inMem && !persisted {
		s.mu.Unlock()
		s.writeNotFound(w, name)
		return
	}
	if inMem {
		// Block new retains/revives of the name while the tombstone is
		// journaled outside the lock.
		ss.deleting = true
	}
	s.mu.Unlock()

	if persisted {
		// The tombstone must be durable BEFORE the 200: a crash right
		// after the reply must not resurrect the session on replay.
		if err := s.store.Delete(name); err != nil {
			s.mu.Lock()
			if inMem {
				ss.deleting = false
			}
			s.mu.Unlock()
			s.cfg.Logf("session %q delete not journaled, refused: %v", name, err)
			s.writeErr(w, http.StatusServiceUnavailable, ErrorInfo{
				Kind:    "storage",
				Message: fmt.Sprintf("tombstone could not be journaled: %v", err),
				Session: name,
			}, s.cfg.RetryAfter)
			return
		}
	}
	func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if cur := s.sessions[name]; cur != nil && (cur == ss || !inMem) {
			// Dropping the session releases its design-cache reference;
			// another session over the same sources keeps the entry alive
			// (its refcount is per-holder, not per-design).
			s.dropSessionLocked(cur)
		}
	}()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ss, einfo := s.retainOrRevive(r.Context(), name)
	if einfo != nil {
		s.writeReviveErr(w, einfo)
		return
	}
	if ss == nil {
		s.writeNotFound(w, name)
		return
	}
	defer s.releaseRef(ss)
	body := ss.report()
	if body == nil {
		// The report cache is warm state, not durable state: a session
		// re-materialized from disk has no cached analysis until the next
		// analyze regenerates it (deterministically — the engine oracle
		// pins scratch-vs-incremental equality).
		msg := "session has no completed analysis yet"
		if ss.isRestored() {
			msg = "session was re-materialized from disk and has no cached analysis yet; POST analyze to regenerate it"
		}
		s.writeErr(w, http.StatusNotFound, ErrorInfo{
			Kind: "not_found", Message: msg, Session: ss.name,
		}, 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if err := decodeBodyOptional(r.Body, &req); err != nil {
		s.writeErr(w, http.StatusBadRequest, ErrorInfo{Kind: "bad_request", Message: err.Error()}, 0)
		return
	}
	s.analysis(w, r, func(ctx context.Context, ss *session) (*AnalyzeResponse, error) {
		eng, rebuilt, err := ss.ensureEngine(ctx)
		if err != nil {
			return nil, err
		}
		resp := &AnalyzeResponse{
			Session: ss.name,
			Noise:   report.BuildJSON(eng.Noise()),
			Rebuilt: rebuilt,
		}
		if req.Delay {
			resp.Delay = report.BuildDelayJSON(eng.Delay())
		}
		return resp, nil
	})
}

func (s *Server) handleReanalyze(w http.ResponseWriter, r *http.Request) {
	var req ReanalyzeRequest
	if err := decodeBody(r.Body, &req); err != nil {
		s.writeErr(w, http.StatusBadRequest, ErrorInfo{Kind: "bad_request", Message: err.Error()}, 0)
		return
	}
	for net, pad := range req.Padding {
		if pad < 0 || pad != pad || pad-pad != 0 { // negative, NaN, or Inf
			s.writeErr(w, http.StatusBadRequest, ErrorInfo{
				Kind: "bad_request", Message: fmt.Sprintf("bad padding %v for net %q (want finite seconds >= 0)", pad, net),
			}, 0)
			return
		}
	}
	s.analysis(w, r, func(ctx context.Context, ss *session) (*AnalyzeResponse, error) {
		eng, rebuilt, err := ss.ensureEngine(ctx)
		if err != nil {
			return nil, err
		}
		res, changed, err := eng.Reanalyze(ctx, req.Padding)
		if err != nil {
			return nil, err
		}
		if changed > 0 {
			// Mirror the engine's cumulative padding (we hold the busy slot)
			// and journal it, so a rebuild — in this process or the next —
			// replays the session to exactly this state.
			ss.padding = eng.Padding()
			s.persistPadding(ss)
		}
		resp := &AnalyzeResponse{
			Session:     ss.name,
			Noise:       report.BuildJSON(res),
			ChangedNets: changed,
			Rebuilt:     rebuilt,
		}
		if req.Delay {
			resp.Delay = report.BuildDelayJSON(eng.Delay())
		}
		return resp, nil
	})
}

// persistPadding journals a session's cumulative reanalyze padding.
// Failure is deliberately fail-soft — unlike create and delete, the
// client-visible operation (the analysis) already succeeded, and padding
// is max-monotonic, so a replay missing this record merely loses a delta
// the client can re-apply verbatim. Degrade and log instead of failing a
// correct response.
func (s *Server) persistPadding(ss *session) {
	if s.store == nil || !ss.persisted {
		return
	}
	if err := s.store.Padding(ss.name, ss.padding); err != nil {
		s.cfg.Logf("session %q padding not journaled (analysis succeeded; the delta is safely re-appliable): %v", ss.name, err)
	}
}

// writeReviveErr maps a failed lazy revive onto a response: a budget
// shed is transient load (503 + Retry-After — the spec is intact and
// builds once memory frees), anything else means the spec was
// quarantined as unreplayable (404 with the detail).
func (s *Server) writeReviveErr(w http.ResponseWriter, einfo *ErrorInfo) {
	switch einfo.Kind {
	case "budget", "session_limit", "canceled":
		// All transient refusals — the memory budget or loaded-session
		// cap is full right now, or the request expired while coalesced
		// on an in-flight rebuild — not statements about the session's
		// existence; shed with Retry-After like any overload.
		s.writeErr(w, http.StatusServiceUnavailable, *einfo, s.cfg.RetryAfter)
	default:
		s.writeErr(w, http.StatusNotFound, *einfo, 0)
	}
}

// analysis is the shared harness of the two heavy endpoints: session
// lookup, breaker check, admission, deadline plumbing, serialized engine
// work, breaker accounting, and error mapping.
func (s *Server) analysis(w http.ResponseWriter, r *http.Request, work func(context.Context, *session) (*AnalyzeResponse, error)) {
	name := r.PathValue("name")
	ss, einfo := s.retainOrRevive(r.Context(), name)
	if einfo != nil {
		s.writeReviveErr(w, einfo)
		return
	}
	if ss == nil {
		s.writeNotFound(w, name)
		return
	}
	defer s.releaseRef(ss)
	retryAfter, probe, open := ss.breakerAdmit(s.cfg.now(), s.cfg.RetryAfter)
	if open {
		s.writeErr(w, http.StatusServiceUnavailable, ErrorInfo{
			Kind:    "breaker_open",
			Message: fmt.Sprintf("session breaker open after %d consecutive degraded results", s.cfg.BreakerTrips),
			Session: name,
		}, retryAfter)
		return
	}
	if probe {
		// The probe slot must be returned on every path out of this
		// handler — including cancellation and panic — or the half-open
		// breaker would reject requests forever.
		defer ss.probeRelease()
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	ctx, cancel, err := s.requestCtx(r)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, ErrorInfo{Kind: "bad_request", Message: err.Error()}, 0)
		return
	}
	defer cancel()

	// Serialize engine work per session. The wait is a select against the
	// request deadline and the drain signal, so a pile-up behind one slow
	// session sheds at its deadline instead of pinning workers; a
	// sync.Mutex here would block uncancellably.
	if !ss.acquire(ctx, s.forceCtx) {
		if s.forceCtx.Err() != nil || errors.Is(ctx.Err(), context.Canceled) {
			s.writeErr(w, http.StatusServiceUnavailable, ErrorInfo{
				Kind: "canceled", Message: "request cancelled while waiting for the session", Session: name,
			}, 0)
		} else {
			s.writeErr(w, http.StatusServiceUnavailable, ErrorInfo{
				Kind: "deadline", Message: "request deadline expired while waiting for the session", Session: name,
			}, s.cfg.RetryAfter)
		}
		return
	}
	resp, err := func() (*AnalyzeResponse, error) {
		// Release under defer so a panic in the engine or handler cannot
		// leak the busy slot and wedge every later request to the session
		// (the barrier turns the panic itself into a structured 500).
		defer ss.release()
		astart := time.Now()
		defer func() { s.histAnalysis.Observe(time.Since(astart).Seconds()) }()
		return work(ctx, ss)
	}()

	if err != nil {
		// Cancellation is not session health: only engine failures feed
		// the breaker.
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.writeErr(w, http.StatusServiceUnavailable, ErrorInfo{
				Kind: "deadline", Message: fmt.Sprintf("analysis exceeded its deadline: %v", err), Session: name,
			}, s.cfg.RetryAfter)
		case errors.Is(err, context.Canceled):
			s.writeErr(w, http.StatusServiceUnavailable, ErrorInfo{
				Kind: "canceled", Message: fmt.Sprintf("analysis cancelled: %v", err), Session: name,
			}, 0)
		default:
			ss.recordOutcome(true, s.cfg.now(), s.cfg.BreakerTrips, s.cfg.BreakerCooldown)
			s.writeErr(w, http.StatusInternalServerError, ErrorInfo{
				Kind: "engine", Message: err.Error(), Session: name,
			}, 0)
		}
		return
	}
	degraded := resp.Noise.Stats.DegradedNets > 0
	ss.recordOutcome(degraded, s.cfg.now(), s.cfg.BreakerTrips, s.cfg.BreakerCooldown)
	body, err := json.Marshal(resp)
	if err != nil {
		// Unreachable as long as the report schema keeps its no-NaN
		// discipline; fail loudly rather than hang the connection.
		s.writeErr(w, http.StatusInternalServerError, ErrorInfo{
			Kind: "engine", Message: fmt.Sprintf("encoding response: %v", err), Session: name,
		}, 0)
		return
	}
	ss.recordResult(resp, body)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// --- helpers ---

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) writeErr(w http.ResponseWriter, status int, info ErrorInfo, retryAfter time.Duration) {
	if retryAfter > 0 {
		// Retry-After is integral seconds; round up so clients never
		// retry into a still-closed window.
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	s.writeJSON(w, status, ErrorBody{Error: info})
}

func (s *Server) writeNotFound(w http.ResponseWriter, name string) {
	s.writeErr(w, http.StatusNotFound, ErrorInfo{
		Kind: "not_found", Message: fmt.Sprintf("no session %q", name), Session: name,
	}, 0)
}

// decodeBody strictly decodes one JSON object.
func decodeBody(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// decodeBodyOptional accepts an empty body as the zero value.
func decodeBodyOptional(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return nil
		}
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func parseMode(s string) (core.Mode, error) {
	switch s {
	case "all":
		return core.ModeAllAggressors, nil
	case "timing":
		return core.ModeTimingWindows, nil
	case "", "noise":
		return core.ModeNoiseWindows, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want all|timing|noise)", s)
}
