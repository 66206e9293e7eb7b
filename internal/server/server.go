// Package server implements snad, the fail-soft static-noise-analysis
// service: an HTTP/JSON daemon that loads designs into named sessions
// (each wrapping core.Session, the persistent incremental analyzer) and
// serves analyze / delta-reanalyze / report queries.
//
// Robustness is the point, not a feature:
//
//   - Bounded admission: at most MaxConcurrent engines run at once —
//     requests and job attempts take slots of one tenant-fair pool
//     (tenant.go) — and at most QueueDepth requests wait; overflow is
//     shed immediately with 429 and a Retry-After hint, so a traffic
//     spike degrades into fast rejections instead of unbounded memory
//     growth and timeouts.
//
//   - Per-request deadlines: the effective deadline is the tighter of the
//     client's ?timeout and the server's maxRequestTimeout, propagated
//     into the engine's cooperative cancellation (core.Session, and
//     core.AnalyzeCtx for a sweep: one engine). No request can hold a
//     worker forever.
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
	"sync"
	"sync/atomic"
	"time"

	"path/filepath"

	"repro/internal/fairq"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/shard"
	"repro/internal/wal"
)

// Config tunes the service. The zero value is usable: every field has a
// production-shaped default.
type Config struct {
	// MaxSessions caps the number of loaded sessions; creating one past
	// the cap evicts the least-recently-used idle session, and if every
	// session is busy the create is shed (default 8).
	MaxSessions int
	// MaxConcurrent caps simultaneously running engines, requests' and
	// job attempts' together; jobs hold at most max(1, MaxConcurrent−1)
	// of them (default GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth caps requests waiting for a worker slot; overflow is
	// shed with 429 (default 2×MaxConcurrent).
	QueueDepth int
	// MemBudget is the server-wide byte budget for cached bound designs
	// (serve -mem-budget). Creating or re-materializing a session charges
	// the design's measured size against it; when idle-entry eviction
	// cannot make room the request sheds with 503 kind "budget" instead
	// of growing until the OOM killer arrives. 0 disables budgeting.
	MemBudget int64
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)

	// DataDir enables durable sessions: lifecycle events are journaled
	// here and replayed on boot. Empty runs memory-only (sessions die
	// with the process), the pre-persistence behavior.
	DataDir string

	// JobQueueDepth caps jobs waiting to run; POST /v1/jobs past it is
	// shed with 429 (default 16).
	JobQueueDepth int

	// Workers is the shard worker fleet this server coordinates, fixed for
	// its lifetime: New registers it and starts the heartbeat, and no
	// request can change it. A worker is listed by its Name, which is also
	// reported as its URL — cmd/snad dials each -workers URL (the server
	// cannot import the client) and names the worker by it. Empty disables
	// distributed iterate.
	Workers []shard.Worker

	// Faults is the fault-injection seam for tests; production leaves it
	// nil.
	Faults *Faults

	// now is the clock, injectable for breaker tests.
	now func() time.Time
}

// The service's fixed policy: nothing sets these per deployment.
const (
	// maxRequestTimeout is the ceiling on one request's deadline; a client
	// ?timeout tighter than this wins.
	maxRequestTimeout = 30 * time.Second
	// retryAfterHint is the Retry-After hint of every retryable refusal
	// that carries none of its own.
	retryAfterHint = time.Second
	// breakerTrips consecutive engine-degraded results trip a session's
	// circuit breaker, which then sheds for breakerCooldown before going
	// half-open.
	breakerTrips    = 3
	breakerCooldown = 10 * time.Second
	// heartbeatEvery is the worker health-probe interval.
	heartbeatEvery = 2 * time.Second
)

// Faults holds the function hooks through which tests make the engine,
// the journals and job attempts fail. A nil hook never fires.
type Faults struct {
	// Prepare runs at the start of every victim's preparation in the named
	// session (core.Options.PrepareHook). Remote shard engines never see
	// it: it chaos-tests one process, not the fleet.
	Prepare func(session, net string) error
	// Store is the write-path seam of both journals; the session store and
	// the job journal fail and recover independently.
	Store wal.Hooks
	// Job fires at the top of every job execution attempt
	// (jobs.Config.Fault).
	Job func(ctx context.Context, jobType string) (degrade bool, err error)
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
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.JobQueueDepth <= 0 {
		c.JobQueueDepth = 16
	}
	if c.now == nil {
		c.now = time.Now
	}
}

// Server is the snad service state. Create one with New, serve
// Handler(), and call Drain on shutdown.
type Server struct {
	cfg Config

	// gate is the engine slot pool the routes and the job attempts share:
	// at most MaxConcurrent run, at most QueueDepth requests wait, and
	// waiters are granted round-robin across tenants (tenant.go).
	gate slots

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

	// jobs owns the durable async job queue; its attempts run in gate's
	// batch slots.
	jobs *jobs.Manager

	// shardHost keeps the shard engines this server hosts as a worker and
	// the design each run token's engines share.
	shardHost *shard.Host

	// workers is the boot fleet (this server as coordinator), in name
	// order; workerMu guards each entry's health. hbStop ends the
	// heartbeat loop.
	workerMu sync.Mutex
	workers  []*workerEntry
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
		cfg:      cfg,
		gate:     slots{fairq.NewPool(cfg.MaxConcurrent, cfg.QueueDepth)},
		cache:    newDesignCache(cfg.MemBudget, cfg.now, cfg.Logf),
		sessions: make(map[string]*session),
		lastUsed: make(map[string]time.Time),
		workers:  fleet(cfg.Workers),
		hbStop:   make(chan struct{}),

		histAdmission: metrics.NewHistogram("snad_admission_wait_seconds", "Time requests spend waiting for a worker slot.", nil),
		histAnalysis:  metrics.NewHistogram("snad_analysis_seconds", "Engine time of completed analysis requests.", nil),
		histFsync:     metrics.NewHistogram("snad_journal_fsync_seconds", "Durable session-journal append latency (fsync included).", nil),
		histJobRun:    metrics.NewHistogram("snad_job_run_seconds", "Wall time of async job execution attempts.", nil),
	}
	s.shardHost = shard.NewHost(s.designForToken)
	s.forceCtx, s.forceCancel = context.WithCancel(context.Background())
	// The job journal shares the data directory and the injected
	// write-path faults with the session store.
	var faults Faults
	if cfg.Faults != nil {
		faults = *cfg.Faults
	}
	if cfg.DataDir != "" {
		st, rep, err := OpenStore(cfg.DataDir, faults.Store, s.histFsync, cfg.Logf)
		if err != nil {
			return nil, err
		}
		s.store, s.recovery = st, rep
		s.restoreSessions()
	}
	jcfg := jobs.Config{
		Slots:     s.gate.Pool,
		MaxQueued: cfg.JobQueueDepth,
		Exec:      s.execJob,
		Fault:     faults.Job,
		Logf:      cfg.Logf,
	}
	if cfg.DataDir != "" {
		jcfg.Dir, jcfg.Hooks = filepath.Join(cfg.DataDir, "jobs"), faults.Store
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
	// route adapts an endpoint that can fail: whatever it returns leaves
	// through fail, the one exit (the barrier's drain refusal and panic
	// reply are the other two callers).
	route := func(pattern string, endpoint func(http.ResponseWriter, *http.Request) error) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			if err := endpoint(w, r); err != nil {
				s.fail(w, err)
			}
		})
	}
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/sessions", s.handleList)
	mux.HandleFunc("GET /v1/workers", s.handleListWorkers)
	route("GET /v1/recovery", s.handleRecovery)
	route("POST /v1/sessions", s.handleCreate)
	route("GET /v1/sessions/{name}", s.handleInfo)
	route("DELETE /v1/sessions/{name}", s.handleDelete)
	route("POST /v1/sessions/{name}/analyze", s.handleAnalyze)
	route("POST /v1/sessions/{name}/reanalyze", s.handleReanalyze)
	route("GET /v1/sessions/{name}/report", s.handleReport)
	route("POST /v1/jobs", s.handleSubmitJob)
	route("GET /v1/jobs", s.handleListJobs)
	route("GET /v1/jobs/{id}", s.handleJobStatus)
	route("DELETE /v1/jobs/{id}", s.handleCancelJob)
	route("POST /v1/shard/{op}", s.handleShardOp)
	s.handler = s.barrier(mux)
	for _, e := range s.workers {
		cfg.Logf("worker %q registered at %s", e.info.Name, e.info.URL)
	}
	if len(s.workers) > 0 {
		go s.heartbeatLoop()
	}
	return s, nil
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

// Drain performs the graceful-shutdown sequence: stop admitting work, wait
// up to budget for in-flight requests, then cancel whatever is left and
// wait (bounded) for the cancellation to take. It returns true for a
// clean drain and false when work had to be cancelled.
func (s *Server) Drain(budget time.Duration) bool {
	s.beginDrain()
	// Jobs drain in parallel with the HTTP in-flight wait: running
	// attempts are cancelled through their contexts (iterate jobs keep
	// their journaled round state) and requeued for the next boot.
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
				s.fail(w, &ErrorInfo{Kind: "draining", Message: "server is draining; no new work accepted"})
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
					s.fail(ww, &ErrorInfo{Kind: "panic", Message: fmt.Sprintf("internal error: %v", p), Session: name})
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
func (s *Server) handleRecovery(w http.ResponseWriter, r *http.Request) error {
	if s.store == nil {
		return &ErrorInfo{Kind: "not_found", Message: "server is running memory-only (no -data-dir); nothing to recover"}
	}
	s.mu.Lock()
	rep := *s.recovery
	rep.Restored = append([]string(nil), s.recovery.Restored...)
	rep.Quarantined = append([]report.QuarantineJSON(nil), s.recovery.Quarantined...)
	s.mu.Unlock()
	s.writeJSON(w, http.StatusOK, rep)
	return nil
}

// --- helpers ---

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, _ := json.MarshalIndent(v, "", "  ")
	writeBody(w, status, append(body, '\n'))
}

// writeBody writes a JSON reply that is already encoded.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// decodeBody strictly decodes one JSON object; a failure is the caller's
// bad_request.
func decodeBody(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest(fmt.Errorf("bad request body: %w", err), "")
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
		return badRequest(fmt.Errorf("bad request body: %w", err), "")
	}
	return nil
}
