package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/jobs"
	"repro/internal/report"
	"repro/internal/shard"
)

// Wire types: the JSON request and response bodies of the snad HTTP API.
// They live in their own file (and are exported) because the retrying
// client and the CLI decode them too — one schema, one definition.

// CreateSessionRequest loads a design into a named session. Database
// payloads are inline text in the repo's native formats; exactly one of
// Netlist (.net) or Verilog (structural .v) is required, the rest are
// optional.
type CreateSessionRequest struct {
	Name    string `json:"name"`
	Netlist string `json:"netlist,omitempty"`
	Verilog string `json:"verilog,omitempty"`
	SPEF    string `json:"spef,omitempty"`
	// Liberty is the cell library source; empty uses the built-in generic
	// library.
	Liberty string `json:"liberty,omitempty"`
	// Timing is input-timing (.win) text.
	Timing string `json:"timing,omitempty"`
	// Options are the analysis knobs of the sna CLI.
	Options shard.OptionsSpec `json:"options"`
}

// design is the request's design spec, which the session built from it
// keeps.
func (req *CreateSessionRequest) design() *shard.DesignSpec {
	return &shard.DesignSpec{
		Netlist: req.Netlist, Verilog: req.Verilog, SPEF: req.SPEF, Liberty: req.Liberty, Timing: req.Timing, Options: req.Options,
	}
}

// SessionInfo describes one loaded session.
type SessionInfo struct {
	Name string `json:"name"`
	// Analyzed reports whether the session holds a completed analysis.
	Analyzed bool `json:"analyzed"`
	// Suspect marks a session on which a request panicked at the handler
	// level; its in-memory state is still serving but deserves scrutiny.
	Suspect bool `json:"suspect"`
	// Breaker is the session's circuit-breaker state.
	Breaker BreakerInfo `json:"breaker"`
	// Victims/Violations/DegradedNets summarize the last analysis (zero
	// until Analyzed).
	Victims      int `json:"victims"`
	Violations   int `json:"violations"`
	DegradedNets int `json:"degradedNets"`
	// Persisted marks a session backed by the durable store: it survives
	// restarts and LRU eviction only unloads it from memory.
	Persisted bool `json:"persisted,omitempty"`
	// Loaded reports whether the session is materialized in memory. A
	// persisted session can be on disk only (LRU-evicted or beyond the
	// session cap at boot); any request to it transparently reloads it.
	Loaded bool `json:"loaded"`
	// Restored marks an in-memory session that was rebuilt from the
	// durable store — at boot, or lazily on access — rather than created
	// by a client since this process started; RecoveredAt (RFC3339) is
	// when the rebuild happened.
	Restored    bool   `json:"restored,omitempty"`
	RecoveredAt string `json:"recoveredAt,omitempty"`
}

// BreakerInfo reports a session circuit breaker.
type BreakerInfo struct {
	// Open reports that the breaker is tripped: analysis requests are
	// rejected with 503 until the cooldown elapses.
	Open bool `json:"open"`
	// ConsecutiveDegraded counts engine-degraded results in a row.
	ConsecutiveDegraded int `json:"consecutiveDegraded"`
	// RetryAfterS is the remaining cooldown in seconds when Open.
	RetryAfterS float64 `json:"retryAfterS,omitempty"`
}

// AnalyzeRequest tunes one analyze query (all fields optional).
type AnalyzeRequest struct {
	// Delay includes the crosstalk delta-delay section in the response.
	Delay bool `json:"delay,omitempty"`
}

// ReanalyzeRequest applies per-net late-edge window padding (seconds) and
// incrementally re-analyzes the affected cones. Padding is max-monotonic,
// so retrying a delta is safe.
type ReanalyzeRequest struct {
	Padding map[string]float64 `json:"padding"`
	// Delay includes the delta-delay section in the response.
	Delay bool `json:"delay,omitempty"`
}

// AnalyzeResponse is the result of an analyze or reanalyze query, and of
// an analyze, reanalyze or iterate job.
type AnalyzeResponse struct {
	Session string             `json:"session"`
	Noise   *report.ResultJSON `json:"noise"`
	// Delay is present when the request asked for it.
	Delay *report.DelayResultJSON `json:"delay,omitempty"`
	// ChangedNets is the number of nets whose padding changed
	// (reanalyze only).
	ChangedNets int `json:"changedNets,omitempty"`
	// Rebuilt reports that the persistent session state was rebuilt from
	// scratch for this request (first analysis, or recovery after a
	// broken incremental update).
	Rebuilt bool `json:"rebuilt,omitempty"`
	// Iterate describes the joint noise–delay fixpoint loop (iterate
	// jobs only).
	Iterate *IterateInfo `json:"iterate,omitempty"`
}

// IterateInfo is the loop metadata of an iterate job's result. The noise
// and delay sections of the result are identical between a local and a
// healthy distributed run; everything that can differ lives here.
type IterateInfo struct {
	Rounds        int    `json:"rounds"`
	Converged     bool   `json:"converged"`
	Diverging     bool   `json:"diverging,omitempty"`
	DivergeReason string `json:"divergeReason,omitempty"`
	// Distributed reports that the run fanned out to workers; Workers and
	// Shards describe the fan-out.
	Distributed bool `json:"distributed,omitempty"`
	Workers     int  `json:"workers,omitempty"`
	Shards      int  `json:"shards,omitempty"`
	// Reassigns counts mid-run shard re-hostings after worker loss;
	// AbandonedShards lists shards that ran out of workers and were
	// degraded to conservative full-rail results.
	Reassigns       int   `json:"reassigns,omitempty"`
	AbandonedShards []int `json:"abandonedShards,omitempty"`
	// Resumed reports that the run continued from journaled round state
	// instead of starting at round 1.
	Resumed bool `json:"resumed,omitempty"`
	// Dispatches is a distributed run's worker traffic by shard op: round
	// trips and their summed wall clock.
	Dispatches map[string]shard.OpStat `json:"dispatches,omitempty"`
}

// WorkerInfo reports one registered worker's health.
type WorkerInfo struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	// Healthy is the last heartbeat's verdict; a worker starts healthy at
	// boot and is probed every heartbeat interval.
	Healthy bool `json:"healthy"`
	// LastSeenAt is the last successful heartbeat (RFC3339); empty until
	// the first one lands.
	LastSeenAt string `json:"lastSeenAt,omitempty"`
}

// LintDiagJSON is one design-rule finding in a 422 rejection.
type LintDiagJSON struct {
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	Object   string `json:"object"`
	Message  string `json:"message"`
	Hint     string `json:"hint,omitempty"`
}

// ErrorBody is the structured error envelope every non-2xx response
// carries.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// ErrorInfo describes one failure, and is the service's one error value:
// the registry, the design cache, the gate and the session-work harness
// return it, fail writes it, and errors.As finds it through whatever
// wrapped it on the way (the shard runner's FatalError included).
type ErrorInfo struct {
	// Kind is a stable machine-readable class, one of the rows of kinds;
	// everything a caller may do about the failure follows from it.
	Kind    string `json:"kind"`
	Message string `json:"message"`
	Session string `json:"session,omitempty"`
	// Lint carries the findings of a lint_rejected error.
	Lint []LintDiagJSON `json:"lint,omitempty"`

	// retryAfter is the failure's own Retry-After hint (breaker_open's
	// remaining cooldown); zero leaves it to retryAfterHint.
	retryAfter time.Duration
}

func (e *ErrorInfo) Error() string { return e.Message }

// kinds is the one table: a kind's HTTP status, and whether it is a refusal
// that repeating the request can outlast. Everything else is derived from
// the row and chosen nowhere else: the Retry-After header (fail), the
// client's retry loop (Retryable), whether a failed revive quarantines the
// spec (retryable) and whether a job attempt is permanent. README's retry
// table and DESIGN.md §13 print these rows with their reasons.
var kinds = map[string]struct {
	status int
	retry  bool
}{
	// The request or its input is wrong; repeating it repeats the answer.
	"bad_request":   {http.StatusBadRequest, false},
	"not_found":     {http.StatusNotFound, false},
	"conflict":      {http.StatusConflict, false},
	"lint_rejected": {http.StatusUnprocessableEntity, false},
	"unreplayable":  {http.StatusNotFound, false},
	"shard_broken":  {http.StatusConflict, false},
	"shard_fatal":   {http.StatusBadRequest, false},
	// Load, not a verdict: nothing was applied, and capacity returns.
	"overloaded":    {http.StatusTooManyRequests, true},
	"busy":          {http.StatusConflict, true},
	"draining":      {http.StatusServiceUnavailable, true},
	"breaker_open":  {http.StatusServiceUnavailable, true},
	"deadline":      {http.StatusServiceUnavailable, true},
	"canceled":      {http.StatusServiceUnavailable, true},
	"session_limit": {http.StatusServiceUnavailable, true},
	"budget":        {http.StatusServiceUnavailable, true},
	"storage":       {http.StatusServiceUnavailable, true},
	// Repeating the work repeats the failure; surface it.
	"engine": {http.StatusInternalServerError, false},
	"panic":  {http.StatusInternalServerError, false},
}

// Retryable reports whether a reply of this kind is worth repeating, and
// whether the table knows the kind at all.
func Retryable(kind string) (retry, known bool) {
	row, known := kinds[kind]
	return row.retry, known
}

// retryable reports that err is load, not a verdict on what was asked.
func retryable(err error) bool { return kinds[classify(err).Kind].retry }

// permanent reports a refusal that would recur however often the request is
// repeated: a 4xx without the retry bit.
func permanent(err error) bool {
	row := kinds[classify(err).Kind]
	return row.status >= 400 && row.status < 500 && !row.retry
}

// classify is the one place an error that is not yet an ErrorInfo becomes a
// kind: the two ways a context ends, the jobs manager's refusals, and engine
// for the rest. The message stays the error's own.
func classify(err error) *ErrorInfo {
	var info *ErrorInfo
	var storage *jobs.StorageError
	kind := "engine"
	switch {
	case errors.As(err, &info):
		return info
	case errors.Is(err, context.DeadlineExceeded):
		kind = "deadline"
	case errors.Is(err, context.Canceled):
		kind = "canceled"
	case errors.Is(err, jobs.ErrQueueFull):
		kind = "overloaded"
	case errors.Is(err, jobs.ErrDraining):
		kind = "draining"
	case errors.Is(err, jobs.ErrNotFound):
		kind = "not_found"
	case errors.Is(err, jobs.ErrTerminal):
		kind = "conflict"
	case errors.As(err, &storage):
		kind = "storage"
	}
	return &ErrorInfo{Kind: kind, Message: err.Error()}
}

// inSession is err's ErrorInfo naming the session it belongs to — a copy,
// because the value may be shared with coalesced waiters of one build.
func inSession(err error, session string) *ErrorInfo {
	info := *classify(err)
	info.Session = session
	return &info
}

func badRequest(err error, session string) *ErrorInfo {
	return &ErrorInfo{Kind: "bad_request", Message: err.Error(), Session: session}
}

func notFound(session string) *ErrorInfo {
	return &ErrorInfo{Kind: "not_found", Message: fmt.Sprintf("no session %q", session), Session: session}
}

// fail is the only way an error leaves the server: the kind's row decides
// the status and whether the reply carries Retry-After. A request ID and a
// Server-Timing header (ROADMAP item 1) attach here and at sessionWork.
func (s *Server) fail(w http.ResponseWriter, err error) {
	info := *classify(err)
	row, ok := kinds[info.Kind]
	if !ok {
		s.cfg.Logf("error kind %q has no row in the kind table; answering engine: %s", info.Kind, info.Message)
		info.Kind, row = "engine", kinds["engine"]
	}
	if row.retry {
		hint := info.retryAfter
		if hint <= 0 {
			hint = retryAfterHint
		}
		// Retry-After is integral seconds; round up so clients never
		// retry into a still-closed window.
		w.Header().Set("Retry-After", strconv.FormatInt(int64((hint+time.Second-1)/time.Second), 10))
	}
	s.writeJSON(w, row.status, ErrorBody{Error: info})
}

// The shard taxonomy crosses the wire as kinds; its two directions are the
// pair below. A coordinator asks two things of a worker's error — is the
// engine broken (re-init it; the worker is fine), is the failure
// deterministic (abort; it would recur anywhere) — and treats the rest as
// transient: retry, then re-host.

// shardErr is the worker's half: a runner's error, ready for fail. Load
// outranks determinism: the runner calls every builder failure fatal, but a
// budget shed or a canceled wait in the chain is this worker's moment, not
// the design's fault, and is answered as what it is.
func shardErr(err error) error {
	var fatal *shard.FatalError
	switch {
	case errors.Is(err, shard.ErrEngineBroken):
		return &ErrorInfo{Kind: "shard_broken", Message: err.Error()}
	case errors.As(err, &fatal) && !retryable(err):
		return &ErrorInfo{Kind: "shard_fatal", Message: err.Error()}
	}
	return err
}

// ShardError is the coordinator's half: the shard-taxonomy error a worker's
// reply stands for, or nil for a transient one. It inverts what a worker
// writes and no more: shardErr's two kinds, and the bad_request gated
// answers a malformed dispatch with, which is as deterministic.
func ShardError(worker string, info ErrorInfo) error {
	switch info.Kind {
	case "shard_broken":
		return fmt.Errorf("%w: worker %s: %s", shard.ErrEngineBroken, worker, info.Message)
	case "shard_fatal", "bad_request":
		return &shard.FatalError{Err: fmt.Errorf("worker %s: %s", worker, info.Message)}
	}
	return nil
}

// HealthResponse is the /healthz body. The endpoint answers 200 as long
// as the process is alive, including while draining — liveness and
// readiness are separate questions.
type HealthResponse struct {
	Status   string `json:"status"` // "ok" | "draining"
	Draining bool   `json:"draining"`
	Sessions int    `json:"sessions"`
	Inflight int    `json:"inflight"`
}

// ReadyResponse is the /readyz body; the endpoint answers 503 while
// draining so load balancers stop routing new work here.
type ReadyResponse struct {
	Status string `json:"status"` // "ready" | "draining"
	// Inflight and Queued are the admission gate's current occupancy;
	// Capacity and QueueDepth its limits.
	Inflight   int `json:"inflight"`
	Queued     int `json:"queued"`
	Capacity   int `json:"capacity"`
	QueueDepth int `json:"queueDepth"`
	Sessions   int `json:"sessions"`
	// Shed counts requests rejected with 429 since startup.
	Shed int64 `json:"shed"`
	// OpenBreakers lists sessions whose breaker is currently open.
	OpenBreakers []string `json:"openBreakers,omitempty"`
	// Durable reports that the server runs with a data directory;
	// StorageDegraded that at least one journal append has failed since
	// startup (lifecycle changes may be refused with 503 storage until the
	// disk recovers — analysis of loaded sessions keeps working).
	Durable         bool `json:"durable,omitempty"`
	StorageDegraded bool `json:"storageDegraded,omitempty"`
	// JobsQueued/JobsRunning are the async job subsystem's gauges: jobs
	// waiting for an engine slot or a retry, and jobs currently executing.
	JobsQueued  int `json:"jobsQueued"`
	JobsRunning int `json:"jobsRunning"`
	// Memory governance: MemBudget is the configured byte budget (0 =
	// unlimited); MemCharged the bytes charged to cached designs;
	// CachedDesigns the entries resident in the shared design cache;
	// CacheHits/CacheEvictions/BudgetSheds its lifetime counters. A
	// BudgetShed is a request refused with 503 kind "budget".
	MemBudget      int64 `json:"memBudget"`
	MemCharged     int64 `json:"memCharged"`
	CachedDesigns  int   `json:"cachedDesigns"`
	CacheHits      int64 `json:"cacheHits"`
	CacheEvictions int64 `json:"cacheEvictions"`
	BudgetSheds    int64 `json:"budgetSheds"`
}

// JobsResponse is the body of GET /v1/jobs.
type JobsResponse struct {
	Jobs []report.JobJSON `json:"jobs"`
}
