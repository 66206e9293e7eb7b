package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"time"

	"repro/internal/report"
)

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
		return s.analyzeWork(ctx, ss, req.Delay)
	})
}

// analyzeWork is one full analysis of the session, run under its busy
// slot: the body of POST analyze and of an analyze job.
func (s *Server) analyzeWork(ctx context.Context, ss *session, delay bool) (*AnalyzeResponse, error) {
	eng, rebuilt, err := ss.ensureEngine(ctx)
	if err != nil {
		return nil, err
	}
	resp := &AnalyzeResponse{
		Session: ss.name,
		Noise:   report.BuildJSON(eng.Noise()),
		Rebuilt: rebuilt,
	}
	if delay {
		resp.Delay = report.BuildDelayJSON(eng.Delay())
	}
	return resp, nil
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
		return s.reanalyzeWork(ctx, ss, req.Padding, req.Delay)
	})
}

// reanalyzeWork applies padding to the session's warm engine, run under
// its busy slot: the body of POST reanalyze and of a reanalyze job.
func (s *Server) reanalyzeWork(ctx context.Context, ss *session, padding map[string]float64, delay bool) (*AnalyzeResponse, error) {
	eng, rebuilt, err := ss.ensureEngine(ctx)
	if err != nil {
		return nil, err
	}
	res, changed, err := eng.Reanalyze(ctx, padding)
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
	if delay {
		resp.Delay = report.BuildDelayJSON(eng.Delay())
	}
	return resp, nil
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
