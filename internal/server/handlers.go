package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/report"
	"repro/internal/units"
)

// gated runs fn holding a worker slot of the admission gate and under the
// request's deadline: the client's connection context, bounded by
// min(client ?timeout, maxRequestTimeout) from the moment the slot is
// granted, and tied to the forced-drain signal. Create, the shard ops and
// the analyses share it.
func (s *Server) gated(r *http.Request, fn func(context.Context) error) error {
	eff := maxRequestTimeout
	if q := r.URL.Query().Get("timeout"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			return badRequest(fmt.Errorf("bad timeout %q (want a positive duration like 5s)", q), "")
		}
		eff = min(eff, d)
	}
	release, err := s.admit(r)
	if err != nil {
		return err
	}
	defer release()
	ctx, cancel := context.WithTimeout(r.Context(), eff)
	defer cancel()
	stop := context.AfterFunc(s.forceCtx, cancel)
	defer stop()
	return fn(ctx)
}

// handleCreate builds under the gated context: the build may wait on a
// coalesced single-flight build of the same sources, and that wait ends at
// the request deadline and the forced drain like any other.
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) error {
	return s.gated(r, func(ctx context.Context) error {
		var req CreateSessionRequest
		if err := decodeBody(r.Body, &req); err != nil {
			return err
		}
		if th := req.Options.Threshold; !units.FiniteNonNeg(th) {
			return badRequest(fmt.Errorf("bad threshold %v (want finite >= 0)", th), "")
		}
		design := req.design()
		ss, err := s.buildSession(ctx, req.Name, design, keysOf(design))
		if err != nil {
			return err
		}
		if s.store != nil {
			// A persisted session that was LRU-evicted from memory still
			// exists; its name is not reusable until it is deleted.
			if s.store.Spec(req.Name) != nil {
				s.cache.release(ss.entry)
				return &ErrorInfo{
					Kind: "conflict", Message: fmt.Sprintf("session %q already exists (persisted)", req.Name), Session: req.Name,
				}
			}
			// Reserve the name first (pending sessions are invisible to
			// lookups and pinned against eviction), then journal, then
			// publish: the 201 is not sent until the create record is
			// fsynced, so an acknowledged session survives a crash; and a
			// journaling failure unwinds the reservation, so the in-memory
			// state never runs ahead of the durable state.
			ss.pending = true
			ss.persisted = true
			ss.refs = 1
		}
		if err := s.insert(ss); err != nil {
			s.cache.release(ss.entry)
			return err
		}
		if s.store != nil {
			if err := s.store.Create(&req, ss.keys); err != nil {
				func() {
					s.mu.Lock()
					defer s.mu.Unlock()
					s.dropSessionLocked(ss)
				}()
				s.cfg.Logf("session %q create not journaled, refused: %v", ss.name, err)
				return &ErrorInfo{
					Kind: "storage", Message: fmt.Sprintf("session could not be journaled: %v", err), Session: ss.name,
				}
			}
			s.mu.Lock()
			ss.pending = false
			ss.refs--
			s.mu.Unlock()
		}
		s.cfg.Logf("session %q created", ss.name)
		s.writeJSON(w, http.StatusCreated, ss.info(s.cfg.now()))
		return nil
	})
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

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) error {
	ss, err := s.retainOrRevive(r.Context(), r.PathValue("name"))
	if err != nil {
		return err
	}
	defer s.releaseRef(ss)
	s.writeJSON(w, http.StatusOK, ss.info(s.cfg.now()))
	return nil
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	s.mu.Lock()
	ss, inMem := s.sessions[name]
	if inMem && (ss.refs > 0 || ss.deleting) {
		// In-flight requests pin the session (see retain); deleting it now
		// would let them complete against an orphaned object. Refuse and
		// let the caller retry once the session quiesces.
		s.mu.Unlock()
		return &ErrorInfo{
			Kind: "busy", Message: fmt.Sprintf("session %q has requests in flight", name), Session: name,
		}
	}
	// A persisted session may exist on disk only (LRU-evicted); it is
	// deletable without reloading it.
	persisted := s.store != nil && s.store.Spec(name) != nil
	if !inMem && !persisted {
		s.mu.Unlock()
		return notFound(name)
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
			return &ErrorInfo{
				Kind: "storage", Message: fmt.Sprintf("tombstone could not be journaled: %v", err), Session: name,
			}
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
	return nil
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) error {
	ss, err := s.retainOrRevive(r.Context(), r.PathValue("name"))
	if err != nil {
		return err
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
		return &ErrorInfo{Kind: "not_found", Message: msg, Session: ss.name}
	}
	writeBody(w, http.StatusOK, body)
	return nil
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) error {
	var req AnalyzeRequest
	if err := decodeBodyOptional(r.Body, &req); err != nil {
		return err
	}
	return s.analysis(w, r, func(ctx context.Context, ss *session) (*answer, error) {
		return s.analyzeWork(ctx, ss, req.Delay)
	})
}

// answer is an analysis's reply before it is encoded: the engine's own
// results, encoded before the busy slot is released, and the members
// AnalyzeResponse puts around them. prev and spans, when set, are the
// session's last reply and where its nets lie (report.AppendJSON), which
// encode copies unchanged nets from and re-points at the new reply.
type answer struct {
	noise       *core.Result
	delay       *core.DelayResult // nil unless the request asked for it
	changedNets int
	rebuilt     bool
	iterate     *IterateInfo
	prev        []byte
	spans       *report.Spans
}

// encode appends the answer to dst as json.Marshal would write the
// AnalyzeResponse it stands for.
func (a *answer) encode(dst []byte, session string) ([]byte, error) {
	b := report.AppendString(append(dst, `{"session":`...), session)
	b, err := report.AppendJSON(append(b, `,"noise":`...), a.noise, a.prev, a.spans)
	if err == nil && a.delay != nil {
		b, err = report.AppendDelayJSON(append(b, `,"delay":`...), a.delay)
	}
	if a.changedNets != 0 {
		b = strconv.AppendInt(append(b, `,"changedNets":`...), int64(a.changedNets), 10)
	}
	if a.rebuilt {
		b = append(b, `,"rebuilt":true`...)
	}
	if a.iterate != nil {
		info, _ := json.Marshal(a.iterate) // cannot fail: ints, bools, strings and finite seconds
		b = append(append(b, `,"iterate":`...), info...)
	}
	return append(b, '}'), err
}

// analyzeWork is one full analysis of the session, run under its busy
// slot: the body of POST analyze and of an analyze job.
func (s *Server) analyzeWork(ctx context.Context, ss *session, delay bool) (*answer, error) {
	eng, rebuilt, err := ss.ensureEngine(ctx)
	if err != nil {
		return nil, err
	}
	a := &answer{noise: eng.Noise(), rebuilt: rebuilt}
	if delay {
		a.delay = eng.Delay()
	}
	return a, nil
}

func (s *Server) handleReanalyze(w http.ResponseWriter, r *http.Request) error {
	var req ReanalyzeRequest
	if err := decodeBody(r.Body, &req); err != nil {
		return err
	}
	if err := jobs.CheckValues(req.Padding, nil); err != nil {
		return badRequest(err, "")
	}
	return s.analysis(w, r, func(ctx context.Context, ss *session) (*answer, error) {
		return s.reanalyzeWork(ctx, ss, req.Padding, req.Delay)
	})
}

// reanalyzeWork applies padding to the session's warm engine, run under
// its busy slot: the body of POST reanalyze and of a reanalyze job.
func (s *Server) reanalyzeWork(ctx context.Context, ss *session, padding map[string]float64, delay bool) (*answer, error) {
	eng, rebuilt, err := ss.ensureEngine(ctx)
	if err != nil {
		return nil, err
	}
	// The record by name is the change: a grown name counts whether or not
	// the design has it. It is committed once the analysis succeeded.
	next, grown := make(map[string]float64, len(ss.padding)+len(padding)), 0
	maps.Copy(next, ss.padding)
	for net, pad := range padding {
		if pad > next[net] {
			next[net] = pad
			grown++
		}
	}
	res, _, err := eng.Reanalyze(ctx, padding)
	if err != nil {
		return nil, err
	}
	if grown > 0 {
		// Journal it (we hold the busy slot), so a rebuild — in this
		// process or the next — replays the session to exactly this state.
		ss.padding = next
		s.persistPadding(ss)
	}
	a := &answer{noise: res, changedNets: grown, rebuilt: rebuilt}
	if delay {
		a.delay = eng.Delay()
	}
	return a, nil
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

// analysis is the interactive face of sessionWork, under analyze and
// reanalyze. What is its alone — breaker admission and the half-open
// probe, the admission gate and request deadline, snad_analysis_seconds —
// wraps the harness's busy-slot half, so each keeps its deferred release.
func (s *Server) analysis(w http.ResponseWriter, r *http.Request, work func(context.Context, *session) (*answer, error)) error {
	admit := func(ss *session, run func(context.Context) error) error {
		retryAfter, probe, open := ss.breakerAdmit(s.cfg.now())
		if open {
			return &ErrorInfo{
				Kind:       "breaker_open",
				Message:    fmt.Sprintf("session breaker open after %d consecutive degraded results", breakerTrips),
				Session:    ss.name,
				retryAfter: retryAfter,
			}
		}
		if probe {
			// The probe slot must be returned on every path out of this
			// request — including cancellation and panic — or the half-open
			// breaker would reject requests forever.
			defer ss.probeRelease()
		}
		return s.gated(r, run)
	}
	body, _, err := s.sessionWork(r.Context(), r.PathValue("name"), admit, func(ctx context.Context, ss *session) (*answer, error) {
		start := time.Now()
		defer func() { s.histAnalysis.Observe(time.Since(start).Seconds()) }()
		return work(ctx, ss)
	})
	if err != nil {
		return err
	}
	writeBody(w, http.StatusOK, body)
	return nil
}

// sessionWork is the one harness under every analysis, a request's or a
// job's; DESIGN.md §7 gives the reasons for its one order of steps. It
// returns the reply body (nil when work made no answer — a sweep keeps its
// own payload), whether the engine degraded, and the classified error.
func (s *Server) sessionWork(ctx context.Context, name string, admit func(*session, func(context.Context) error) error, work func(context.Context, *session) (*answer, error)) (body []byte, degraded bool, err error) {
	// 1. Pin the session, reviving it from the store when it is not loaded:
	// neither eviction nor a delete can orphan the work.
	ss, err := s.retainOrRevive(ctx, name)
	if err != nil {
		return nil, false, err
	}
	defer s.releaseRef(ss)
	run := func(ctx context.Context) error {
		// 3. The busy slot, against the caller's context and the forced
		// drain: a pile-up behind one slow session sheds at its deadline
		// instead of pinning workers, which a sync.Mutex could not do.
		if !ss.acquire(ctx, s.forceCtx) {
			if s.forceCtx.Err() != nil || errors.Is(ctx.Err(), context.Canceled) {
				return &ErrorInfo{Kind: "canceled", Message: "request cancelled while waiting for the session", Session: name}
			}
			return &ErrorInfo{Kind: "deadline", Message: "request deadline expired while waiting for the session", Session: name}
		}
		// 4. Work under a deferred release: a panic in the engine cannot
		// leak the slot and wedge every later request to the session.
		err := func() error {
			defer ss.release()
			a, err := work(ctx, ss)
			if err != nil || a == nil {
				return err
			}
			// 5. Encode the reply once, sized by the last, and cache it as
			// the report — under the slot: the next analysis rewrites the
			// engine's result in place once the slot is free. Only the
			// nets whose records moved since the last reply are encoded;
			// the rest are copied out of that reply's body (ss.spans).
			a.prev, a.spans = ss.report(), &ss.spans
			b, err := a.encode(make([]byte, 0, len(a.prev)+len(a.prev)/8), name)
			if err != nil {
				// Unreachable as long as the report schema keeps its no-NaN
				// discipline; fail loudly rather than hang the connection.
				return &ErrorInfo{Kind: "engine", Message: fmt.Sprintf("encoding response: %v", err)}
			}
			body, degraded = b, a.noise.Stats.DegradedNets > 0
			ss.recordResult(a.noise, body)
			return nil
		}()
		// 6. The breaker: an engine failure or a degraded result counts
		// against the session and a clean result resets it; a refusal or a
		// cancellation is not session health, and says so in the reply's
		// words (the kind is classify's either way).
		if err != nil {
			info := inSession(err, name)
			switch {
			case info.Kind == "engine":
				ss.recordOutcome(true, s.cfg.now())
			case errors.Is(err, context.DeadlineExceeded):
				info.Message = fmt.Sprintf("analysis exceeded its deadline: %v", err)
			case errors.Is(err, context.Canceled):
				info.Message = fmt.Sprintf("analysis cancelled: %v", err)
			}
			return info
		}
		if body != nil {
			ss.recordOutcome(degraded, s.cfg.now())
		}
		return nil
	}
	// 2. The caller's own admission, when it has one, around the rest.
	if admit == nil {
		err = run(ctx)
	} else {
		err = admit(ss, run)
	}
	return body, degraded, err
}
