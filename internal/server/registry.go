package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/lint"
	"repro/internal/load"
	"repro/internal/shard"
	"repro/internal/sta"
)

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
		ss, err := s.materialize(context.Background(), name, sp)
		if err != nil {
			if retryable(err) {
				// Out of memory budget, not an unreplayable spec: leave it
				// on disk for lazy revive once memory frees up.
				s.cfg.Logf("restore: %q stays on disk (memory budget): %v", name, err)
				continue
			}
			s.quarantineSpec(name, err.Error())
			continue
		}
		if err := s.insert(ss); err != nil {
			s.cache.release(ss.entry)
			s.cfg.Logf("restore: %q stays on disk: %v", name, err)
			continue
		}
		loaded++
		s.cfg.Logf("restore: session %q re-materialized from %s", name, s.cfg.DataDir)
	}
}

// materialize builds an in-memory session from a persisted spec: the same
// parse/lint/bind pipeline as a create, plus the restored padding record,
// which seeds the engine on first analyze (ensureEngine resolves it by net
// ID, core.NewSession applies it in its full analysis, and the session
// oracle pins that this equals create-then-reanalyze).
func (s *Server) materialize(ctx context.Context, name string, sp *sessionSpec) (*session, error) {
	ss, err := s.buildSession(ctx, sp.Create.Name, sp.Create.design(), sp.keys)
	if err != nil {
		return nil, err
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
		defer s.mu.Unlock()
		s.recovery.Quarantined = append(s.recovery.Quarantined, *rep)
		s.recovery.Restored = slices.DeleteFunc(s.recovery.Restored, func(n string) bool { return n == name })
	}
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
// same name, and answers not_found when the store has no such session.
//
// The returned session is PINNED (refs incremented before it becomes
// visible in the registry) and the caller must releaseRef it. Handing it
// back unpinned would reopen an overload race: under heavy session churn
// every other loaded session can be pinned by in-flight requests, which
// makes a freshly revived refs==0 session the only LRU-eviction candidate
// — it would be evicted between revive and the caller's retain, turning a
// perfectly durable session into a spurious 404.
func (s *Server) revive(ctx context.Context, name string) (*session, error) {
	if s.store == nil {
		return nil, notFound(name)
	}
	for {
		sp := s.store.Spec(name)
		if sp == nil {
			return nil, notFound(name)
		}
		sp.restoredAt = time.Time{} // a revive is recovered "now", not at boot
		ss, err := s.materialize(ctx, name, sp)
		if err != nil {
			if retryable(err) {
				// A budget shed is load and a canceled wait is the
				// caller's own deadline — neither is rot: the spec still
				// builds. Do NOT quarantine; the refusal is the caller's
				// to retry.
				return nil, err
			}
			s.quarantineSpec(name, err.Error())
			return nil, &ErrorInfo{
				Kind:    "unreplayable",
				Message: fmt.Sprintf("session %q could not be re-materialized from disk and was quarantined: %v", name, err),
				Session: name,
			}
		}
		// Born pinned: the ref must exist before insert makes the session
		// visible, or a concurrent insert could evict it first.
		ss.refs = 1
		if err := s.insert(ss); err != nil {
			s.cache.release(ss.entry)
			if classify(err).Kind == "conflict" {
				// A concurrent request revived it first; use theirs.
				//snavet:deferrelease the pin is handed to the caller, which defers releaseRef for the request's lifetime
				if cur := s.retain(name); cur != nil {
					return cur, nil
				}
				continue
			}
			return nil, err
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
			return nil, notFound(name)
		}
		s.cfg.Logf("session %q re-materialized from disk", name)
		return ss, nil
	}
}

// retainOrRevive pins the named session, re-materializing it from the
// store when it is not in memory; a name neither holds is not_found. The
// caller must releaseRef the result.
func (s *Server) retainOrRevive(ctx context.Context, name string) (*session, error) {
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
func (s *Server) insert(ss *session) error {
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

// buildSession resolves a design spec into a named session: cheap
// per-session inputs (timing annotation, mode) are parsed here, and the
// expensive immutable part — the parsed, linted, bound design — is
// acquired from the shared content-addressed cache, which builds it at
// most once per distinct source set. keys are the spec's, computed where
// it entered the process. The returned session holds one cache reference;
// every path that discards the session must release it
// (dropSessionLocked, or cache.release on pre-insert failures).
func (s *Server) buildSession(ctx context.Context, name string, design *shard.DesignSpec, keys specKeys) (*session, error) {
	if name == "" {
		return nil, badRequest(errors.New("session name is required"), "")
	}
	entry, opts, err := s.acquireDesign(ctx, design, keys.design)
	if err != nil {
		return nil, inSession(err, name)
	}
	if f := s.cfg.Faults; f != nil && f.Prepare != nil {
		opts.PrepareHook = func(net string) error { return f.Prepare(name, net) }
	}
	return &session{
		name:   name,
		design: design,
		keys:   keys,
		busy:   make(chan struct{}, 1),
		b:      entry.b,
		entry:  entry,
		opts:   opts,
	}, nil
}

// acquireDesign is the one path from a design spec to a bound design and
// its engine options, taken by a session's build and by a run token's
// first init on this worker. It maps the service's options onto the
// engine's — the mode by name (unnamed: the zero value, noise windows), the
// input timing parsed, fail-soft unless FailFast — and acquires the design
// under key from the shared cache, building it on a miss. The caller owns
// the entry's reference.
func (s *Server) acquireDesign(ctx context.Context, spec *shard.DesignSpec, key cacheKey) (*designEntry, core.Options, error) {
	if (spec.Netlist == "") == (spec.Verilog == "") {
		return nil, core.Options{}, badRequest(errors.New("exactly one of netlist or verilog is required"), "")
	}
	o := &spec.Options
	opts := core.Options{
		FilterThreshold:  o.Threshold,
		NoPropagation:    o.NoPropagation,
		LogicCorrelation: o.LogicCorrelation,
		Workers:          o.Workers,
		FailSoft:         !o.FailFast,
	}
	var err error
	if spec.Timing != "" {
		if opts.STA.InputTiming, err = sta.ParseInputTiming(strings.NewReader(spec.Timing)); err != nil {
			return nil, core.Options{}, badRequest(err, "")
		}
	}
	if o.Mode != "" {
		if opts.Mode, err = core.ParseMode(o.Mode); err != nil {
			return nil, core.Options{}, badRequest(err, "")
		}
	}
	size := int64(len(spec.Netlist) + len(spec.Verilog) + len(spec.SPEF) + len(spec.Liberty) + len(spec.Timing))
	//snavet:deferrelease the entry reference is handed to the caller: a session owns it until dropSessionLocked (or the create unwinds), a run token until the shard host releases the token's design; acquire failure returns a nil entry
	entry, err := s.cache.acquire(ctx, key, size, func() (*bind.Design, error) {
		return buildDesign(spec, opts.STA.InputTiming)
	})
	return entry, opts, err
}

// buildDesign is the cache-miss build path: parse every database, run
// the lint pre-flight, and bind. Errors carry no session name — the
// result may be shared by coalesced acquires from different sessions,
// so callers annotate a copy. A lint rejection fails the build (noise
// results computed from a broken database are worse than no results)
// and is deliberately not cached: it is deterministic, cheap to rerun,
// and caching failures would pin rejected source text in memory.
func buildDesign(src *shard.DesignSpec, inputs map[string]*sta.Timing) (*bind.Design, error) {
	ls := load.Sources{
		Netlist: load.Text(src.Netlist), Liberty: load.Text(src.Liberty), SPEF: load.Text(src.SPEF), Inputs: inputs,
	}
	if src.Verilog != "" {
		ls.Netlist, ls.Verilog = load.Text(src.Verilog), true
	}
	loaded, err := load.Load(ls, lint.Config{})
	if err != nil {
		return nil, badRequest(err, "")
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
		return nil, badRequest(err, "")
	}
	return b, nil
}
