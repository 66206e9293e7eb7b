package server

import (
	"context"
	"sync"
	"time"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/report"
	"repro/internal/shard"
)

// session owns one loaded design and its persistent incremental analyzer.
//
// Locking discipline: busy is a one-slot semaphore serializing the
// expensive engine work (exactly one analysis runs per session at a time;
// core.Session is not concurrency safe). It is a channel rather than a
// mutex for two reasons: acquisition is a select against the request and
// drain contexts, so a deadline can interrupt the wait instead of pinning
// a worker uncancellably behind a slow session, and release is deferred so
// a panicking handler cannot leak the slot and wedge the session. stateMu
// guards the cheap observable state — breaker counters, cached reports,
// suspect flag — which health and report endpoints read without waiting
// behind a running analysis. refs and lastUsed are guarded by the server's
// registry lock, because eviction ordering is a registry concern.
type session struct {
	name string
	b    *bind.Design
	opts core.Options

	// entry is the shared design-cache entry b came from; the session
	// holds one reference for its lifetime in the registry, released by
	// whichever path removes it (dropSessionLocked, create unwind).
	entry *designEntry

	// design is the spec the session was built from, kept so a
	// distributed iterate can ship the same sources to remote workers, and
	// keys its identities, computed where the spec entered the process.
	// Both are immutable after build.
	design *shard.DesignSpec
	keys   specKeys

	// padding is the cumulative per-net window padding every reanalyze has
	// applied, by name, names the design lacks included. It is what the
	// durable store journals, and what re-seeds the engine when a restored
	// or re-materialized session rebuilds (guarded by busy, like the engine).
	padding map[string]float64

	// persisted marks a session backed by the durable store: evicting it
	// only drops the in-memory copy, and deleting it requires a journaled
	// tombstone. restored/recoveredAt report that this in-memory object was
	// rebuilt from disk (at boot or on a lazy revive) rather than created
	// by a client in this process's lifetime.
	persisted   bool
	restored    bool
	recoveredAt time.Time

	// pending hides a session whose create record is being journaled;
	// deleting hides one whose tombstone is. Both are guarded by the
	// server's registry mutex and make the session invisible to lookups
	// while durable state catches up with in-memory state.
	pending  bool
	deleting bool

	// busy serializes engine work on this session; see the type comment.
	busy chan struct{}

	// refs counts in-flight requests pinned to this session (guarded by
	// the server's registry mutex). Only a session with zero references
	// may be evicted or deleted, so an admitted request never completes
	// against an orphaned session whose cached result is unreachable.
	refs int

	// eng is the persistent incremental analyzer; nil until the first
	// analyze request, rebuilt after a broken incremental update. Guarded
	// by busy.
	eng *core.Session
	// spans is where lastResponse's nets lie and which record versions
	// they encode, for the next reply to copy the unchanged ones from
	// (report.AppendJSON). Guarded by busy; a reply's encode rewrites it
	// and recordResult stores the body it describes.
	spans report.Spans

	stateMu sync.Mutex
	// suspect marks a handler-level panic observed on this session.
	suspect bool
	// analyzed and the summary counters describe the last completed
	// analysis; lastResponse is its encoded body for GET report, and the
	// body the next reply copies its unchanged nets from (spans). It is
	// never written in place, only replaced, so both may read it at once.
	analyzed     bool
	victims      int
	violations   int
	degradedNets int
	lastResponse []byte
	// breaker state: consecutive engine-degraded results, whether the
	// breaker is tripped (it stays tripped through half-open until a clean
	// probe closes it), whether a half-open probe is in flight, and the
	// cooldown deadline.
	consecDegraded int
	tripped        bool
	probing        bool
	trippedUntil   time.Time
}

// acquire takes the session's busy slot, waiting until the slot frees, the
// request context expires, or the drain force-cancel fires. It reports
// whether the slot was taken; on success the caller must release().
func (s *session) acquire(ctx context.Context, force context.Context) bool {
	select {
	case s.busy <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	case <-force.Done():
		return false
	}
}

func (s *session) release() { <-s.busy }

// ensureEngine returns the session's persistent analyzer, building (or
// rebuilding, after a broken update) it with a full analysis. Callers hold
// the busy slot. The returned bool reports whether a rebuild happened.
//
// The rebuild seeds the engine with the session's cumulative padding, so a
// session restored from the durable store — or rebuilt after a broken
// incremental update — lands on exactly the state its reanalyze history
// reached: padByID resolves the record's names, core.NewSession applies the
// padding inside its full analysis, and the engine oracle pins that this
// equals applying the same deltas incrementally.
func (s *session) ensureEngine(ctx context.Context) (*core.Session, bool, error) {
	if s.eng != nil && s.eng.Err() == nil {
		return s.eng, false, nil
	}
	s.eng = nil // drop broken state before the rebuild
	opts := s.opts
	opts.STA.WindowPadding = padByID(s.b.Net, s.padding)
	eng, err := core.NewSession(ctx, s.b, opts)
	if err != nil {
		return nil, true, err
	}
	s.eng = eng
	return eng, true, nil
}

// padByID resolves a padding record by name to padding by net ID; a name the
// design lacks pads nothing.
func padByID(d *netlist.Design, byName map[string]float64) []float64 {
	pad := make([]float64, d.NumNets())
	for net, p := range byName {
		if id := d.FindNet(net); id >= 0 {
			pad[id] = p
		}
	}
	return pad
}

// isRestored reports that the session was rebuilt from the durable store.
func (s *session) isRestored() bool { return s.restored }

// markSuspect records a handler-level panic against the session.
func (s *session) markSuspect() {
	s.stateMu.Lock()
	s.suspect = true
	s.stateMu.Unlock()
}

// breakerOpen reports whether the breaker currently rejects work and the
// remaining cooldown. It is a pure read for the readiness and info
// endpoints; analysis admission goes through breakerAdmit, which also
// arbitrates the half-open probe.
func (s *session) breakerOpen(now time.Time) (time.Duration, bool) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if now.Before(s.trippedUntil) {
		return s.trippedUntil.Sub(now), true
	}
	return 0, false
}

// breakerAdmit decides whether an analysis request may run. While the
// cooldown is running every request is rejected with the remaining wait.
// At the trip deadline the breaker goes half-open: exactly one request is
// admitted as the probe (probe=true; the caller must probeRelease() when
// it finishes) and concurrent requests are rejected with no wait of their
// own (fail's default hint) until the probe's outcome decides — via
// recordOutcome — whether the breaker resets or re-trips.
func (s *session) breakerAdmit(now time.Time) (retryAfter time.Duration, probe, open bool) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if now.Before(s.trippedUntil) {
		return s.trippedUntil.Sub(now), false, true
	}
	if !s.tripped {
		return 0, false, false
	}
	if s.probing {
		return 0, false, true
	}
	s.probing = true
	return 0, true, false
}

// probeRelease ends a half-open probe, letting the next request probe (or
// run freely, if the probe's outcome closed the breaker). It is safe to
// call whether or not the probe reached recordOutcome — cancelled and
// panicked probes must release too, or the breaker would reject forever.
func (s *session) probeRelease() {
	s.stateMu.Lock()
	s.probing = false
	s.stateMu.Unlock()
}

// recordOutcome feeds one completed analysis into the breaker: an
// engine-degraded result (fail-soft Diags, or an outright engine error)
// counts against the session; a clean result resets it. Tripping arms a
// cooldown during which requests are shed with 503. A degraded result
// while the breaker is tripped — i.e. a failed half-open probe — re-trips
// immediately rather than waiting for the consecutive threshold again.
func (s *session) recordOutcome(degraded bool, now time.Time) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if !degraded {
		s.consecDegraded = 0
		s.tripped = false
		s.trippedUntil = time.Time{}
		return
	}
	s.consecDegraded++
	if s.tripped || s.consecDegraded >= breakerTrips {
		s.tripped = true
		s.trippedUntil = now.Add(breakerCooldown)
	}
}

// recordResult caches the summary and encoded body of a completed
// analysis for the report and info endpoints, under the busy slot.
func (s *session) recordResult(res *core.Result, body []byte) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	s.analyzed = true
	s.victims = res.Stats.Victims
	s.violations = len(res.Violations)
	s.degradedNets = res.Stats.DegradedNets
	s.lastResponse = body
}

// report returns the cached last analysis body, or nil.
func (s *session) report() []byte {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.lastResponse
}

// info snapshots the session for the info and list endpoints.
func (s *session) info(now time.Time) SessionInfo {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	bi := BreakerInfo{ConsecutiveDegraded: s.consecDegraded}
	if now.Before(s.trippedUntil) {
		bi.Open = true
		bi.RetryAfterS = s.trippedUntil.Sub(now).Seconds()
	}
	info := SessionInfo{
		Name:         s.name,
		Analyzed:     s.analyzed,
		Suspect:      s.suspect,
		Breaker:      bi,
		Victims:      s.victims,
		Violations:   s.violations,
		DegradedNets: s.degradedNets,
		Persisted:    s.persisted,
		Loaded:       true,
		Restored:     s.restored,
	}
	if s.restored && !s.recoveredAt.IsZero() {
		info.RecoveredAt = s.recoveredAt.UTC().Format(time.RFC3339Nano)
	}
	return info
}
