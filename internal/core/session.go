package core

import (
	"context"
	"errors"
	"slices"

	"repro/internal/bind"
	"repro/internal/netlist"
)

// Session is the exported handle on the single-process engine that
// AnalyzeCtx and AnalyzeIterativeCtx also drive: one prepared analyzer
// shared by the noise and delay passes. A batch run that wants both results
// opens a Session and reads Noise and Delay once (sna -delay), paying for
// timing and victim preparation one time instead of once per AnalyzeCtx/
// AnalyzeDelayCtx call. A long-running service keeps one Session per loaded
// design: the first (full) analysis builds the timing
// annotation, the noise contexts, and the coupled events once, and every
// later delta re-analysis — new window padding from an ECO, a routing
// iteration, or a what-if sweep — re-evaluates only what the change moves,
// through the same stale-bit machinery the joint noise–timing loop runs on. The
// incremental results are identical to a from-scratch analysis under the
// same padding (the oracle tests in session_test.go pin this), except for
// execution statistics.
//
// The session pads by net ID (opts.STA.WindowPadding); Reanalyze resolves
// names as they enter. A record by name is its owner's to keep.
//
// A Session is NOT safe for concurrent use; callers serialize access (the
// server wraps each session in a mutex). A Session whose incremental
// update fails mid-flight is broken — its caches may be inconsistent — and
// every later call returns ErrSessionBroken so the owner knows to rebuild
// it rather than trust stale state.
type Session struct {
	eng    engine
	phases Phases // eng, or the oracle tests' reference around it
	delay  *DelayResult
	broken error
}

// ErrSessionBroken marks a Session whose last incremental update did not
// run to completion (cancellation, deadline, or an engine error). The
// session's caches may be inconsistent with its timing annotation, so it
// refuses further work; the owner must create a fresh Session. A
// ShardEngine's round that failed after its timing moved wraps it too.
var ErrSessionBroken = errors.New("core: session broken by failed incremental update")

// NewSession runs the full analysis (noise fixpoint plus the delta-delay
// pass) on one analyzer and returns the persistent handle. It is the way to
// get a noise and a delay result for the same design and options without
// preparing every victim twice, for one-shot callers as much as for a
// service: Noise() equals AnalyzeCtx's result and Delay() equals
// AnalyzeDelayCtx's (except that a victim degraded during the noise
// fixpoint enters the delay pass with its full-rail fallback). Options
// semantics match AnalyzeCtx; any WindowPadding already present in opts.STA
// seeds the session's padding state.
func NewSession(ctx context.Context, b *bind.Design, opts Options) (*Session, error) {
	// The analyzer and the timing engine alias pad, as the iterative loop
	// does: padding applied later is what the incremental update reads.
	pad := make([]float64, b.Net.NumNets())
	copy(pad, opts.STA.WindowPadding)
	opts.STA.WindowPadding = pad
	s := &Session{eng: engine{b: b, opts: opts}}
	s.phases = &s.eng
	var err error
	if s.delay, err = runRound(ctx, s.phases, opts, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// Noise returns the current noise result. The pointer stays valid across
// Reanalyze calls (the result is updated in place, like the iterative
// loop's), so callers that need a stable snapshot must serialize against
// Reanalyze.
func (s *Session) Noise() *Result { return s.eng.res }

// Delay returns the crosstalk delta-delay result of the last (full or
// incremental) round. Read-only: every caller gets the same value.
func (s *Session) Delay() *DelayResult { return s.delay }

// Err returns nil for a healthy session and ErrSessionBroken after a
// failed incremental update.
func (s *Session) Err() error { return s.broken }

// Reanalyze applies the given per-net window padding and incrementally
// re-analyzes what it moves: the timing annotation is updated in place for
// the padded nets' fanout, coupled events are rebuilt only for victims with
// a re-timed aggressor, the noise fixpoint re-evaluates only nets with a
// moved input, and the delay pass only victims whose events or own timing
// moved. Each name resolves to its net ID; a name the design lacks pads
// nothing. Padding is max-monotonic — an entry no larger than the current
// padding for that net is ignored — which makes Reanalyze idempotent: a
// retried delta is absorbed without moving the result.
//
// It returns the updated noise result and the number of design nets whose
// padding actually changed. If nothing changed the session state is
// untouched. On error the session is broken (see ErrSessionBroken) unless
// the error occurred before any state was touched.
func (s *Session) Reanalyze(ctx context.Context, padding map[string]float64) (*Result, int, error) {
	if s.broken != nil {
		return nil, 0, s.broken
	}
	// Commit the padding, then update. From here on a failure leaves the
	// timing annotation, the event caches, and the committed combinations
	// potentially out of sync, so any error breaks the session.
	d, pad := s.eng.b.Net, s.eng.opts.STA.WindowPadding
	var changed []netlist.NetID
	//snavet:ctxloop one pass over the request's names; the round after it consults ctx
	for net, p := range padding {
		if id := d.FindNet(net); id >= 0 && p > pad[id] {
			pad[id] = p
			changed = append(changed, id)
		}
	}
	if len(changed) == 0 {
		return s.eng.res, 0, nil
	}
	slices.Sort(changed)
	delay, err := runRound(ctx, s.phases, s.eng.opts, changed)
	if err != nil {
		s.broken = ErrSessionBroken
		return nil, len(changed), err
	}
	s.delay = delay
	return s.eng.res, len(changed), nil
}
