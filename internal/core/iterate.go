package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bind"
	"repro/internal/netlist"
	"repro/internal/units"
)

// Noise and timing are mutually dependent: switching windows determine
// which glitches combine, but crosstalk also pushes transitions out
// (delta-delay), which widens the switching windows themselves. The
// signoff flow therefore iterates: analyze with the current windows,
// convert the worst per-net push-out into late-edge window padding, and
// reanalyze until the padding stops growing. Padding only grows (the
// maximum over rounds is kept) and each net's delta is bounded by
// slew·Vdd/Vdd, so the loop converges; non-convergence within the round
// limit is reported rather than hidden, and a divergence watchdog stops
// the loop early when the padding growth is not contracting — a run that
// will not converge should say so instead of silently burning rounds. The
// watchdog reads padding only, never the clock, so whether a run diverges
// does not depend on how fast the host is.
//
// Both loops of that flow exist once: RunIterative is the round loop
// (growth rule, round limit, watchdog, resume, after-round hook) and runPasses
// (analyze.go) the pass loop inside a round. What they drive is a Phases:
// the single-process engine below, or the shard coordinator's dispatching
// one. Neither engine decides when a pass, a round or the run is over.
//
// The single-process engine is incremental: one analyzer persists across
// rounds, shared between the noise and delay passes. Round 1 is a full
// analysis; each later round updates the timing annotation in place for
// the padded nets' cones (sta.Result.UpdatePaddingCtx), re-prepares the
// victims of the re-timed aggressors (see incremental.go), re-evaluates
// only what that — and then each moved commit — made stale, and reuses
// every other victim's committed results. The per-round results are
// identical to a from-scratch re-analysis with the same padding, except for
// execution statistics (Stats.Iterations counts only the incremental
// passes) and diagnostics under fault injection (a hook that fires on clean
// victims fires only for re-prepared ones).

// IterativeResult is the converged joint noise/timing analysis.
type IterativeResult struct {
	// Noise and Delay are the final round's analyses.
	Noise *Result
	Delay *DelayResult
	// Padding is the final late-edge widening applied, seconds, by the
	// padded nets' names.
	Padding map[string]float64
	// Rounds is the number of analysis rounds run.
	Rounds int
	// Converged reports whether the padding reached a fixpoint within
	// the round limit.
	Converged bool
	// Diverging reports that the watchdog cut the loop short (padding
	// growth not contracting) or that the padding was still growing when
	// the rounds ran out. Always false when Converged.
	Diverging bool
	// DivergeReason explains the watchdog trigger ("" unless Diverging).
	DivergeReason string
}

// Phases is an engine's side of the joint fixpoint — the three things a
// round consists of. The driver calls them in order: BeginRound, then
// EvalWave for every wave of every pass, then DelayImpacts.
type Phases interface {
	// BeginRound opens a round and returns the number of waves in a pass.
	// The driver's first call passes nil: build the engines, seeded with
	// the padding the driver was started with (empty, or a checkpoint's).
	// Later calls list the nets whose padding the previous round grew; the
	// new values are already in the padding slice the engine shares with
	// the driver.
	BeginRound(ctx context.Context, changed []netlist.NetID) (waves int, err error)
	// EvalWave evaluates one wave of the current pass and reports whether
	// any commit moved beyond the convergence tolerance.
	EvalWave(ctx context.Context, wave int) (changed bool, err error)
	// DelayImpacts closes the round's noise fixpoint — passes and converged
	// are its Stats.Iterations and Stats.Converged — and returns the
	// delta-delay impacts of every victim, sorted (FlattenImpacts).
	DelayImpacts(ctx context.Context, passes int, converged bool) (*DelayResult, error)
}

// RoundState is the round loop's whole state after a completed round that
// grew padding: what a checkpoint stores and a resumed run starts from. The
// analysis is not part of it — an engine built over Padding is in the state
// one that lived through the rounds reached (Session's rebuild contract).
type RoundState struct {
	// Round is the last completed round; 0 means a fresh start.
	Round int
	// Padding is the cumulative window padding by net ID, an entry for
	// every net of the design. The engine aliases this slice; the loop
	// grows it in place.
	Padding []float64
	// PrevGrowth is Round's largest per-net padding increase and Stalled
	// the count of consecutive non-contracting rounds (the watchdog).
	PrevGrowth float64
	Stalled    int
}

// RunIterative is the round loop over any engine. maxRounds bounds it
// (default 8 when zero); the tolerance for padding convergence is 0.01 ps.
// st resumes after a checkpointed round (zero Round: a fresh start) and
// holds the padding slice, sized by the caller; afterRound, when non-nil,
// sees the state after every round that leaves the loop running — the
// checkpoint hook. The result's Noise and Padding are the caller's to fill
// in: the loop knows neither the engine's result nor a net's name.
func RunIterative(ctx context.Context, eng Phases, opts Options, maxRounds int, st RoundState, afterRound func(RoundState)) (*IterativeResult, error) {
	if maxRounds <= 0 {
		maxRounds = 8
	}
	const tol = units.Pico / 100
	if st.Round == 0 {
		st.PrevGrowth = math.Inf(1)
	}
	padding := st.Padding
	out := &IterativeResult{}
	var changed []netlist.NetID // nets whose padding grew last round
	// A checkpoint taken after the last allowed round still gets one round
	// to build engines and report from.
	for round := min(st.Round+1, maxRounds); round <= maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		delay, err := runRound(ctx, eng, opts, changed)
		if err != nil {
			return nil, fmt.Errorf("core: iterative round %d: %w", round, err)
		}
		out.Rounds = round
		out.Delay = delay

		var growth float64
		changed = changed[:0]
		for _, im := range delay.Impacts {
			if im.Delta > padding[im.ID]+tol {
				growth = math.Max(growth, im.Delta-padding[im.ID])
				padding[im.ID] = im.Delta
				changed = append(changed, im.ID)
			}
		}
		if len(changed) == 0 {
			out.Converged = true
			return out, nil
		}
		// Contraction check: a healthy loop's padding increments shrink
		// every round (the feedback gain is < 1). Two consecutive rounds
		// of non-shrinking growth mean the loop is chasing its own tail.
		if growth >= st.PrevGrowth-tol {
			st.Stalled++
		} else {
			st.Stalled = 0
		}
		if st.Stalled >= 2 {
			out.Diverging = true
			out.DivergeReason = fmt.Sprintf(
				"padding growth not contracting for %d rounds (latest %.3gps/round)",
				st.Stalled, growth/units.Pico)
			return out, nil
		}
		st.Round, st.PrevGrowth = round, growth
		if afterRound != nil {
			afterRound(st)
		}
	}
	// The rounds ran out with padding still growing: the loop did not
	// converge and was still moving — report it as diverging rather than
	// letting a silent Converged=false look like a near-miss.
	out.Diverging = true
	out.DivergeReason = fmt.Sprintf("padding still growing after %d rounds", maxRounds)
	return out, nil
}

// runRound is one round over any engine: begin, the pass loop, the delay
// pass. The round loop calls it every round; a Session calls it once to
// build and once per Reanalyze.
func runRound(ctx context.Context, eng Phases, opts Options, changed []netlist.NetID) (*DelayResult, error) {
	waves, err := eng.BeginRound(ctx, changed)
	if err != nil {
		return nil, err
	}
	passes, converged, err := runPasses(ctx, opts, waves, eng.EvalWave)
	if err != nil {
		return nil, err
	}
	return eng.DelayImpacts(ctx, passes, converged)
}

// engine is the single-process Phases: one analyzer and one result,
// persisting across rounds. It is also all a Session is — "build, then one
// incremental round at a time".
type engine struct {
	b    *bind.Design
	opts Options
	a    *analyzer
	res  *Result
}

// BeginRound implements Phases. The padding slice is
// opts.STA.WindowPadding, which the analyzer and the timing engine alias;
// a later round updates the timing in place for the padded nets' cones.
func (e *engine) BeginRound(ctx context.Context, changed []netlist.NetID) (int, error) {
	if e.a == nil {
		a, err := newAnalyzer(ctx, e.b, e.opts)
		if err != nil {
			return 0, err
		}
		e.a, e.res = a, a.newResult()
		return len(a.waves), nil
	}
	retimed, err := e.a.staRes.UpdatePaddingCtx(ctx, e.a.opts.STA, changed)
	if err != nil {
		return 0, err
	}
	return len(e.a.waves), e.a.retime(ctx, retimed)
}

// EvalWave implements Phases with the analyzer's own wavefront — serial or
// across Options.Workers — over the wave's stale nets.
func (e *engine) EvalWave(ctx context.Context, wi int) (bool, error) {
	return e.a.evalWave(ctx, e.res, e.a.waves[wi], nil)
}

// DelayImpacts implements Phases: finish the noise result, then re-run the
// delay pass on the delay-stale nets.
func (e *engine) DelayImpacts(ctx context.Context, passes int, converged bool) (*DelayResult, error) {
	e.a.finishNoise(e.res, passes, converged)
	if err := e.a.delayPass(ctx); err != nil {
		return nil, err
	}
	return e.a.assembleDelay(), nil
}

// AnalyzeIterativeCtx runs the noise–timing loop single-process. maxRounds
// bounds the outer iteration (default 8 when zero). Cancellation is
// checked between rounds and inside each round's analyses.
func AnalyzeIterativeCtx(ctx context.Context, b *bind.Design, opts Options, maxRounds int) (*IterativeResult, error) {
	return ResumeIterativeCtx(ctx, b, opts, maxRounds, RoundState{}, nil)
}

// ResumeIterativeCtx is AnalyzeIterativeCtx under the round loop's resume
// state and after-round hook (see RunIterative): what a caller that
// checkpoints rounds uses.
func ResumeIterativeCtx(ctx context.Context, b *bind.Design, opts Options, maxRounds int, from RoundState, afterRound func(RoundState)) (*IterativeResult, error) {
	if from.Padding == nil {
		from.Padding = make([]float64, b.Net.NumNets())
	}
	// The analyzer and the timing engine alias this slice: padding grown
	// after a round is what the next round's incremental update applies.
	opts.STA.WindowPadding = from.Padding
	eng := &engine{b: b, opts: opts}
	out, err := RunIterative(ctx, eng, opts, maxRounds, from, afterRound)
	if err != nil {
		return nil, err
	}
	out.Noise, out.Padding = eng.res, PaddingByName(b.Net, from.Padding)
	return out, nil
}

// PaddingByName is padding by net ID as the edges speak it — a report, a
// service's journal: each padded net's amount, by name.
//
//snavet:ctxloop one pass over a slice at the report edge, no analysis in it
func PaddingByName(d *netlist.Design, padding []float64) map[string]float64 {
	out := make(map[string]float64)
	for id, pad := range padding {
		if pad > 0 {
			out[d.NetName(netlist.NetID(id))] = pad
		}
	}
	return out
}

// MaxPadding returns the largest applied window padding.
func (r *IterativeResult) MaxPadding() float64 {
	var worst float64
	for _, p := range r.Padding {
		worst = math.Max(worst, p)
	}
	return worst
}
