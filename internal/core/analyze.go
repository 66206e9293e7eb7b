package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/bind"
	"repro/internal/interval"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/noise"
	"repro/internal/par"
	"repro/internal/sta"
	"repro/internal/units"
)

// Options tunes an analysis run.
type Options struct {
	// Mode selects the combination policy. The zero value is the paper's,
	// ModeNoiseWindows; ParseMode reads a mode from its name.
	Mode Mode
	// FilterThreshold filters couplings with C_x/C_v below it out of the
	// windowed combination; the filtered capacitance is lumped into one
	// virtual always-on aggressor, never dropped. Zero keeps every
	// aggressor.
	FilterThreshold float64
	// NoPropagation disables noise propagation through gates (coupled
	// noise only).
	NoPropagation bool
	// Workers sets the number of goroutines used for the timing pass's
	// levels (sta.RunCtx), the per-victim context and coupled-event
	// construction, the propagation fixpoint's level wavefronts and the
	// delay pass's victims (the dominant costs on big designs). 0 or 1
	// runs serially; results are identical either way — the instances of
	// a timing level read only earlier levels, victims are independent
	// during preparation and in the delay pass, and within one level
	// wavefront no net's events depend on another's combination.
	Workers int
	// HullWindows collapses set-valued (multi-phase) switching windows to
	// their single-window hull before deriving noise windows — the
	// approximation a tool without set support is forced into. Kept as
	// an ablation knob (experiment A2).
	HullWindows bool
	// LogicCorrelation enables mutual-exclusion filtering: aggressors
	// whose transitions are logically contradictory (both depending on
	// the same single primary input with opposite polarity, e.g. a
	// signal and its complement) are never combined. The combination
	// becomes a constrained maximum-overlap query.
	LogicCorrelation bool
	// Occupancy selects the combination semantics: OccupancyTent
	// (default, sound against partial waveform overlap), OccupancyPeak
	// (classical peak-window alignment), or OccupancyWiden (coarse
	// conservative plateau). Experiment A1 quantifies the three; T11
	// demonstrates why tent is the default.
	Occupancy Occupancy
	// FailSoft keeps the run alive when a single victim cannot be
	// analyzed: the failure is recorded as a Diag and the victim gets the
	// conservative full-rail fallback (combined noise pinned at Vdd over
	// an infinite window) instead of aborting the whole analysis. Off by
	// default: the historical fail-fast behaviour returns the first error.
	FailSoft bool
	// PrepareHook, when non-nil, runs at the start of every victim's
	// preparation. It exists for runtime fault injection in robustness
	// tests (see chaos.RuntimeFaults): a hook may return an error,
	// panic, or block to simulate a malformed or pathological victim. Not
	// consulted on any other path.
	PrepareHook func(net string) error
	// STA configures the underlying timing run.
	STA sta.Options
}

// maxPasses bounds the propagation fixpoint's passes per round, and
// defaultAggSlew is the aggressor edge rate assumed when timing gives none.
const (
	maxPasses      = 16
	defaultAggSlew = 20 * units.Pico
)

// Wave is one level of the propagation schedule: the contiguous run
// [Lo, Hi) of the victim order, nets whose drivers share a levelization
// level. Every fanin of a wave's nets lives in a strictly earlier wave, so
// the nets of one wave never read each other's combinations and may be
// evaluated concurrently. The feedback wave (cyclic nets) is the exception —
// its nets can read each other within a pass, so it keeps the serial
// Gauss–Seidel order (and, sharded, must be owned by one shard).
type Wave struct {
	Lo, Hi int
	Serial bool
}

// prepCount remembers one victim's preparation statistics so re-preparing
// it in a later iterative round replaces its contribution instead of
// double-counting it.
type prepCount struct {
	pairs, filtered int
}

// bitset is a set of evaluation-order positions.
type bitset []uint64

func (s bitset) has(i int) bool { return s[i>>6]&(1<<(i&63)) != 0 }
func (s bitset) set(i int)      { s[i>>6] |= 1 << (i & 63) }
func (s bitset) clear(i int)    { s[i>>6] &^= 1 << (i & 63) }

// appendRange appends the set's positions within [lo, hi) to out, ascending.
func (s bitset) appendRange(out []int, lo, hi int) []int {
	for i := lo; i < hi; i++ {
		if s.has(i) {
			out = append(out, i)
		}
	}
	return out
}

// analyzer carries per-run state. The single-process engine (iterate.go) —
// what AnalyzeCtx, a Session and AnalyzeIterativeCtx all drive — keeps one
// analyzer across rounds, shared between the noise and delay passes: the
// timing result is updated in place, coupled events are re-prepared only
// for victims with a re-timed aggressor, and a net is re-evaluated only
// while it is stale — everything else's committed results carry over.
type analyzer struct {
	b      *bind.Design
	opts   Options
	vdd    float64
	staRes *sta.Result
	// order is the victim evaluation order (victimOrderOf); posByID maps a
	// net ID back to its position (-1: not analyzed); waves partitions
	// order into level wavefronts; sortedPos lists the positions in the
	// alphabetical net order the violation check walks.
	order     []netlist.NetID
	posByID   []int32
	waves     []Wave
	sortedPos []int32
	// Per-victim state lives in dense slices indexed by evaluation-order
	// position, not name-keyed maps: at millions of nets the per-entry
	// map overhead (hashing, bucket churn) dominated steady-state
	// allocations and lookups on the fixpoint hot path.
	ctxs []*noise.Context
	// coupled events are timing-dependent but iteration-invariant within
	// a round. prepared marks the victims that have them (shards prepare
	// only the nets they own).
	coupled    [][2][]Event
	prepared   bitset
	prepCounts []prepCount
	// stale marks the victims whose next evaluation can differ from their
	// last: an input of it — the coupled events, a fanin's committed
	// combination — has moved since. The fixpoint evaluates exactly these
	// (evalWave); everything else is a pure function of bit-identical
	// inputs and is skipped. delayStale is the same for the delay pass,
	// whose inputs are the coupled events and the victim's own timing.
	// Only prepared victims are ever marked, so on a shard the bits are
	// confined to the nets it owns.
	stale, delayStale bitset
	// propCount tracks the propagated events each net's latest evaluation
	// built; propTotal is their running sum, so Stats.Propagated reflects
	// the final pass without a per-pass recount even when an incremental
	// round skips clean nets.
	propCount []int
	propTotal int
	// impacts holds the latest delta-delay impacts per net (0–2 entries),
	// by order position (nil until the first delay pass); assembleDelay
	// flattens and sorts them into a DelayResult.
	impacts [][]DelayImpact
	// corr is each net's primary-input dependence for logic correlation,
	// by net ID, and aggs the aggressor of each coupled event (-1: none),
	// parallel to coupled; both nil when the option is off.
	corr  []source
	aggs  [][2][]netlist.NetID
	stats Stats
	// degraded marks nets substituted with the full-rail fallback; diags
	// records why. Both are written serially (commit or fixpoint loop).
	degraded []bool
	diags    []Diag
	// Reusable buffers: one scratch per worker (the serial paths are
	// worker 0) for prepare, evaluate and delay, and the work/result arrays
	// of a parallel wave (todo also serves the re-prepare and delay passes).
	scratch  []scratch
	todo     []int
	results  []netEval
	evalErrs []error
	// receivers lists what the violation sweep needs of each victim's
	// checked receivers, receivers[rcvOff[pos]:rcvOff[pos+1]]; the first
	// sweep builds it.
	receivers []receiver
	rcvOff    []int32
	// propSrc is each net's propagated-event source string, by net ID.
	propSrc []string
	// The aggressor index, built on the first padding update: the prepared
	// victims coupled to net id are aggVictims[aggOff[id]:aggOff[id+1]],
	// as positions.
	aggOff, aggVictims []int32
}

// newAnalyzer runs the shared setup — timing, victim ordering, context and
// coupled-event construction — used by the single-process engine's first
// round and by AnalyzeDelayCtx.
func newAnalyzer(ctx context.Context, b *bind.Design, opts Options) (*analyzer, error) {
	staRes, err := sta.RunCtx(ctx, b, opts.STA, opts.Workers)
	if err != nil {
		return nil, err
	}
	a := newAnalyzerBase(b, opts, victimOrderOf(b), staRes)
	all := make([]int, len(a.order))
	for i := range all {
		all[i] = i
	}
	if err := a.prepareAll(ctx, all); err != nil {
		return nil, err
	}
	return a, nil
}

// newAnalyzerBase builds everything up to (but not including) victim
// preparation over the victim order (victimOrderOf) and its timing: the
// order's indexes and the wave schedule. The sharded engine uses it directly
// so each shard prepares only the victims it owns, over a shared timing.
func newAnalyzerBase(b *bind.Design, opts Options, order []netlist.NetID, staRes *sta.Result) *analyzer {
	a := &analyzer{b: b, opts: opts, vdd: b.Lib.Vdd, staRes: staRes}
	a.order = order
	a.indexOrder()
	n := len(a.order)
	if opts.LogicCorrelation {
		a.corr, a.aggs = buildCorrelations(b), make([][2][]netlist.NetID, n)
	}
	a.stale, a.delayStale, a.prepared = make(bitset, (n+63)/64), make(bitset, (n+63)/64), make(bitset, (n+63)/64)
	a.scratch = make([]scratch, max(opts.Workers, 1))
	a.ctxs = make([]*noise.Context, n)
	a.coupled = make([][2][]Event, n)
	a.prepCounts = make([]prepCount, n)
	a.propCount = make([]int, n)
	a.degraded = make([]bool, n)
	a.waves = wavesOf(b.Net, a.order)
	return a
}

// indexOrder builds the tables that lead back from a net to its place in
// the victim order, and the per-net strings the hot loops would otherwise
// concatenate on every evaluation.
func (a *analyzer) indexOrder() {
	a.posByID, a.sortedPos = orderIndex(a.b.Net, a.order)
	a.propSrc = make([]string, len(a.posByID))
	for _, net := range a.order {
		a.propSrc[net] = "prop:" + a.b.Net.NetName(net)
	}
}

// orderIndex returns, for a victim order over design d, each net ID's
// position (-1: not analyzed) and the positions in alphabetical net order.
func orderIndex(d *netlist.Design, order []netlist.NetID) (posByID, sortedPos []int32) {
	posByID, sortedPos = make([]int32, d.NumNets()), make([]int32, 0, len(order))
	for id := range posByID {
		posByID[id] = -1
	}
	for i, net := range order {
		posByID[net] = int32(i)
	}
	for _, net := range d.Nets() {
		if p := posByID[net]; p >= 0 {
			sortedPos = append(sortedPos, p)
		}
	}
	return posByID, sortedPos
}

// wavesOf groups a level-sorted victim order into contiguous same-level
// runs. Feedback nets (netLevel 1<<30) form a serial wave, the last.
func wavesOf(d *netlist.Design, order []netlist.NetID) (waves []Wave) {
	lev := d.Levelize()
	for lo := 0; lo < len(order); {
		lvl := netLevel(d, lev, order[lo])
		hi := lo + 1
		for hi < len(order) && netLevel(d, lev, order[hi]) == lvl {
			hi++
		}
		waves = append(waves, Wave{Lo: lo, Hi: hi, Serial: lvl == feedbackLevel})
		lo = hi
	}
	return waves
}

// newResult allocates the Result shell the fixpoint fills in.
func (a *analyzer) newResult() *Result {
	res := &Result{
		Mode:   a.opts.Mode,
		Nets:   make(map[string]*NetNoise, len(a.order)),
		STA:    a.staRes,
		slab:   make([]NetNoise, len(a.order)),
		byName: a.sortedPos,
		id:     resultIDs.Add(1),
		ver:    make([]uint64, len(a.order)),
	}
	for pos, net := range a.order {
		name := a.b.Net.NetName(net)
		res.slab[pos].Net = name
		res.Nets[name] = &res.slab[pos]
	}
	return res
}

// finishNoise finalizes a Result after a fixpoint's passes: statistics, the
// violation sweep, and the sorted diagnostics. The result gets its own copy
// of the diagnostics (into its own reused backing array, like Violations):
// the analyzer outlives this call when noise and delay share it, and a
// later delay-stage degradation appends to and re-sorts a.diags.
func (a *analyzer) finishNoise(res *Result, passes int, converged bool) {
	a.stats.Iterations, a.stats.Converged = passes, converged
	a.stats.Propagated = a.propTotal
	a.stats.Victims = len(a.order)
	a.stats.DegradedNets = len(a.diags)
	res.Stats = a.stats
	a.checkViolations(res)
	SortDiags(a.diags)
	res.Diags = append(res.Diags[:0], a.diags...)
}

// scratch is one worker's buffers for the three per-victim phases. Nothing
// in it survives the victim it was filled for.
type scratch struct {
	cb combiner
	// events stages a victim's coupled events (prepare) or its propagated
	// ones (evaluate) until their count is known.
	events [2][]Event
	// The delay pass's query: weighted window pieces, the opposing event
	// each belongs to, and the scan line's buffers.
	items []interval.Weighted
	idx   []int
	scan  interval.Scan
}

// safePrepare prepares one victim — a first preparation builds its noise
// context, a later one (an iterative round) only rebuilds the coupled events
// from the cached context — with panics converted into errors, so one
// malformed victim (a corrupt RC tree, an unphysical parameter, an injected
// fault) surfaces as a per-net failure instead of crashing the whole engine.
// A degraded victim yields the zero preparedNet: its full-rail fallback
// stands.
func (a *analyzer) safePrepare(pos int, sc *scratch) (p preparedNet, err error) {
	net := a.order[pos]
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: panic preparing net %s: %v", a.b.Net.NetName(net), r)
		}
	}()
	if h := a.opts.PrepareHook; h != nil {
		if err := h(a.b.Net.NetName(net)); err != nil {
			return p, err
		}
	}
	if a.degraded[pos] {
		return p, nil
	}
	nctx := a.ctxs[pos]
	if nctx == nil {
		if nctx, err = noise.BuildContext(a.b, net); err != nil {
			return p, err
		}
	}
	return a.prepareEvents(pos, nctx, sc)
}

// prepareAll prepares the victims at the given positions (ascending),
// optionally across Options.Workers goroutines. Victims are independent
// here, so the parallel and serial paths produce identical results.
// Cancellation is checked between victims; under fail-soft a per-net failure
// degrades that net, under fail-fast it stops the remaining workers promptly
// so an early error on a huge design does not keep preparing doomed work.
func (a *analyzer) prepareAll(ctx context.Context, todo []int) error {
	preps, errs := make([]preparedNet, len(todo)), make([]error, len(todo))
	// Fail-soft keeps the other victims coming; fail-fast returns the error
	// and par stops handing out work. Every victim before the lowest failure
	// has been prepared either way.
	err := par.ForWorker(ctx, len(todo), a.opts.Workers, 2, func(w, i int) error {
		if err := ctx.Err(); err != nil { // per victim, not per chunk: one victim can be slow
			return err
		}
		preps[i], errs[i] = a.safePrepare(todo[i], &a.scratch[w])
		if a.opts.FailSoft {
			return nil
		}
		return errs[i]
	})
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	// Commit serially in victim order so stats and diagnostics are
	// deterministic regardless of worker scheduling; a fail-fast error comes
	// back out of its own victim's commit, after the commits before it.
	for i, pos := range todo {
		if i&0x3f == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if cerr := a.commitPrepared(pos, &preps[i], errs[i]); cerr != nil {
			return cerr
		}
	}
	return err
}

// degradedWidth is the glitch width assumed for the full-rail fallback: a
// wide glitch, because immunity allowances only shrink with width, so the
// substituted bound stays conservative for any receiver.
const degradedWidth = 1 * units.Nano

// fullRailEvent is the conservative fallback glitch for a victim the
// engine could not analyze: the full supply rail, achievable at any time.
func (a *analyzer) fullRailEvent() Event {
	return Event{Peak: a.vdd, Width: degradedWidth, Window: interval.Infinite(), Source: "degraded"}
}

// fullRailComb is the combined form of the fallback, used when a net
// degrades after preparation (evaluate stage).
func (a *analyzer) fullRailComb() Combined {
	e := a.fullRailEvent()
	return Combined{
		Peak:         e.Peak,
		Width:        e.Width,
		Window:       e.Window,
		At:           0,
		Members:      []string{e.Source},
		MemberEvents: []Event{e},
	}
}

// degradeNet substitutes the conservative fallback for one victim and
// records the diagnostic. The net's receivers are not individually
// checked (its noise context may not exist); the Diag plus the full-rail
// bound mark the whole net as failing, which downstream propagation and
// the exit-code policy treat conservatively.
func (a *analyzer) degradeNet(pos int, stage string, err error) {
	if a.degraded[pos] {
		return
	}
	a.degraded[pos] = true
	a.diags = append(a.diags, Diag{Net: a.b.Net.NetName(a.order[pos]), Stage: stage, Err: err, Degraded: true})
	e := a.fullRailEvent()
	a.ctxs[pos] = nil
	a.setCoupled(pos, [2][]Event{{e}, {e}})
}

// noteStrangers records, once per victim, the aggressors of a freshly built
// context that the netlist does not have. The victim is analyzed, not
// degraded: those aggressors are assumed to switch at any time.
func (a *analyzer) noteStrangers(pos int, nctx *noise.Context) {
	var names []string
	for i := range nctx.Couplings {
		if nctx.Couplings[i].Agg < 0 {
			names = append(names, nctx.Couplings[i].Aggressor)
		}
	}
	if len(names) > 0 {
		a.diags = append(a.diags, Diag{Net: a.b.Net.NetName(a.order[pos]), Stage: StagePrepare,
			Err: fmt.Errorf("core: aggressor %s is not in the netlist: assumed to switch at any time", strings.Join(names, ", "))})
	}
}

// setCoupled installs a victim's coupled events; both passes must look at
// the victim again.
func (a *analyzer) setCoupled(pos int, events [2][]Event) {
	a.coupled[pos] = events
	a.prepared.set(pos)
	a.stale.set(pos)
	a.delayStale.set(pos)
}

// preparedNet is the output of the per-victim preparation stage; the zero
// value is a victim that was skipped (degraded).
type preparedNet struct {
	ctx *noise.Context
	// events are the victim's coupled events in storage of their own: the
	// slices it already had when moved is false.
	events [2][]Event
	moved  bool
	counts prepCount
}

// commitPrepared stores one victim's preparation into the analyzer state
// (serially, so shared slices and stats need no locks): a failure degrades
// the victim or, fail-fast, is returned; a skipped victim commits nothing.
// Re-committing a victim in a later iterative round replaces its statistics
// contribution, and leaves it clean when the rebuilt events are the ones it
// already had.
func (a *analyzer) commitPrepared(pos int, p *preparedNet, err error) error {
	if err != nil {
		if !a.opts.FailSoft {
			return err
		}
		a.degradeNet(pos, StagePrepare, err)
		return nil
	}
	if p.ctx == nil {
		return nil
	}
	if a.ctxs[pos] == nil {
		a.noteStrangers(pos, p.ctx)
	}
	a.ctxs[pos] = p.ctx
	if p.moved {
		a.setCoupled(pos, p.events)
	}
	old := a.prepCounts[pos]
	a.stats.AggressorPairs += p.counts.pairs - old.pairs
	a.stats.Filtered += p.counts.filtered - old.filtered
	a.prepCounts[pos] = p.counts
	return nil
}

// setPropCount records the propagated-event count of one net's latest
// evaluation, keeping the running total in sync.
func (a *analyzer) setPropCount(pos, n int) {
	a.propTotal += n - a.propCount[pos]
	a.propCount[pos] = n
}

// AnalyzeCtx runs static noise analysis over the whole design, with
// cooperative cancellation: the context is checked during victim preparation and between propagation passes, and
// its error is returned as soon as it fires. A cancelled run returns no
// partial result — partial results come from fail-soft degradation
// (Options.FailSoft), not from cancellation. It is the first round of the
// engine a Session and the iterative loop drive, without the delay pass.
func AnalyzeCtx(ctx context.Context, b *bind.Design, opts Options) (*Result, error) {
	eng := &engine{b: b, opts: opts}
	waves, err := eng.BeginRound(ctx, nil)
	if err != nil {
		return nil, err
	}
	passes, converged, err := runPasses(ctx, opts, waves, eng.EvalWave)
	if err != nil {
		return nil, err
	}
	eng.a.finishNoise(eng.res, passes, converged)
	return eng.res, nil
}

// runPasses is the pass loop of the propagation fixpoint, the only copy:
// each pass visits every wave in order, a pass that commits no change
// beyond tolerance converges, without propagation one pass is exact, and
// maxPasses bounds the count. evalWave is the engine's side — the
// analyzer's wavefront (evalWave below), or a coordinator's dispatch to the
// shards with stale nets in that wave. The engines evaluate only what is
// stale, so the confirming pass of an acyclic design still counts as a
// pass but evaluates nothing.
func runPasses(ctx context.Context, opts Options, waves int, evalWave func(context.Context, int) (bool, error)) (passes int, converged bool, err error) {
	for passes < maxPasses && !converged {
		if err := ctx.Err(); err != nil {
			return passes, false, err
		}
		passes++
		changed := false
		for wi := 0; wi < waves; wi++ {
			wc, err := evalWave(ctx, wi)
			if err != nil {
				return passes, false, err
			}
			changed = changed || wc
		}
		converged = !changed || opts.NoPropagation
	}
	return passes, converged, nil
}

// evalWave evaluates the stale nets of one level wavefront. The serial path
// is the reference; the parallel path computes the same per-net evaluations
// concurrently (safe because a wave's nets only read strictly earlier
// waves) and then commits them serially in victim order, so results,
// statistics, diagnostics, and fail-fast error selection are identical to
// the serial engine. Skipping a clean net is exact, not approximate: its
// evaluation is a pure function of inputs that are bit-identical to the ones
// its committed state was computed from.
//
// The returned flag is the convergence test — did any commit move beyond
// tolerance — and stays true for commits made before an error. moved, when
// non-nil, additionally collects every commit whose Peak, Width or Window
// differs at all from what it replaced: that, not the tolerance test, is
// what a reader of the combination elsewhere (another shard) must be sent.
func (a *analyzer) evalWave(ctx context.Context, res *Result, w Wave, moved *[]WaveUpdate) (bool, error) {
	changed := false
	if w.Serial || a.opts.Workers <= 1 {
		// The bit is tested as the walk reaches each net, not up front: in
		// the feedback wave a commit can make a later net of the same wave
		// stale, and Gauss–Seidel evaluates it in this pass.
		for oi := w.Lo; oi < w.Hi; oi++ {
			if (oi-w.Lo)&0x3f == 0 {
				if err := ctx.Err(); err != nil {
					return changed, err
				}
			}
			if !a.stale.has(oi) {
				continue
			}
			ev, err := a.evalNet(oi, res, &a.scratch[0])
			c, cerr := a.commitEval(oi, res, ev, err, moved)
			if cerr != nil {
				return changed, cerr
			}
			changed = changed || c
		}
		return changed, nil
	}

	todo := a.stale.appendRange(a.todo[:0], w.Lo, w.Hi)
	a.todo = todo
	if cap(a.results) < len(todo) {
		a.results = make([]netEval, len(todo))
		a.evalErrs = make([]error, len(todo))
	}
	results, errs := a.results[:len(todo)], a.evalErrs[:len(todo)]
	clear(results)
	clear(errs)
	// Fail-soft keeps the other nets coming; fail-fast hands the error to
	// par, which stops giving out work. Either way every net before the
	// lowest failure has been evaluated, and the commit of that one is
	// where the loop below ends.
	err := par.ForWorker(ctx, len(todo), a.opts.Workers, 2, func(wk, i int) error {
		oi := todo[i]
		results[i], errs[i] = a.evalNet(oi, res, &a.scratch[wk])
		if a.opts.FailSoft {
			return nil
		}
		return errs[i]
	})
	if cerr := ctx.Err(); cerr != nil {
		return false, cerr
	}
	for i, oi := range todo {
		if i&0x3f == 0 {
			if err := ctx.Err(); err != nil {
				return changed, err
			}
		}
		c, cerr := a.commitEval(oi, res, results[i], errs[i], moved)
		if cerr != nil {
			return changed, cerr
		}
		changed = changed || c
	}
	return changed, err
}

// netEval is one victim's freshly computed pass state, produced by evalNet
// (possibly concurrently) and applied serially by commitEval.
type netEval struct {
	comb       [2]Combined
	propagated int
	// changed is the convergence test (peak and width within tolerance);
	// moved is the exact one (peak, width or window differs at all). A
	// fanin whose window widens while its peak holds is moved but not
	// changed, and every reader of it still needs the new window.
	changed, moved bool
	// pin marks a degraded net that has not yet received its fallback
	// combination; skip marks one that has (inert).
	pin, skip bool
}

// evalNet recomputes one net's event list and windowed combination for
// the current pass, converting panics into errors so fail-soft runs can
// degrade the victim instead of crashing. It mutates only the net's own
// record and version (owned by its worker during a parallel wave) and
// reads other nets' committed combinations from strictly earlier waves;
// all shared analyzer state it touches is immutable during a wave. The
// record's version is 0 from here until commitEval stamps it.
func (a *analyzer) evalNet(oi int, res *Result, sc *scratch) (ev netEval, err error) {
	net, nn := a.order[oi], &res.slab[oi]
	res.ver[oi] = 0
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: panic evaluating net %s: %v", a.b.Net.NetName(net), r)
		}
	}()
	if a.degraded[oi] {
		// Pin the fallback once (a prepare-stage degradation reaches the
		// fixpoint loop before any combination was stored); afterwards the
		// net is inert.
		if nn.Comb[KindLow].Peak != a.vdd {
			ev.pin = true
		} else {
			ev.skip = true
		}
		return ev, nil
	}
	ev.propagated = a.buildEvents(oi, net, nn, res, sc)
	for _, k := range Kinds {
		ev.comb[k] = sc.cb.combineConstrained(nn.Events[k], a.vdd, a.conflictFunc(oi, k), a.occupancy(), &nn.Comb[k])
	}
	ev.changed = !combEqual(ev.comb[KindLow], nn.Comb[KindLow], 1e-7) ||
		!combEqual(ev.comb[KindHigh], nn.Comb[KindHigh], 1e-7)
	ev.moved = combMoved(ev.comb[KindLow], nn.Comb[KindLow]) ||
		combMoved(ev.comb[KindHigh], nn.Comb[KindHigh])
	return ev, nil
}

// combMoved reports whether anything a downstream net reads from a
// combination — peak, width, window — differs, exactly.
func combMoved(a, b Combined) bool {
	return a.Peak != b.Peak || a.Width != b.Width || a.Window != b.Window
}

// commitEval applies one computed evaluation to the shared state. It runs
// serially in victim order, which keeps stats, degradation bookkeeping,
// and fail-fast error selection deterministic. It ticks the result's
// clock, once per evaluation, and stamps the record's version with it
// unless the evaluation failed the run. It reports the convergence test; a
// commit that differs exactly makes the net's readers stale and is
// appended to moved (when collecting).
func (a *analyzer) commitEval(oi int, res *Result, ev netEval, evalErr error, moved *[]WaveUpdate) (bool, error) {
	net, nn := a.order[oi], &res.slab[oi]
	res.tick++
	if evalErr != nil {
		if !a.opts.FailSoft {
			return false, evalErr
		}
		// Pin the net at the fallback; its events are replaced so later
		// passes (and delay analysis) see the same bound.
		a.degradeNet(oi, StageEvaluate, evalErr)
		ev = netEval{pin: true}
	}
	// Cleared before the readers are marked: a feedback net that reads
	// itself must come out stale.
	a.stale.clear(oi)
	res.ver[oi] = res.tick
	if ev.skip {
		return false, nil
	}
	if ev.pin {
		fallback := a.fullRailComb()
		nn.Events = a.coupled[oi]
		nn.Comb = [2]Combined{fallback, fallback}
		a.setPropCount(oi, 0)
		ev.changed, ev.moved = true, true
	} else {
		nn.Comb = ev.comb
		a.setPropCount(oi, ev.propagated)
	}
	if ev.moved {
		a.markReaders(net)
		if moved != nil {
			u := WaveUpdate{Pos: int32(oi), Comb: nn.Comb}
			for k := range u.Comb {
				u.Comb[k].Members, u.Comb[k].MemberEvents = nil, nil
			}
			*moved = append(*moved, u)
		}
	}
	return ev.changed, nil
}

// markReaders makes stale every prepared victim whose propagated events read
// net's combination: the nets driven by the instances net feeds. (All of an
// instance's inputs count, with or without a noise-transfer arc — an extra
// evaluation is exact, a missed one is not.)
func (a *analyzer) markReaders(net netlist.NetID) {
	if a.opts.NoPropagation {
		return
	}
	d := a.b.Net
	for _, lc := range d.Loads(net) {
		if inst := d.Conn(lc).Inst; inst >= 0 {
			for _, oc := range d.Outputs(inst) {
				if p := a.posByID[d.Conn(oc).Net]; p >= 0 && a.prepared.has(int(p)) {
					a.stale.set(int(p))
				}
			}
		}
	}
}

// occupancy resolves the effective combination policy: the baselines keep
// the classical peak semantics (that is what they are baselines of); only
// the paper's noise-window mode uses the configured occupancy.
func (a *analyzer) occupancy() Occupancy {
	if a.opts.Mode != ModeNoiseWindows {
		return OccupancyPeak
	}
	return a.opts.Occupancy
}

// feedbackLevel is the pseudo-level of nets driven by feedback instances:
// they sort (and wave) after every levelized net.
const feedbackLevel = 1 << 30

// netLevel is the propagation level of a net: its driving instance's
// levelization level, -1 for port-driven nets, feedbackLevel for cyclic
// ones. A net's fanin nets always have strictly smaller levels (ports
// have no fanin), which is what makes same-level wavefronts safe to
// evaluate concurrently.
func netLevel(d *netlist.Design, lev *netlist.Levelization, n netlist.NetID) int {
	drv := d.DriverInst(n)
	if drv < 0 {
		return -1
	}
	if l := lev.Level(drv); l >= 0 {
		return l
	}
	return feedbackLevel
}

// victimOrderOf returns the analyzable nets in propagation-friendly order:
// port-driven nets first, then by driving instance level (feedback last),
// by name within a level (the stable sort keeps Nets' order). The shard
// planner calls it too, so partitioning sees exactly the evaluation order
// and wave structure every engine (single-process or shard) will use.
func victimOrderOf(b *bind.Design) []netlist.NetID {
	d := b.Net
	lev := d.Levelize()
	nets := d.Nets()
	out := make([]netlist.NetID, 0, len(nets))
	for _, n := range nets {
		if d.Driver(n) < 0 {
			continue // unconnected; Validate would have flagged real designs
		}
		out = append(out, n)
	}
	slices.SortStableFunc(out, func(x, y netlist.NetID) int {
		return cmp.Compare(netLevel(d, lev, x), netLevel(d, lev, y))
	})
	return out
}

// prepareEvents derives the coupled (plus virtual) events for one victim
// from its noise context. The context is RC-derived and timing independent,
// so iterative rounds reuse it and only re-derive the events (which depend
// on the aggressors' switching windows). It only reads shared state and
// writes only the victim's own event storage, so prepareAll may run it
// concurrently for different victims.
func (a *analyzer) prepareEvents(pos int, ctx *noise.Context, sc *scratch) (preparedNet, error) {
	kept, dropped := ctx.Filter(a.opts.FilterThreshold)
	out := preparedNet{ctx: ctx, counts: prepCount{pairs: len(ctx.Couplings), filtered: len(ctx.Couplings) - len(kept)}}

	events := &sc.events
	events[KindLow], events[KindHigh] = events[KindLow][:0], events[KindHigh][:0]
	var aggs *[2][]netlist.NetID // the victim's own, under logic correlation
	if a.aggs != nil {
		aggs = &a.aggs[pos]
		aggs[KindLow], aggs[KindHigh] = aggs[KindLow][:0], aggs[KindHigh][:0]
	}
	for i := range kept {
		cpl := &kept[i]
		aggT := a.staRes.TimingOf(cpl.Agg)
		for _, k := range Kinds {
			rise := k == KindLow // rising aggressor endangers a low victim
			var winSet interval.Set
			slew := defaultAggSlew
			switch {
			case a.opts.Mode == ModeAllAggressors || cpl.Agg < 0:
				// A partner the netlist does not have has no switching
				// window to read: it may switch at any time.
				winSet = interval.InfiniteSet()
				if s := aggT.Slew(rise); s.Min <= s.Max {
					slew = s.Min
				}
			default: // timing- and noise-window modes use real windows
				winSet = aggT.Window(rise)
				if winSet.IsEmpty() {
					continue // this aggressor can never make that edge
				}
				if s := aggT.Slew(rise); s.Min <= s.Max {
					slew = s.Min
				}
			}
			if a.opts.HullWindows && !winSet.IsEmpty() {
				winSet = interval.NewSet(winSet.Hull())
			}
			p := ctx.ParamsFor(cpl, slew, a.vdd)
			if err := p.Validate(); err != nil {
				return out, fmt.Errorf("core: net %s aggressor %s: %w", a.b.Net.NetName(a.order[pos]), cpl.Aggressor, err)
			}
			peak, width := p.Peak(), p.Width()
			if peak <= 0 {
				continue
			}
			// One event per disjoint switching opportunity. The shift
			// and widening can make neighbouring fragments overlap, so
			// the shifted windows are re-normalized as a Set — its
			// members never overlap, so at any alignment instant at most
			// one event contributes and the aggressor is never
			// double-counted.
			noiseWins := a.eventWindows(winSet, cpl.AggWireDelay, slew)
			for wi := 0; wi < noiseWins.Len(); wi++ {
				events[k] = append(events[k], Event{
					Peak:   peak,
					Width:  width,
					Window: noiseWins.At(wi),
					Source: cpl.Aggressor,
				})
				if aggs != nil {
					aggs[k] = append(aggs[k], cpl.Agg)
				}
			}
		}
	}
	if dropped > 0 {
		p := noise.Params{
			HoldRes: ctx.HoldRes,
			CoupleC: dropped,
			VictimC: ctx.VictimC,
			AggSlew: defaultAggSlew,
			Vdd:     a.vdd,
		}
		if peak := p.Peak(); peak > 0 {
			for _, k := range Kinds {
				events[k] = append(events[k], Event{
					Peak:   peak,
					Width:  p.Width(),
					Window: interval.Infinite(),
					Source: "virtual",
				})
				if aggs != nil {
					aggs[k] = append(aggs[k], -1)
				}
			}
		}
	}
	old := a.coupled[pos]
	out.events = old
	if !a.prepared.has(pos) || !slices.Equal(old[KindLow], events[KindLow]) || !slices.Equal(old[KindHigh], events[KindHigh]) {
		out.events, out.moved = storeEvents(old, *events, [2][]Event{}), true
	}
	return out, nil
}

// storeEvents makes each of dst's two lists head's followed by tail's, in
// dst's own storage when both fit, else in one new exact-sized array (a
// list is at full capacity, so one kind cannot grow into the other's).
func storeEvents(dst, head, tail [2][]Event) [2][]Event {
	nLow, nHigh := len(head[KindLow])+len(tail[KindLow]), len(head[KindHigh])+len(tail[KindHigh])
	if cap(dst[KindLow]) < nLow || cap(dst[KindHigh]) < nHigh {
		buf := make([]Event, nLow+nHigh)
		dst[KindLow], dst[KindHigh] = buf[:0:nLow], buf[nLow:nLow]
	}
	for _, k := range Kinds {
		dst[k] = append(append(dst[k][:0], head[k]...), tail[k]...)
	}
	return dst
}

// eventWindows turns an aggressor's switching windows into its glitch's
// noise windows: the edge reaches the coupling site after the aggressor wire
// delay and the peak lands at the end of the edge (up to one slew later).
// Waveform extent around the peak is the combination policy's concern
// (Options.Occupancy), not the window's.
func (a *analyzer) eventWindows(aggWins interval.Set, wireDelay, slew float64) interval.Set {
	if aggWins.IsInfinite() {
		return aggWins
	}
	return aggWins.ShiftRange(wireDelay, wireDelay+slew)
}

// buildEvents assembles the full event list for a net in the current
// iteration into nn.Events, reusing its backing arrays: cached coupled
// events plus freshly derived propagated events. It returns the number of
// propagated events built.
func (a *analyzer) buildEvents(oi int, net netlist.NetID, nn *NetNoise, res *Result, sc *scratch) int {
	prop := &sc.events
	prop[KindLow], prop[KindHigh] = prop[KindLow][:0], prop[KindHigh][:0]
	propagated := 0
	if drv := a.b.Net.Driver(net); !a.opts.NoPropagation && drv >= 0 && a.b.Net.Conn(drv).Inst >= 0 {
		propagated = a.propagatedEvents(drv, a.b.NetworkOf(net).TotalCap(), res, prop)
	}
	nn.Events = storeEvents(nn.Events, a.coupled[oi], *prop)
	return propagated
}

// propagatedEvents appends to out the glitches that the committed
// combinations of the driving instance's input nets put on its output, and
// returns how many.
func (a *analyzer) propagatedEvents(drv netlist.ConnID, load float64, res *Result, out *[2][]Event) int {
	d, propagated := a.b.Net, 0
	inst := d.Conn(drv).Inst
	for _, arc := range a.b.Cell(inst).ArcsTo(d.Pin(drv)) {
		if arc.Transfer == nil {
			continue // cell blocks noise through this arc
		}
		ic := d.PinConn(inst, arc.From)
		if ic < 0 {
			continue
		}
		in := d.Conn(ic).Net
		ip := a.posByID[in]
		if ip < 0 {
			continue
		}
		inNoise := &res.slab[ip]
		for _, inKind := range Kinds {
			comb := &inNoise.Comb[inKind]
			if comb.Peak <= 0 {
				continue
			}
			outPeak := arc.Transfer.OutputPeak(comb.Peak, comb.Width)
			if outPeak <= 0 {
				continue
			}
			// Gate delay range for the glitch, using its width as the
			// effective input transition time.
			d1 := arc.DelayRise.Eval(comb.Width, load)
			d2 := arc.DelayFall.Eval(comb.Width, load)
			dMin, dMax := math.Min(d1, d2), math.Max(d1, d2)
			outWidth := comb.Width + (dMax - dMin)
			var win interval.Window
			if a.opts.Mode == ModeNoiseWindows {
				win = comb.Window.ShiftRange(dMin, dMax)
			} else {
				// Baselines carry no window information for
				// propagated noise: it may appear any time.
				win = interval.Infinite()
			}
			kinds, n := propagateKind(arc.Unate, inKind)
			for _, outKind := range kinds[:n] {
				propagated++
				out[outKind] = append(out[outKind], Event{
					Peak:   outPeak,
					Width:  outWidth,
					Window: win,
					Source: a.propSrc[in],
				})
			}
		}
	}
	return propagated
}

// propagateKind maps a glitch's victim-state kind through an arc's
// unateness: the kinds it appears as at the output, and how many. An upward
// glitch on a low input of an inverter (negative unate) appears as a
// downward glitch on its high output, and so on.
func propagateKind(u liberty.Unateness, in Kind) ([2]Kind, int) {
	other := KindHigh
	if in == KindHigh {
		other = KindLow
	}
	switch u {
	case liberty.PositiveUnate:
		return [2]Kind{in}, 1
	case liberty.NegativeUnate:
		return [2]Kind{other}, 1
	default:
		return [2]Kind{in, other}, 2
	}
}

// checkViolations evaluates every receiver's immunity curve against its
// net's combined noise and records failures sorted by slack; the slacks stay
// in gather order until a reader asks for them sorted (Result.tightest).
// Iterative rounds call it repeatedly; the result slices are reused.
func (a *analyzer) checkViolations(res *Result) {
	a.gatherChecks(res)
	SortViolations(res.Violations)
}

// receiver is what the violation sweep needs of one checked load pin of a
// victim: its name, built once, and its immunity curve.
type receiver struct {
	name  string
	curve *liberty.ImmunityCurve
}

// indexReceivers builds the receiver table on the first sweep: the load
// pins that have an immunity curve, victim by victim. Every victim that
// will ever have a noise context has it by then (preparation comes first; a
// later degradation only takes contexts away).
func (a *analyzer) indexReceivers() {
	a.rcvOff = make([]int32, len(a.order)+1)
	for pos, ctx := range a.ctxs {
		for i := 0; ctx != nil && i < len(ctx.Receivers); i++ {
			rcv := ctx.Receivers[i]
			var pin *liberty.Pin
			if inst := a.b.Net.Conn(rcv).Inst; inst >= 0 {
				pin = a.b.Cell(inst).Pin(a.b.Net.Pin(rcv))
			}
			if curve := a.b.Lib.Immunity(pin); curve != nil {
				a.receivers = append(a.receivers, receiver{name: a.b.Net.ConnName(rcv), curve: curve})
			}
		}
		a.rcvOff[pos+1] = int32(len(a.receivers))
	}
}

// gatherChecks runs the immunity sweep and appends violations and slacks in
// canonical order — alphabetical net, then the net's receiver order, then
// kind — and drops the slacks' sorted copy. The sort comparators are not
// total (ties on Slack and Net are possible across receivers and kinds), so
// the sorted orders depend on this exact pre-sort sequence; the shard
// collector returns it so the coordinator can rebuild the identical
// sequence, which the identical sorts then order identically.
func (a *analyzer) gatherChecks(res *Result) {
	if a.rcvOff == nil {
		a.indexReceivers()
	}
	slackMu.Lock()
	res.sorted = nil
	slackMu.Unlock()
	// Exactly one slack per receiver per noisy state of its victim.
	slacks := 0
	for oi, ctx := range a.ctxs {
		for _, k := range Kinds {
			if ctx != nil && res.slab[oi].Comb[k].Peak > 0 {
				slacks += int(a.rcvOff[oi+1] - a.rcvOff[oi])
			}
		}
	}
	res.Violations = res.Violations[:0]
	res.Slacks = slices.Grow(res.Slacks[:0], slacks)
	for _, oi := range a.sortedPos {
		if a.ctxs[oi] == nil {
			continue
		}
		netName := a.b.Net.NetName(a.order[oi])
		nn := &res.slab[oi]
		for _, rcv := range a.receivers[a.rcvOff[oi]:a.rcvOff[oi+1]] {
			for _, k := range Kinds {
				comb := &nn.Comb[k]
				if comb.Peak <= 0 {
					continue
				}
				limit := rcv.curve.MaxPeak(comb.Width)
				slack := limit - comb.Peak
				res.Slacks = append(res.Slacks, ReceiverSlack{
					Net:      netName,
					Receiver: rcv.name,
					Kind:     k,
					Peak:     comb.Peak,
					Limit:    limit,
					Slack:    slack,
				})
				if slack < 0 {
					res.Violations = append(res.Violations, Violation{
						Net:      netName,
						Receiver: rcv.name,
						Kind:     k,
						Peak:     comb.Peak,
						Width:    comb.Width,
						Limit:    limit,
						Slack:    slack,
						At:       comb.At,
						Members:  comb.Members,
					})
				}
			}
		}
	}
}

// bySlackThenNet is the violation and slack order: tightest first, then net.
// It is not total — see gatherChecks for what the rest of the order rests on.
func bySlackThenNet(slackA, slackB float64, netA, netB string) int {
	if slackA != slackB {
		if slackA < slackB {
			return -1
		}
		return 1
	}
	return strings.Compare(netA, netB)
}

// SortViolations orders violations by slack (tightest first), then net —
// the exact order checkViolations has always produced. Exported so the
// shard coordinator applies the identical sort to the identical canonical
// sequence, keeping distributed reports byte-identical to single-process
// ones.
func SortViolations(v []Violation) {
	slices.SortFunc(v, func(a, b Violation) int { return bySlackThenNet(a.Slack, b.Slack, a.Net, b.Net) })
}

// sortSlacks orders receiver slacks tightest first, then by net.
func sortSlacks(s []ReceiverSlack) {
	slices.SortFunc(s, func(a, b ReceiverSlack) int { return bySlackThenNet(a.Slack, b.Slack, a.Net, b.Net) })
}
