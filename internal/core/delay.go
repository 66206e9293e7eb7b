package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/bind"
	"repro/internal/interval"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/units"
)

// Crosstalk does not only create glitches on quiet nets — it also changes
// the delay of *switching* nets. An aggressor switching in the opposite
// direction while the victim transitions fights the victim's edge through
// the coupling capacitance (the Miller effect) and pushes the victim's
// delay out. The same window machinery applies: an aggressor can only
// disturb the victim's transition if its noise window overlaps the
// victim's own switching window, so the worst-case delay change is again a
// windowed maximum-overlap query instead of an all-aggressors sum.
//
// The push-out model is first order: the opposing glitch sum Vn stretches
// the victim's transition by
//
//	Δd = slew_victim · Vn / Vdd
//
// which is the standard linearized bump-on-ramp estimate used for
// screening (a signoff tool would re-simulate the worst cluster; the
// golden path for that here is ckt).

// DelayImpact is the crosstalk delay change estimated for one victim
// transition direction.
type DelayImpact struct {
	Net string
	// ID is Net's ID in the analyzed design: what the noise↔delay loop
	// grows padding by.
	ID netlist.NetID
	// Rise marks the victim transition direction analyzed.
	Rise bool
	// VictimWindow is the victim's own switching-window set for this
	// edge.
	VictimWindow interval.Set
	// NoisePeak is the worst opposing glitch sum overlapping the victim
	// transition, volts.
	NoisePeak float64
	// Delta is the estimated delay push-out, seconds.
	Delta float64
	// At is an instant achieving the worst overlap (NaN when none).
	At float64
	// Members lists the aggressors that align against this edge.
	Members []string
}

// DelayResult is the design-wide crosstalk delay analysis.
type DelayResult struct {
	Mode Mode
	// Impacts holds per-net, per-direction impacts (only for nets that
	// actually switch and see opposing noise).
	Impacts []DelayImpact
	// Diags lists victims degraded during preparation or delay
	// evaluation (fail-soft runs only), sorted by net name. A degraded
	// victim's fallback events are full-rail and always-on, so its
	// impacts are maximally conservative.
	Diags []Diag
}

// WorstDelta returns the largest estimated push-out.
func (r *DelayResult) WorstDelta() float64 {
	var worst float64
	for _, im := range r.Impacts {
		if im.Delta > worst {
			worst = im.Delta
		}
	}
	return worst
}

// ImpactOn returns the impact for one net and direction, or nil.
func (r *DelayResult) ImpactOn(net string, rise bool) *DelayImpact {
	for i := range r.Impacts {
		if r.Impacts[i].Net == net && r.Impacts[i].Rise == rise {
			return &r.Impacts[i]
		}
	}
	return nil
}

// AnalyzeDelayCtx estimates crosstalk-induced delay changes for every
// switching net. Mode semantics mirror AnalyzeCtx: ModeAllAggressors lets
// every opposing aggressor attack every victim edge; the window modes
// require the aggressor's noise window to overlap the victim's switching
// window (peak semantics — the linearized bump-on-ramp model this uses is
// itself first order, so tent tails and logic correlation are not applied
// here). Only coupled (not propagated) noise disturbs delay — a glitch
// arriving through the victim's own driver is already part of its input
// arrival, not an independent disturbance. Cancellation is checked during
// preparation and between victims.
func AnalyzeDelayCtx(ctx context.Context, b *bind.Design, opts Options) (*DelayResult, error) {
	a, err := newAnalyzer(ctx, b, opts)
	if err != nil {
		return nil, err
	}
	if err := a.delayPass(ctx); err != nil {
		return nil, err
	}
	return a.assembleDelay(), nil
}

// delayPass evaluates (or re-evaluates) the delta-delay impacts of the
// delay-stale victims — the ones whose coupled events or own timing moved
// since their impacts were computed; on a fresh analyzer, every prepared
// victim — and stores them per net. Victims are independent here, so they
// are computed across Options.Workers goroutines on a big enough design;
// failures degrade serially, in victim order, as evalWave commits.
func (a *analyzer) delayPass(ctx context.Context) error {
	if a.impacts == nil {
		a.impacts = make([][]DelayImpact, len(a.order))
	}
	todo := a.delayStale.appendRange(a.todo[:0], 0, len(a.order))
	a.todo = todo
	errs := make([]error, len(todo))
	err := par.ForWorker(ctx, len(todo), a.opts.Workers, delayParallelBelow, func(w, i int) error {
		ni := todo[i]
		a.impacts[ni], errs[i] = a.safeDelayNet(ni, a.order[ni], a.impacts[ni][:0], &a.scratch[w])
		if a.opts.FailSoft {
			return nil
		}
		return errs[i]
	})
	if err != nil {
		return err // the bits stand: a retried pass redoes all of it
	}
	clear(a.delayStale)
	//snavet:ctxloop only a failed victim does anything here, and the pass itself is over
	for i, ni := range todo {
		if errs[i] != nil {
			a.degradeNet(ni, StageDelay, errs[i])
		}
	}
	return nil
}

// delayParallelBelow is the victim count under which the delay pass stays
// serial: a few hundred delay queries take less time than waking the workers.
const delayParallelBelow = 256

// assembleDelay flattens the per-net impacts into a sorted DelayResult with
// its own copy of the diagnostics (see finishNoise).
func (a *analyzer) assembleDelay() *DelayResult {
	res := &DelayResult{Mode: a.opts.Mode, Impacts: FlattenImpacts(a.impacts, nil)}
	SortDiags(a.diags)
	res.Diags = append([]Diag(nil), a.diags...)
	return res
}

// FlattenImpacts copies the per-net impact lists into one list sorted by
// delta (largest first), then net, then edge (rise first). name, when not
// nil, fills in each copy's net from the index of its list before the sort.
// The comparator is total — a net contributes at most one impact per edge —
// so the impacts of several shards flattened together come out in exactly
// the single-process order; the shard coordinator relies on that. The sort
// permutes int32 indexes and copies each record once, not at every swap.
//
//snavet:ctxloop a copy and an in-memory sort of impacts a delay pass already made, no analysis in it
func FlattenImpacts(lists [][]DelayImpact, name func(list int, im *DelayImpact)) []DelayImpact {
	n := 0
	for _, ims := range lists {
		n += len(ims)
	}
	if n == 0 {
		return nil
	}
	flat := make([]DelayImpact, 0, n)
	for l, ims := range lists {
		for _, im := range ims {
			if name != nil {
				name(l, &im)
			}
			flat = append(flat, im)
		}
	}
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(i, j int32) int { return compareImpacts(&flat[i], &flat[j]) })
	out := make([]DelayImpact, n)
	for k, i := range perm {
		out[k] = flat[i]
	}
	return out
}

// compareImpacts is the impact order FlattenImpacts sorts by.
func compareImpacts(a, b *DelayImpact) int {
	switch {
	case a.Delta != b.Delta:
		if a.Delta > b.Delta {
			return -1
		}
		return 1
	case a.Net != b.Net:
		return strings.Compare(a.Net, b.Net)
	case a.Rise && !b.Rise:
		return -1
	case b.Rise && !a.Rise:
		return 1
	}
	return 0
}

// safeDelayNet evaluates one victim's delta-delay impacts with panics
// converted into errors for fail-soft isolation. It appends into ims
// (typically the net's previous slice, truncated) and returns it; on a
// panic the impacts appended so far survive, matching the historical
// partial-append behaviour.
func (a *analyzer) safeDelayNet(ni int, net netlist.NetID, ims []DelayImpact, sc *scratch) (out []DelayImpact, err error) {
	out = ims
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: panic in delay analysis of net %s: %v", a.b.Net.NetName(net), r)
		}
	}()
	if !a.prepared.has(ni) {
		return out, nil
	}
	events := &a.coupled[ni]
	vt := a.staRes.TimingOf(net)
	for _, rise := range [2]bool{true, false} {
		vw := vt.Window(rise)
		if vw.IsEmpty() {
			continue
		}
		// A rising victim is opposed by falling aggressors, whose
		// glitches are the KindHigh events, and vice versa.
		opposing := events[KindHigh]
		if !rise {
			opposing = events[KindLow]
		}
		if len(opposing) == 0 {
			continue
		}
		sc.items, sc.idx = sc.items[:0], sc.idx[:0]
		for i, e := range opposing {
			if e.Peak <= 0 {
				continue
			}
			if a.opts.Mode == ModeAllAggressors {
				sc.items = append(sc.items, interval.Weighted{W: e.Window, Weight: e.Peak})
				sc.idx = append(sc.idx, i)
				continue
			}
			// Clip the glitch window against every phase of the
			// victim's switching set; disjoint pieces cannot both
			// contain an alignment instant, so the aggressor is
			// never double-counted.
			pieces := vw.IntersectWindow(e.Window)
			for pi := 0; pi < pieces.Len(); pi++ {
				sc.items = append(sc.items, interval.Weighted{W: pieces.At(pi), Weight: e.Peak})
				sc.idx = append(sc.idx, i)
			}
		}
		if len(sc.items) == 0 {
			continue
		}
		comb := sc.scan.MaxOverlapSum(sc.items)
		if comb.Sum <= 0 || math.IsNaN(comb.At) {
			continue
		}
		slew := vt.Slew(rise)
		s := defaultAggSlew
		if slew.Min <= slew.Max {
			s = slew.Max
		}
		noisePeak := math.Min(comb.Sum, a.vdd)
		im := DelayImpact{
			Net:          a.b.Net.NetName(net),
			ID:           net,
			Rise:         rise,
			VictimWindow: vw,
			NoisePeak:    noisePeak,
			Delta:        s * noisePeak / a.vdd,
			At:           comb.At,
		}
		im.Members = make([]string, len(comb.Members))
		for mi, ci := range comb.Members {
			im.Members[mi] = opposing[sc.idx[ci]].Source
		}
		slices.Sort(im.Members)
		if out == nil {
			out = make([]DelayImpact, 0, 2) // one per edge
		}
		out = append(out, im)
	}
	return out, nil
}

// delayTol is the comparison tolerance used by delta-delay tests.
const delayTol = units.Pico / 100
