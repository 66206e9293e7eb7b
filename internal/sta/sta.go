// Package sta is a static timing analyzer specialized for what noise
// analysis needs: per-net switching windows. It propagates, for each net
// and each transition direction (rise/fall), the earliest and latest
// possible arrival time — an interval.Window — together with the range of
// possible transition slews, from the primary inputs through NLDM table
// delays and Elmore wire delays to every pin of the design.
//
// A net's switching window answers the question windowed noise analysis
// asks about every aggressor: *when can this net switch at all?* Without
// timing, that answer is "any time" (an infinite window), which is exactly
// the pessimistic classical assumption; sta replaces it with a bounded
// interval.
package sta

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/bind"
	"repro/internal/interval"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/units"
)

// maxWindowFragments bounds how many disjoint windows a single arrival
// annotation may carry; beyond it the closest fragments are merged
// (conservatively) by interval.Set.Simplify. Eight phases comfortably
// covers realistic multi-phase clocking without letting loop fixpoints
// fragment without bound.
const maxWindowFragments = 8

// Range is a [Min, Max] scalar pair (slews, delays).
type Range struct {
	Min, Max float64
}

// valid reports whether the range was ever updated.
func (r Range) valid() bool { return r.Min <= r.Max }

// emptyRange is the identity for union.
func emptyRange() Range {
	return Range{Min: math.Inf(1), Max: math.Inf(-1)}
}

func (r Range) union(o Range) Range {
	return Range{Min: math.Min(r.Min, o.Min), Max: math.Max(r.Max, o.Max)}
}

// Timing is the switching information at one point (net source or pin):
// arrival windows and slew ranges per transition direction. Windows are
// interval.Sets so a point may legitimately switch in several disjoint
// intervals (multi-phase clocks, gated activity) — the general form the
// noise-window method exploits.
type Timing struct {
	Rise, Fall         interval.Set
	SlewRise, SlewFall Range
}

// noTiming has empty windows and inverted slews: what every point without
// an annotation reads as. It is shared and never written.
var noTiming = Timing{SlewRise: emptyRange(), SlewFall: emptyRange()}

// Window returns the arrival window set for one direction.
func (t *Timing) Window(rise bool) interval.Set {
	if rise {
		return t.Rise
	}
	return t.Fall
}

// Slew returns the slew range for one direction.
func (t *Timing) Slew(rise bool) Range {
	if rise {
		return t.SlewRise
	}
	return t.SlewFall
}

// HasActivity reports whether any transition can occur here.
func (t *Timing) HasActivity() bool {
	return !t.Rise.IsEmpty() || !t.Fall.IsEmpty()
}

// equalWithin compares two timings to tolerance, for fixpoint detection.
func (t *Timing) equalWithin(o *Timing, tol float64) bool {
	wEq := func(a, b interval.Set) bool {
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			aw, bw := a.At(i), b.At(i)
			if math.Abs(aw.Lo-bw.Lo) > tol || math.Abs(aw.Hi-bw.Hi) > tol {
				return false
			}
		}
		return true
	}
	rEq := func(a, b Range) bool {
		if a.valid() != b.valid() {
			return false
		}
		if !a.valid() {
			return true
		}
		return math.Abs(a.Min-b.Min) <= tol && math.Abs(a.Max-b.Max) <= tol
	}
	return wEq(t.Rise, o.Rise) && wEq(t.Fall, o.Fall) &&
		rEq(t.SlewRise, o.SlewRise) && rEq(t.SlewFall, o.SlewFall)
}

// Options tunes an analysis run.
type Options struct {
	// InputTiming is the timing of the input ports by name. An input it
	// does not name switches exactly at t = 0 with defaultInputSlew.
	InputTiming map[string]*Timing
	// EarlyDerate and LateDerate scale every gate and wire delay at the
	// early (minimum) and late (maximum) edge respectively, the standard
	// OCV-style corner treatment: EarlyDerate ≤ 1 ≤ LateDerate widens
	// every switching window to cover on-chip variation. Zero means 1.0.
	EarlyDerate, LateDerate float64
	// ClockPeriod, when positive, enables the backward required-time pass:
	// every output port must settle by this time, and per-net timing
	// slacks become available through Result.TimingSlack.
	ClockPeriod float64
	// WindowPadding extends each net's arrival windows at the late edge by
	// the amount at its net ID (nil, or an ID past the end, pads nothing).
	// This is how crosstalk delta-delay feeds back into timing: a net whose
	// transition can be pushed out by Δ may arrive up to Δ later, which
	// widens every downstream switching window on the next analysis round.
	WindowPadding []float64
}

// defaultInputSlew is the transition time assumed at an input port without
// timing, and at a pin whose input carries no slew; maxLoopIter bounds the
// fixpoint over combinational loops before their nets get infinite windows.
const (
	defaultInputSlew = 20 * units.Pico
	maxLoopIter      = 32
)

func (o *Options) fill() {
	if o.EarlyDerate <= 0 {
		o.EarlyDerate = 1
	}
	if o.LateDerate <= 0 {
		o.LateDerate = 1
	}
}

// Result is the timing annotation of a design. The tables are dense value
// tables, indexed by the netlist's creation-order IDs: names are resolved
// once at the edge (Options.InputTiming), never inside the passes, and
// nothing in them points — an annotation is read in place, and
// a point never annotated reads as the shared noTiming.
type Result struct {
	design *bind.Design
	// nets is the annotation at each net's source (driver output), by net
	// ID; pins the one at each load pin, wire delay applied, by load index
	// — pinOf maps a connection ID to it, -1 for a connection that is not
	// a load. A slot counts only while its presence flag is set (a flag per
	// slot, not a bit: the instances of a level set them concurrently).
	nets, pins     []Timing
	hasNet, hasPin []bool
	pinOf          []int32
	early, late    float64 // delay derates
	workers        int     // RunCtx's fan-out, for UpdatePaddingCtx's fresh-run fallback
	// required times by net ID, +Inf where unconstrained (nil unless
	// ClockPeriod was set).
	required []float64
	// onEval, when set, sees every evalInst call (tests count them).
	onEval func(netlist.InstID)
}

// parallelBelow is the loop length under which a level (or the port list)
// is walked serially: a few hundred instances take less time than waking
// the workers.
const parallelBelow = 128

// TimingOf returns the switching information at net n's source, or an
// inactive Timing if the net never switches (e.g. untied inputs; -1 reads
// as one). The Timing is the result's own — read it, never write it; an
// incremental update rewrites it in place.
func (r *Result) TimingOf(n netlist.NetID) *Timing {
	if n >= 0 && r.hasNet[n] {
		return &r.nets[n]
	}
	return &noTiming
}

// TimingOfPin returns the switching information at a specific load pin,
// under TimingOf's contract.
func (r *Result) TimingOfPin(c netlist.ConnID) *Timing {
	if i := r.pinOf[c]; i >= 0 && r.hasPin[i] {
		return &r.pins[i]
	}
	return &noTiming
}

// Clone returns a copy of the annotation for an update to rewrite while r
// is read: the tables an update writes are copied, the rest is shared
// (pinOf is fixed by the design, and computeRequired replaces required
// rather than writing into it).
func (r *Result) Clone() *Result {
	c := *r
	c.nets, c.pins = slices.Clone(r.nets), slices.Clone(r.pins)
	c.hasNet, c.hasPin = slices.Clone(r.hasNet), slices.Clone(r.hasPin)
	return &c
}

// setNet stores a net's source annotation.
func (r *Result) setNet(n netlist.NetID, t Timing) {
	r.nets[n], r.hasNet[n] = t, true
}

// Run performs the analysis serially.
func Run(b *bind.Design, opts Options) (*Result, error) {
	return RunCtx(context.Background(), b, opts, 0)
}

// RunCtx is Run with cooperative cancellation and a fan-out. The context
// is checked while walking the ports and levels and between loop-fixpoint
// passes, so a timing run over a huge design stops within a bounded
// amount of work of the deadline.
//
// With workers > 1 the port seeding and every large enough level of the
// levelization are evaluated across that many goroutines. The result is
// the serial one: the instances of a level read only annotations of
// earlier levels and each writes only the slots of the nets it drives
// and of their load pins. Feedback instances read each other and stay
// serial.
func RunCtx(ctx context.Context, b *bind.Design, opts Options, workers int) (*Result, error) {
	opts.fill()
	res := &Result{
		design:  b,
		nets:    make([]Timing, b.Net.NumNets()),
		hasNet:  make([]bool, b.Net.NumNets()),
		pinOf:   make([]int32, b.Net.NumConns()),
		early:   opts.EarlyDerate,
		late:    opts.LateDerate,
		workers: workers,
	}
	for i := range res.pinOf {
		res.pinOf[i] = -1
	}
	loads := int32(0)
	for id := range res.nets {
		if id&0x3f == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for _, lc := range b.Net.Loads(netlist.NetID(id)) {
			res.pinOf[lc] = loads
			loads++
		}
	}
	res.pins, res.hasPin = make([]Timing, loads), make([]bool, loads)

	// Seed primary inputs; one without timing switches at t = 0.
	ports := b.Net.Ports()
	dw := interval.SetOf(0, 0)
	ds := Range{Min: defaultInputSlew, Max: defaultInputSlew}
	err := par.For(ctx, len(ports), workers, parallelBelow, func(i int) error {
		p := b.Net.Port(ports[i])
		if p.Dir != netlist.In {
			return nil
		}
		t := Timing{Rise: dw, Fall: dw, SlewRise: ds, SlewFall: ds}
		if in := opts.InputTiming[b.Net.PortName(ports[i])]; in != nil {
			t = *in
		}
		res.setNet(b.Net.Conn(p.Conn).Net, t)
		return res.propagateNetToPins(b.Net.Conn(p.Conn).Net)
	})
	if err != nil {
		return nil, err
	}

	lev := b.Net.Levelize()
	for _, level := range lev.Levels {
		err := par.For(ctx, len(level), workers, parallelBelow, func(i int) error {
			return res.evalInst(level[i], &opts)
		})
		if err != nil {
			return nil, err
		}
	}

	// Fixpoint over combinational loops: repeat passes while anything
	// changes; windows only grow (hull), so divergence shows up as
	// non-convergence and is resolved conservatively.
	if len(lev.Feedback) > 0 {
		converged := false
		var before []Timing
		for iter := 0; iter < maxLoopIter; iter++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			changed := false
			for _, inst := range lev.Feedback {
				before = snapshotOutputs(res, inst, before[:0])
				if err := res.evalInst(inst, &opts); err != nil {
					return nil, err
				}
				if !outputsEqual(res, inst, before, units.Pico/1000) {
					changed = true
				}
			}
			if !changed {
				converged = true
				break
			}
		}
		if !converged {
			// Loops that keep widening get the fully pessimistic
			// annotation: they may switch at any time.
			for _, inst := range lev.Feedback {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				for _, oc := range b.Net.Outputs(inst) {
					net := b.Net.Conn(oc).Net
					t := res.TimingOf(net)
					inf := interval.InfiniteSet()
					nt := Timing{Rise: inf, Fall: inf, SlewRise: t.SlewRise, SlewFall: t.SlewFall}
					if !nt.SlewRise.valid() {
						nt.SlewRise = ds
					}
					if !nt.SlewFall.valid() {
						nt.SlewFall = ds
					}
					res.setNet(net, nt)
					if err := res.propagateNetToPins(net); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	if opts.ClockPeriod > 0 {
		if err := res.computeRequired(&opts); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// snapshotOutputs appends a copy of each of inst's output annotations to snap.
func snapshotOutputs(res *Result, inst netlist.InstID, snap []Timing) []Timing {
	for _, oc := range res.design.Net.Outputs(inst) {
		snap = append(snap, *res.TimingOf(res.design.Net.Conn(oc).Net))
	}
	return snap
}

func outputsEqual(res *Result, inst netlist.InstID, snap []Timing, tol float64) bool {
	for i, oc := range res.design.Net.Outputs(inst) {
		if !res.TimingOf(res.design.Net.Conn(oc).Net).equalWithin(&snap[i], tol) {
			return false
		}
	}
	return true
}

// evalInst computes the output timing of one instance from its input pin
// timings, then updates downstream pin annotations.
func (res *Result) evalInst(inst netlist.InstID, opts *Options) error {
	if res.onEval != nil {
		res.onEval(inst)
	}
	d := res.design.Net
	cell := res.design.Cell(inst)
	for _, oc := range d.Outputs(inst) {
		net := d.Conn(oc).Net
		load := res.design.NetworkOf(net).TotalCap()
		out := noTiming
		for _, arc := range cell.ArcsTo(d.Pin(oc)) {
			ic := d.PinConn(inst, arc.From)
			if ic < 0 {
				return fmt.Errorf("sta: %s.%s unconnected arc input", d.InstName(inst), arc.From)
			}
			in := res.TimingOfPin(ic)
			if !in.HasActivity() {
				continue
			}
			for _, inRise := range [2]bool{true, false} {
				win := in.Window(inRise)
				if win.IsEmpty() {
					continue
				}
				slew := in.Slew(inRise)
				if !slew.valid() {
					slew = Range{Min: defaultInputSlew, Max: defaultInputSlew}
				}
				dirs, n := outDirections(arc.Unate, inRise)
				for _, outRise := range dirs[:n] {
					dT, sT := arc.DelayFall, arc.SlewFall
					if outRise {
						dT, sT = arc.DelayRise, arc.SlewRise
					}
					d1 := dT.Eval(slew.Min, load)
					d2 := dT.Eval(slew.Max, load)
					if d1 > d2 {
						d1, d2 = d2, d1
					}
					d1 *= opts.EarlyDerate
					d2 *= opts.LateDerate
					w := win.ShiftRange(d1, d2)
					s1 := sT.Eval(slew.Min, load)
					s2 := sT.Eval(slew.Max, load)
					if s1 > s2 {
						s1, s2 = s2, s1
					}
					if outRise {
						out.Rise = out.Rise.Union(w)
						out.SlewRise = out.SlewRise.union(Range{Min: s1, Max: s2})
					} else {
						out.Fall = out.Fall.Union(w)
						out.SlewFall = out.SlewFall.union(Range{Min: s1, Max: s2})
					}
				}
			}
		}
		// Merge with any existing annotation (loop iteration): windows
		// only grow. Simplify bounds set fragmentation so the fixpoint
		// stays cheap on loops.
		if res.hasNet[net] {
			prev := &res.nets[net]
			out.Rise = out.Rise.Union(prev.Rise)
			out.Fall = out.Fall.Union(prev.Fall)
			if prev.SlewRise.valid() {
				out.SlewRise = out.SlewRise.union(prev.SlewRise)
			}
			if prev.SlewFall.valid() {
				out.SlewFall = out.SlewFall.union(prev.SlewFall)
			}
		}
		if int(net) < len(opts.WindowPadding) && opts.WindowPadding[net] > 0 {
			out.Rise = out.Rise.ShiftRange(0, opts.WindowPadding[net])
			out.Fall = out.Fall.ShiftRange(0, opts.WindowPadding[net])
		}
		out.Rise = out.Rise.Simplify(maxWindowFragments)
		out.Fall = out.Fall.Simplify(maxWindowFragments)
		res.setNet(net, out)
		if err := res.propagateNetToPins(net); err != nil {
			return err
		}
	}
	return nil
}

// outDirections maps an input transition through an arc's unateness: the
// output transitions it can cause, and how many.
func outDirections(u liberty.Unateness, inRise bool) ([2]bool, int) {
	switch u {
	case liberty.PositiveUnate:
		return [2]bool{inRise}, 1
	case liberty.NegativeUnate:
		return [2]bool{!inRise}, 1
	default:
		return [2]bool{true, false}, 2
	}
}

// propagateNetToPins annotates each load pin of a net with the source
// timing delayed by the wire (Elmore) and degraded in slew.
func (res *Result) propagateNetToPins(net netlist.NetID) error {
	src := res.TimingOf(net)
	a, err := res.design.AnalysisOf(net)
	if err != nil {
		return err
	}
	for _, lc := range res.design.Net.Loads(net) {
		var wd, sd float64
		if node := res.design.NodeOf(lc); node >= 0 {
			wd, sd = a.Elmore(node), a.SlewDegradation(node)
		}
		i := res.pinOf[lc]
		res.pins[i], res.hasPin[i] = Timing{
			Rise:     src.Rise.ShiftRange(wd*res.early, wd*res.late),
			Fall:     src.Fall.ShiftRange(wd*res.early, wd*res.late),
			SlewRise: addSlew(src.SlewRise, sd),
			SlewFall: addSlew(src.SlewFall, sd),
		}, true
	}
	return nil
}

// addSlew combines driver slew with wire degradation by root-sum-square,
// the standard PERI composition.
func addSlew(r Range, sd float64) Range {
	if !r.valid() {
		return r
	}
	f := func(s float64) float64 { return math.Sqrt(s*s + sd*sd) }
	return Range{Min: f(r.Min), Max: f(r.Max)}
}
