// Package core implements the paper's contribution: static noise analysis
// with noise windows (Tseng & Kariat, DAC 2003).
//
// Classical static noise analysis assumes every aggressor of a victim net
// can switch at any time, aligns all their glitches at one instant, and sums
// the peaks — maximally pessimistic. The noise-window method attaches to
// every glitch the time interval during which its peak can actually occur:
//
//   - A *coupled* glitch inherits its window from the inducing aggressor's
//     STA switching window, shifted by the aggressor's wire delay and edge
//     time and widened by the glitch's own width.
//
//   - A *propagated* glitch (noise passing through a gate from a noisy
//     input to the gate output) inherits the input glitch's window shifted
//     by the gate's [min, max] delay.
//
// Combination is a maximum over alignment instants of the summed glitch
// contributions. By default each glitch contributes its full peak when the
// instant lies in its noise window and a linearly decaying tail outside it
// (the "tent" occupancy — the exact worst case over the analyzer's own
// triangular glitch templates, sound against partial overlap; see
// Occupancy and experiment T11). The analyzer supports three combination
// policies so the pessimism the windows remove is measurable:
//
//	ModeAllAggressors — no timing at all (classical upper bound),
//	ModeTimingWindows — coupled glitches respect switching windows, but
//	                    propagated noise combines unconditionally,
//	ModeNoiseWindows  — full noise-window propagation (the paper).
package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/interval"
	"repro/internal/sta"
	"repro/internal/units"
)

// Mode selects the combination policy.
type Mode int

const (
	// ModeNoiseWindows is the paper's method, and the zero value: every
	// glitch, coupled or propagated, carries a noise window, and only
	// window-overlapping glitches combine.
	ModeNoiseWindows Mode = iota
	// ModeTimingWindows filters and aligns coupled glitches by the
	// aggressors' switching windows but treats propagated noise as
	// unconstrained — the state of the art the paper improves on.
	ModeTimingWindows
	// ModeAllAggressors is the classical no-timing analysis: every
	// aggressor may switch at any time (infinite windows everywhere).
	ModeAllAggressors
)

// modeNames are the short names options and flags select a mode by.
var modeNames = [...]string{ModeAllAggressors: "all", ModeTimingWindows: "timing", ModeNoiseWindows: "noise"}

// ParseMode resolves a mode's short name: all, timing or noise.
func ParseMode(name string) (Mode, error) {
	for m, n := range modeNames {
		if n == name {
			return Mode(m), nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (want all|timing|noise)", name)
}

// Name is the mode's short name, the one ParseMode reads.
func (m Mode) Name() string { return modeNames[m] }

// String names the mode for reports.
func (m Mode) String() string {
	switch m {
	case ModeTimingWindows:
		return "timing-windows"
	case ModeNoiseWindows:
		return "noise-windows"
	}
	return "all-aggressors"
}

// Kind is the victim state a glitch endangers.
type Kind int

const (
	// KindLow: victim holds logic 0; rising aggressors inject an upward
	// glitch that can falsely turn on receivers.
	KindLow Kind = iota
	// KindHigh: victim holds logic 1; falling aggressors inject a
	// downward glitch.
	KindHigh
)

// String returns "low" or "high".
func (k Kind) String() string {
	if k == KindHigh {
		return "high"
	}
	return "low"
}

// Kinds lists both victim states for iteration.
var Kinds = [2]Kind{KindLow, KindHigh}

// Event is a single glitch hypothesis on a net: a peak magnitude, the
// glitch's half-peak width, and the noise window during which the peak can
// occur.
type Event struct {
	// Peak is the glitch magnitude in volts (always positive; Kind
	// carries the polarity).
	Peak float64
	// Width is the half-peak width in seconds.
	Width float64
	// Window is the noise window: the interval of possible peak instants.
	Window interval.Window
	// Source describes provenance: an aggressor net name for coupled
	// noise, "prop:<net>" for noise propagated from a fanin net,
	// "virtual" for the lumped filtered-aggressor pedestal.
	Source string
}

// Combined is the worst achievable superposition of a net's events of one
// kind.
type Combined struct {
	// Peak is the maximum summed glitch magnitude (clamped to Vdd).
	Peak float64
	// Width is the widest member glitch's width — the conservative width
	// for the immunity-curve check.
	Width float64
	// Window is the set of instants at which this combination is
	// achievable: the intersection of the member windows.
	Window interval.Window
	// At is one instant achieving the peak (NaN when Peak is 0).
	At float64
	// Members lists the sources that align to produce Peak.
	Members []string
	// MemberEvents holds the aligned events themselves, for waveform
	// reconstruction. Both lists of an analyzer's result are that result's
	// own storage, rewritten in place when the net is next evaluated: copy
	// what must outlive a Reanalyze.
	MemberEvents []Event
}

// NetNoise is the analysis result for one victim net.
type NetNoise struct {
	Net string
	// Events per kind: individual coupled, virtual, and propagated
	// glitches.
	Events [2][]Event
	// Comb per kind: the worst windowed combination.
	Comb [2]Combined
}

// WorstPeak returns the larger combined peak across both kinds.
func (n *NetNoise) WorstPeak() float64 {
	return math.Max(n.Comb[KindLow].Peak, n.Comb[KindHigh].Peak)
}

// Violation is a failed noise check at one receiver input.
type Violation struct {
	Net      string  // victim net
	Receiver string  // receiving pin, "inst.pin" form
	Kind     Kind    // victim state
	Peak     float64 // combined glitch peak, volts
	Width    float64 // combined glitch width, seconds
	Limit    float64 // immunity-curve allowance at that width
	Slack    float64 // Limit − Peak (negative)
	At       float64 // an alignment instant achieving the peak
	Members  []string
}

// ReceiverSlack is the noise margin at one receiver input for one victim
// state — recorded for every checked receiver, passing or failing, so
// reports can show how close the design is to trouble, not only where it
// already failed.
type ReceiverSlack struct {
	Net      string
	Receiver string
	Kind     Kind
	Peak     float64 // combined glitch peak, volts (0 when quiet)
	Limit    float64 // immunity allowance at the combined width
	Slack    float64 // Limit − Peak
}

// Stats summarizes an analysis run.
type Stats struct {
	Victims        int // nets analyzed
	AggressorPairs int // victim-aggressor couplings considered
	Filtered       int // couplings dropped by the threshold filter
	Propagated     int // propagated glitch events created (last pass)
	Iterations     int // propagation passes until fixpoint
	Converged      bool
	// DegradedNets counts the victims that carry a diagnostic (equals
	// len(Result.Diags)): those substituted with the conservative full-rail
	// fallback under fail-soft, and those analyzed against an aggressor the
	// netlist lacks, assumed to switch at any time.
	DegradedNets int
}

// Result is a full-design noise analysis.
type Result struct {
	Mode       Mode
	Nets       map[string]*NetNoise
	Violations []Violation
	// Slacks records the noise margin of every checked receiver/state
	// (violations included, negative) in the canonical gather order:
	// alphabetical net, then the net's receiver order, then kind.
	// TightestSlacks and WorstSlack read them tightest first.
	Slacks []ReceiverSlack
	Stats  Stats
	// Diags lists the victims the engine could not analyze and degraded
	// to the conservative full-rail bound (fail-soft runs only; a
	// fail-fast run aborts on the first such failure instead). Sorted by
	// net name. Degraded nets appear in Nets with Peak pinned at Vdd but
	// carry no per-receiver Violations — the Diag marks the whole net
	// failing. A Diag that is not Degraded marks a victim analyzed in full
	// (in any run), an aggressor of unknown timing assumed always switching.
	Diags []Diag
	// STA is the timing annotation used (switching windows, slews).
	STA *sta.Result
	// slab holds the analyzed nets' records, by evaluation-order position:
	// what the engine's hot loops index, and what Nets — the name index at
	// the edge — points into. Only results built by an analyzer carry it;
	// merged shard results leave it nil and are never fed back into
	// engine loops. byName lists slab's positions in alphabetical net
	// order (the analyzer's own index, shared).
	slab   []NetNoise
	byName []int32
	// The version clock of slab's records (Versions). id is the result's
	// identity, unique in the process, 0 on a result no analyzer built.
	// tick counts the evaluations committed into slab, which is how many
	// evaluations the analyzer behind it has made; ver is, by position, the
	// tick that last committed into the record, or 0 while the record is
	// being rewritten (evalNet, until its commit) or after a write that is
	// no evaluation (ShardEngine.SetComb).
	id   uint64
	tick uint64
	ver  []uint64
	// sorted is Slacks tightest first, built on the first read (under
	// slackMu) and dropped when the result is finished again.
	sorted []ReceiverSlack
}

// slackMu guards every Result's sorted: whichever reader comes first sorts.
// One lock for all results, not a field of each, keeps Result copyable.
var slackMu sync.Mutex

// NoiseOf returns the noise record for a net (nil if not analyzed).
func (r *Result) NoiseOf(net string) *NetNoise { return r.Nets[net] }

// ByName returns how many nets the result holds and the i-th of them in
// alphabetical order of name, the order reports list nets in. An analyzer's
// result walks its own index; any other (merged from shards, built by hand)
// sorts its Nets keys on each call.
func (r *Result) ByName() (int, func(i int) *NetNoise) {
	if r.slab != nil {
		return len(r.byName), func(i int) *NetNoise { return &r.slab[r.byName[i]] }
	}
	names := make([]string, 0, len(r.Nets))
	for name := range r.Nets {
		names = append(names, name)
	}
	slices.Sort(names)
	return len(names), func(i int) *NetNoise { return r.Nets[names[i]] }
}

// resultIDs hands out result identities.
var resultIDs atomic.Uint64

// Versions returns the result's identity and the version of the i-th net
// record in ByName's order. A record's bytes in any report are a function
// of the record alone, and a record keeps its version exactly as long as it
// is not written: while the identity and a nonzero version stand, what was
// encoded from the record may be reused. Version 0 is a record that must be
// encoded afresh; a result no analyzer built has identity 0 and every
// version 0.
func (r *Result) Versions() (id uint64, ver func(i int) uint64) {
	if r.id == 0 {
		return 0, func(int) uint64 { return 0 }
	}
	return r.id, func(i int) uint64 { return r.ver[r.byName[i]] }
}

// TotalNoise sums every net's worst combined peak — the aggregate
// pessimism metric the experiments track across modes — in net-name order:
// a float sum depends on its order, and this one is the same for every
// call, every worker count and a result merged from shards.
func (r *Result) TotalNoise() float64 {
	n, at := r.ByName()
	var s float64
	for i := 0; i < n; i++ {
		s += at(i).WorstPeak()
	}
	return s
}

// tightest returns Slacks tightest first: sortSlacks over the canonical
// sequence, run once per finish by the first reader.
func (r *Result) tightest() []ReceiverSlack {
	slackMu.Lock()
	defer slackMu.Unlock()
	if r.sorted == nil && len(r.Slacks) > 0 {
		r.sorted = slices.Clone(r.Slacks)
		sortSlacks(r.sorted)
	}
	return r.sorted
}

// WorstSlack returns the smallest noise slack across all checked
// receivers, +Inf when nothing was checked.
func (r *Result) WorstSlack() float64 {
	if s := r.tightest(); len(s) > 0 {
		return s[0].Slack
	}
	return math.Inf(1)
}

// TightestSlacks returns the n smallest receiver margins, tightest first
// (none for n <= 0). The list is the result's own: do not modify it.
func (r *Result) TightestSlacks(n int) []ReceiverSlack {
	s := r.tightest()
	return s[:max(min(n, len(s)), 0)]
}

// Occupancy selects how much of a glitch's waveform extent participates in
// combination — the soundness/tightness axis the Monte Carlo experiment
// (T11) probes.
type Occupancy int

const (
	// OccupancyTent is the default and the sound one: a glitch whose
	// peak window is d away from the alignment instant still contributes
	// its triangular tail, peak·(1 − d/width)⁺. The combined bound is
	// the exact worst case achievable by the analyzer's own glitch
	// templates, so random alignment sampling can never exceed it.
	OccupancyTent Occupancy = iota
	// OccupancyPeak combines only glitches whose peak windows share the
	// alignment instant — the classical windowed-combination semantics.
	// It is tighter but optimistic against partial (tail-under-peak)
	// overlap; kept as the historical baseline and ablation A1.
	OccupancyPeak
	// OccupancyWiden counts a glitch at full peak whenever the instant
	// is within its width of its peak window — a coarse conservative
	// over-approximation of the tent, which it covers at every instant
	// (ablation A1).
	OccupancyWiden
)

// String names the policy for reports.
func (o Occupancy) String() string {
	switch o {
	case OccupancyPeak:
		return "peak"
	case OccupancyWiden:
		return "widen"
	}
	return "tent"
}

// combiner holds the scratch buffers one combination query needs, so the
// fixpoint's hot loop (every net, every pass, every round) does not
// reallocate them. One combiner serves one goroutine; the analyzer keeps
// one per worker.
type combiner struct {
	candidates []float64
	weights    []float64
	active     []int
	members    []int
	bySource   []int32
	scan       interval.Scan
	// names and events are the unused tail of the chunks this combiner
	// carves member lists from. A chunk lives as long as a result refers
	// to it; the combiner only ever holds the newest one.
	names  []string
	events []Event
}

// memberChunk is how many member slots a combiner allocates at a time.
const memberChunk = 512

// memberLists returns storage for a combination of n members: prev's own
// lists when they are big enough — a victim's slot is rewritten in place,
// so evaluating the same victims round after round holds what the first
// round held — else a fresh piece of the chunk.
func (cb *combiner) memberLists(prev *Combined, n int) ([]string, []Event) {
	if prev != nil && cap(prev.Members) >= n && cap(prev.MemberEvents) >= n {
		return prev.Members[:n], prev.MemberEvents[:n]
	}
	if len(cb.names) < n {
		cb.names, cb.events = make([]string, max(n, memberChunk)), make([]Event, max(n, memberChunk))
	}
	names, events := cb.names[:n:n], cb.events[:n:n]
	cb.names, cb.events = cb.names[n:], cb.events[n:]
	return names, events
}

// hasDuplicateSource reports whether two of the events share a source.
func (cb *combiner) hasDuplicateSource(events []Event) bool {
	if len(events) < 2 {
		return false
	}
	order := cb.bySource[:0]
	for i := range events {
		order = append(order, int32(i))
	}
	cb.bySource = order
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(events[a].Source, events[b].Source) })
	for i := 1; i < len(order); i++ {
		if events[order[i-1]].Source == events[order[i]].Source {
			return true
		}
	}
	return false
}

// contribution returns how much of event e's peak can appear at instant t
// under the given occupancy policy.
func contribution(e *Event, t float64, occ Occupancy) float64 {
	if e.Window.IsEmpty() || e.Peak <= 0 {
		return 0
	}
	var d float64
	switch {
	case e.Window.Contains(t):
		d = 0
	case t < e.Window.Lo:
		d = e.Window.Lo - t
	default:
		d = t - e.Window.Hi
	}
	switch occ {
	case OccupancyPeak:
		if d == 0 {
			return e.Peak
		}
		return 0
	case OccupancyWiden:
		if d <= e.Width {
			return e.Peak
		}
		return 0
	default: // OccupancyTent
		if d == 0 {
			return e.Peak
		}
		if e.Width <= 0 || d >= e.Width {
			return 0
		}
		return e.Peak * (1 - d/e.Width)
	}
}

// combineConstrained finds the worst achievable superposition of the
// events under the occupancy policy and optional pairwise exclusions. The
// objective max_t Σ_i contribution_i(t) is piecewise linear in t, so the
// maximum lies at a breakpoint: a window edge, or a window edge offset by
// the event's width. Each candidate instant is evaluated exactly;
// with exclusions the best conflict-free subset at each instant comes from
// an exact branch-and-bound independent-set query. The result's member
// lists go where memberLists puts them (prev: the combination this one
// replaces, or nil).
func (cb *combiner) combineConstrained(events []Event, vdd float64, conflict func(i, j int) bool, occ Occupancy, prev *Combined) Combined {
	if len(events) == 0 {
		return Combined{At: math.NaN(), Window: interval.Empty()}
	}
	candidates := cb.candidates[:0]
	addCand := func(t float64) {
		if !math.IsInf(t, 0) && !math.IsNaN(t) {
			candidates = append(candidates, t)
		}
	}
	for i := range events {
		e := &events[i]
		if e.Window.IsEmpty() || e.Peak <= 0 {
			continue
		}
		addCand(e.Window.Lo)
		addCand(e.Window.Hi)
		switch occ {
		case OccupancyWiden, OccupancyTent:
			addCand(e.Window.Lo - e.Width)
			addCand(e.Window.Hi + e.Width)
		}
	}
	if len(candidates) == 0 {
		// All contributing windows are infinite (or none contribute):
		// any instant is as good as any other.
		candidates = append(candidates, 0)
	}
	cb.candidates = candidates

	// A net transitions at most once per edge direction per cycle, so two
	// events with the same source — one aggressor's alternative switching
	// phases, or one input glitch reaching the output through parallel
	// arcs — are mutually exclusive and must never sum. Under the peak
	// policy their disjoint windows make that automatic; tails make it
	// explicit.
	fullConflict := conflict
	if cb.hasDuplicateSource(events) {
		fullConflict = func(i, j int) bool {
			if events[i].Source == events[j].Source {
				return true
			}
			return conflict != nil && conflict(i, j)
		}
	}

	if cap(cb.weights) < len(events) {
		cb.weights = make([]float64, len(events))
	}
	weights := cb.weights[:len(events)]
	var bestSum float64
	bestAt := math.NaN()
	bestMembers := cb.members[:0]
	for _, t := range candidates {
		active := cb.active[:0]
		for i := range events {
			weights[i] = contribution(&events[i], t, occ)
			if weights[i] > 0 {
				active = append(active, i)
			}
		}
		cb.active = active
		if len(active) == 0 {
			continue
		}
		var sum float64
		var members []int
		if fullConflict == nil {
			for _, i := range active {
				sum += weights[i]
			}
			members = active
		} else {
			sum, members = cb.scan.MaxWeightIndependentSet(weights, active, fullConflict)
		}
		if sum > bestSum {
			bestSum = sum
			bestAt = t
			bestMembers = append(bestMembers[:0], members...)
		}
	}
	cb.members = bestMembers
	if math.IsNaN(bestAt) || bestSum <= 0 {
		return Combined{At: math.NaN(), Window: interval.Empty()}
	}
	out := Combined{Peak: math.Min(bestSum, vdd), At: bestAt}
	out.Members, out.MemberEvents = cb.memberLists(prev, len(bestMembers))
	win := interval.Infinite()
	containing := 0
	for i, idx := range bestMembers {
		e := events[idx]
		out.Members[i], out.MemberEvents[i] = e.Source, e
		if e.Width > out.Width {
			out.Width = e.Width
		}
		// Only members whose peak can actually sit at the alignment
		// instant constrain the combined window; tail contributors peak
		// elsewhere.
		if e.Window.Contains(bestAt) {
			win = win.Intersect(e.Window)
			containing++
		}
	}
	if containing == 0 {
		win = interval.Point(bestAt)
	}
	if len(out.Members) > 1 {
		slices.Sort(out.Members)
	}
	out.Window = win
	return out
}

// combEqual reports whether two combined results agree on peak and width
// within tolerance — the fixpoint test for the propagation iteration.
func combEqual(a, b Combined, tol float64) bool {
	return math.Abs(a.Peak-b.Peak) <= tol && math.Abs(a.Width-b.Width) <= tol+units.Pico/1000
}
