package core

import (
	"repro/internal/bind"
	"repro/internal/liberty"
	"repro/internal/netlist"
)

// Logic correlation: two aggressors whose transitions are logically
// mutually exclusive can never glitch a victim together, no matter what
// their timing windows say. The classic case is a signal and its
// complement routed side by side — within one switching event of their
// shared source, one rises exactly when the other falls, so their
// same-direction glitches (which is what a single victim state collects)
// can never align.
//
// The analyzer tracks, for every net, the primary inputs it depends on and
// the polarity of the dependence (positive, negative, or both when
// reconvergence mixes parities). Under the single-transition-per-cycle
// model, aggressor A making edge dA and aggressor B making edge dB are
// mutually exclusive when both depend on exactly the same single input
// with definite polarities that demand opposite transitions of that input.
// Combination then becomes a maximum-weight overlap query with pairwise
// conflicts (interval's Scan.MaxWeightIndependentSet at each instant).

// polarity is a bitmask: bit 0 = positive path exists, bit 1 = negative.
type polarity uint8

const (
	polPos  polarity = 1
	polNeg  polarity = 2
	polBoth polarity = polPos | polNeg
)

// invert flips the parity of every path.
func (p polarity) invert() polarity {
	var out polarity
	if p&polPos != 0 {
		out |= polNeg
	}
	if p&polNeg != 0 {
		out |= polPos
	}
	return out
}

// source summarizes a net's dependence on primary inputs as far as
// exclusion can use it: exclusiveEdges only fires for nets that depend on
// exactly one input, so two or more are "many", whichever they are. A net
// whose dependence is not computed (on or past a loop) is unknown, the zero
// value; many and unknown both disable correlation for the net.
type source struct {
	kind srcKind
	pol  polarity       // srcOne: the parities of the paths from the input
	port netlist.PortID // srcOne: the input
}

type srcKind uint8

const (
	srcUnknown srcKind = iota
	srcNone            // depends on no input
	srcOne
	srcMany
)

// merge folds an arc's input net into an output's summary, through the
// arc's unateness. Unknown absorbs everything, many everything known, and
// two dependences on one input OR their parities.
func (s source) merge(in source, u liberty.Unateness) source {
	switch {
	case in.kind == srcUnknown || s.kind == srcUnknown:
		return source{}
	case in.kind == srcNone:
		return s
	case in.kind == srcMany || s.kind == srcMany || s.kind == srcOne && s.port != in.port:
		return source{kind: srcMany}
	}
	switch u {
	case liberty.NegativeUnate:
		in.pol = in.pol.invert()
	case liberty.NonUnate:
		in.pol = polBoth
	}
	in.pol |= s.pol // s is none (no parity) or one on the same input
	return in
}

// buildCorrelations computes every net's summary, by net ID, by one pass
// over the levelized netlist. Nets on or downstream of combinational loops
// stay unknown (no correlation claims are made about them).
func buildCorrelations(b *bind.Design) []source {
	d := b.Net
	out := make([]source, d.NumNets())
	for _, p := range d.Ports() {
		if d.Port(p).Dir == netlist.In {
			out[d.Conn(d.Port(p).Conn).Net] = source{kind: srcOne, pol: polPos, port: p}
		}
	}
	lev := d.Levelize()
	for _, inst := range lev.Ordered() {
		cell := b.Cell(inst)
		for _, oc := range d.Outputs(inst) {
			merged := source{kind: srcNone}
			for _, arc := range cell.ArcsTo(d.Pin(oc)) {
				if ic := d.PinConn(inst, arc.From); ic >= 0 {
					merged = merged.merge(out[d.Conn(ic).Net], arc.Unate)
				}
			}
			out[d.Conn(oc).Net] = merged
		}
	}
	for _, inst := range lev.Feedback {
		for _, oc := range d.Outputs(inst) {
			out[d.Conn(oc).Net] = source{}
		}
	}
	return out
}

// exclusiveEdges reports whether net A making edge riseA and net B making
// edge riseB are logically mutually exclusive: both depend solely on the
// same input with definite, contradictory polarity requirements.
func exclusiveEdges(sA, sB source, riseA, riseB bool) bool {
	if sA.kind != srcOne || sB.kind != srcOne || sA.port != sB.port || sA.pol == polBoth || sB.pol == polBoth {
		return false
	}
	// The input must rise for net X to rise through a positive path, or
	// fall through a negative one.
	reqA := riseA == (sA.pol == polPos)
	reqB := riseB == (sB.pol == polPos)
	return reqA != reqB
}

// conflictFunc builds the pairwise exclusion test for one kind of the
// victim at pos. Only coupled events with an aggressor in the netlist take
// part (the head of the list, which a.aggs parallels): propagated, virtual
// and stranger events are never excluded.
func (a *analyzer) conflictFunc(pos int, k Kind) func(i, j int) bool {
	if a.corr == nil {
		return nil
	}
	aggs := a.aggs[pos][k]
	rise := k == KindLow // rising aggressors endanger a low victim
	return func(i, j int) bool {
		if i >= len(aggs) || j >= len(aggs) || aggs[i] < 0 || aggs[j] < 0 {
			return false
		}
		return exclusiveEdges(a.corr[aggs[i]], a.corr[aggs[j]], rise, rise)
	}
}
