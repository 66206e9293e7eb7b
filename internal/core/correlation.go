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
// The analyzer tracks, for every net, the set of primary inputs it depends
// on and the polarity of each dependence (positive, negative, or both when
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

// sourceMap records a net's dependence on primary inputs: port name →
// polarity. A nil map means "unknown" (feedback loops, or nets with no
// computed dependence) and disables correlation for that net.
type sourceMap map[string]polarity

// buildCorrelations computes every net's source map by one pass over the
// levelized netlist. Nets on or downstream of combinational loops get nil
// (no correlation claims are made about them).
func buildCorrelations(b *bind.Design) map[string]sourceMap {
	d := b.Net
	out := make(map[string]sourceMap, d.NumNets())
	for _, p := range d.Ports() {
		if d.Port(p).Dir == netlist.In {
			out[d.PortName(p)] = sourceMap{d.PortName(p): polPos}
		}
	}
	netName := func(c netlist.ConnID) string { return d.NetName(d.Conn(c).Net) }
	lev := d.Levelize()
	for _, inst := range lev.Ordered() {
		cell := b.Cell(inst)
		for _, oc := range d.Outputs(inst) {
			merged := sourceMap{}
			known := true
			for _, arc := range cell.ArcsTo(d.Pin(oc)) {
				ic := d.PinConn(inst, arc.From)
				if ic < 0 {
					continue
				}
				in, ok := out[netName(ic)]
				if !ok || in == nil {
					known = false
					break
				}
				for port, pol := range in {
					switch arc.Unate {
					case liberty.NegativeUnate:
						pol = pol.invert()
					case liberty.NonUnate:
						pol = polBoth
					}
					merged[port] |= pol
				}
			}
			if !known {
				out[netName(oc)] = nil
				continue
			}
			out[netName(oc)] = merged
		}
	}
	// Feedback-driven nets stay absent; normalize them to nil entries so
	// lookups distinguish "no info" from "no dependence".
	for _, inst := range lev.Feedback {
		for _, oc := range d.Outputs(inst) {
			out[netName(oc)] = nil
		}
	}
	return out
}

// exclusiveEdges reports whether net A making edge riseA and net B making
// edge riseB are logically mutually exclusive: both depend solely on the
// same input with definite, contradictory polarity requirements.
func exclusiveEdges(sA, sB sourceMap, riseA, riseB bool) bool {
	if len(sA) != 1 || len(sB) != 1 {
		return false
	}
	var portA, portB string
	var polA, polB polarity
	for p, q := range sA {
		portA, polA = p, q
	}
	for p, q := range sB {
		portB, polB = p, q
	}
	if portA != portB || polA == polBoth || polB == polBoth {
		return false
	}
	// The input must rise for net X to rise through a positive path, or
	// fall through a negative one.
	reqA := riseA == (polA == polPos)
	reqB := riseB == (polB == polPos)
	return reqA != reqB
}

// conflictFunc builds the pairwise exclusion test for one victim kind's
// event list. Only coupled events (whose Source is an aggressor net name
// with a known source map) participate; propagated and virtual events are
// never excluded.
func (a *analyzer) conflictFunc(events []Event, k Kind) func(i, j int) bool {
	if a.corr == nil {
		return nil
	}
	rise := k == KindLow // rising aggressors endanger a low victim
	return func(i, j int) bool {
		si, okI := a.corr[events[i].Source]
		sj, okJ := a.corr[events[j].Source]
		if !okI || !okJ || si == nil || sj == nil {
			return false
		}
		return exclusiveEdges(si, sj, rise, rise)
	}
}
