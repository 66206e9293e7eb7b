package sta

import (
	"math"

	"repro/internal/netlist"
)

// Required-time computation: with a clock period set, every output port
// must settle by the end of the cycle. Required times propagate backward
// through the levelized netlist (required at a net = the tightest fanout
// requirement minus the worst arc and wire delay on the way there), and a
// net's timing slack is its required time minus its latest possible
// arrival. Crosstalk delta-delay then has a currency: a push-out of Δ on a
// net eats Δ of that net's slack.

// computeRequired fills res.required for every net reachable backward from
// an output port. Feedback instances are skipped (their nets keep +Inf
// required, i.e. unconstrained) — loops already received fully pessimistic
// arrival windows.
func (res *Result) computeRequired(opts *Options) error {
	b := res.design
	res.required = make([]float64, b.Net.NumNets())
	for i := range res.required {
		res.required[i] = math.Inf(1)
	}
	for _, p := range b.Net.Ports() {
		if p.Dir == netlist.Out {
			res.required[p.Conn.Net.ID()] = opts.ClockPeriod
		}
	}
	lev := b.Net.Levelize()
	ordered := lev.Ordered()
	for i := len(ordered) - 1; i >= 0; i-- {
		inst := ordered[i]
		cell := b.Cell(inst)
		for _, oc := range inst.Outputs() {
			outReq := res.required[oc.Net.ID()]
			if math.IsInf(outReq, 1) {
				continue
			}
			load := b.NetworkOf(oc.Net).TotalCap()
			for _, arc := range cell.ArcsTo(oc.Pin) {
				ic := inst.Conn(arc.From)
				if ic == nil {
					continue
				}
				in := res.TimingOfPin(ic)
				slew := opts.DefaultInputSlew
				if s := in.SlewRise.union(in.SlewFall); s.valid() {
					slew = s.Max
				}
				d := math.Max(arc.DelayRise.Eval(slew, load), arc.DelayFall.Eval(slew, load))
				d *= res.late
				wd, err := b.WireDelayTo(ic)
				if err != nil {
					return err
				}
				cand := outReq - d - wd*res.late
				if cand < res.required[ic.Net.ID()] {
					res.required[ic.Net.ID()] = cand
				}
			}
		}
	}
	return nil
}

// TimingSlack returns the net's timing slack — required time minus latest
// arrival — and whether a meaningful slack exists (the net switches and a
// clock period constrained it). Negative slack is a setup violation.
func (r *Result) TimingSlack(net string) (float64, bool) {
	return r.slackOf(r.design.Net.FindNet(net))
}

func (r *Result) slackOf(n *netlist.Net) (float64, bool) {
	if r.required == nil || n == nil || math.IsInf(r.required[n.ID()], 1) {
		return 0, false
	}
	reqT := r.required[n.ID()]
	t := r.TimingOf(n)
	if !t.HasActivity() {
		return 0, false
	}
	latest := math.Inf(-1)
	for _, rise := range []bool{true, false} {
		if h := t.Window(rise).Hull(); !h.IsEmpty() && h.Hi > latest {
			latest = h.Hi
		}
	}
	if math.IsInf(latest, 0) {
		return 0, false
	}
	return reqT - latest, true
}
