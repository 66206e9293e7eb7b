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
	d := b.Net
	for _, p := range d.Ports() {
		if port := d.Port(p); port.Dir == netlist.Out {
			res.required[d.Conn(port.Conn).Net] = opts.ClockPeriod
		}
	}
	lev := b.Net.Levelize()
	ordered := lev.Ordered()
	for i := len(ordered) - 1; i >= 0; i-- {
		inst := ordered[i]
		cell := b.Cell(inst)
		for _, oc := range d.Outputs(inst) {
			net := d.Conn(oc).Net
			outReq := res.required[net]
			if math.IsInf(outReq, 1) {
				continue
			}
			load := b.NetworkOf(net).TotalCap()
			for _, arc := range cell.ArcsTo(d.Pin(oc)) {
				ic := d.PinConn(inst, arc.From)
				if ic < 0 {
					continue
				}
				in := res.TimingOfPin(ic)
				slew := defaultInputSlew
				if s := in.SlewRise.union(in.SlewFall); s.valid() {
					slew = s.Max
				}
				delay := math.Max(arc.DelayRise.Eval(slew, load), arc.DelayFall.Eval(slew, load))
				delay *= res.late
				wd, err := b.WireDelayTo(ic)
				if err != nil {
					return err
				}
				cand := outReq - delay - wd*res.late
				if in := d.Conn(ic).Net; cand < res.required[in] {
					res.required[in] = cand
				}
			}
		}
	}
	return nil
}

// TimingSlack returns net n's timing slack — required time minus latest
// arrival — and whether a meaningful slack exists (the net switches and a
// clock period constrained it). Negative slack is a setup violation.
func (r *Result) TimingSlack(n netlist.NetID) (float64, bool) {
	if r.required == nil || n < 0 || math.IsInf(r.required[n], 1) {
		return 0, false
	}
	reqT := r.required[n]
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
