// Package noise implements the electrical crosstalk models of static noise
// analysis: given a quiet victim net and a switching aggressor coupled to it
// through extracted capacitance, compute the glitch (peak, width, template
// waveform) injected at the victim's receivers.
//
// The model is the classical dominant-pole charge-sharing analysis. The
// quiet victim is held by its driver through the holding resistance R_h;
// wire resistance R_w separates the driver from the coupling site; the
// total victim capacitance is C_v and the coupling capacitance to the
// aggressor is C_x. For an aggressor edge of transition time t_r and swing
// Vdd, with τ = (R_h+R_w)(C_v) the victim response peaks at
//
//	V_peak = Vdd · (C_x·R/t_r) · (1 − e^{−t_r/τ}),  R = R_h + R_w
//
// which interpolates between the fast-edge charge-sharing limit
// Vdd·C_x/C_v (t_r → 0) and the slow-edge resistive limit Vdd·C_x·R/t_r.
// The package also provides Devgan's strict upper bound Vdd·C_x·R/t_r for
// conservative screening, and assembles golden ckt circuits so the model
// can be validated against transient simulation.
package noise

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bind"
	"repro/internal/ckt"
	"repro/internal/netlist"
	"repro/internal/units"
	"repro/internal/waveform"
)

// Params are the reduced electrical parameters of one victim/aggressor
// coupling.
type Params struct {
	HoldRes float64 // victim driver holding resistance, ohms
	WireRes float64 // victim wire resistance driver→coupling site, ohms
	CoupleC float64 // coupling capacitance to this aggressor, farads
	VictimC float64 // total victim capacitance (wire+pins+coupling), farads
	AggSlew float64 // aggressor transition time at the coupling site, s
	Vdd     float64 // supply swing, volts
}

// Validate rejects unphysical parameters.
func (p Params) Validate() error {
	if p.HoldRes <= 0 || p.VictimC <= 0 || p.Vdd <= 0 {
		return fmt.Errorf("noise: non-positive holding resistance, victim cap, or vdd")
	}
	if p.WireRes < 0 || p.CoupleC < 0 || p.AggSlew < 0 {
		return fmt.Errorf("noise: negative wire resistance, coupling cap, or slew")
	}
	if p.CoupleC > p.VictimC {
		return fmt.Errorf("noise: coupling cap %g exceeds total victim cap %g", p.CoupleC, p.VictimC)
	}
	return nil
}

// Tau returns the victim time constant (R_h+R_w)·C_v.
func (p Params) Tau() float64 {
	return (p.HoldRes + p.WireRes) * p.VictimC
}

// Peak returns the dominant-pole glitch peak magnitude in volts.
func (p Params) Peak() float64 {
	r := p.HoldRes + p.WireRes
	tau := p.Tau()
	if p.AggSlew <= 0 {
		// Instantaneous edge: pure charge sharing.
		return p.Vdd * p.CoupleC / p.VictimC
	}
	return p.Vdd * (p.CoupleC * r / p.AggSlew) * (1 - math.Exp(-p.AggSlew/tau))
}

// DevganBound returns the strict upper bound Vdd·C_x·R/t_r. For very fast
// edges the bound exceeds the charge-sharing limit and is clamped there.
func (p Params) DevganBound() float64 {
	if p.AggSlew <= 0 {
		return p.Vdd * p.CoupleC / p.VictimC
	}
	b := p.Vdd * p.CoupleC * (p.HoldRes + p.WireRes) / p.AggSlew
	return math.Min(b, p.Vdd*p.CoupleC/p.VictimC)
}

// Template returns the glitch template waveform starting at t0. For the
// dominant-pole model the response to a ramp aggressor edge is exact:
//
//	v(t) = k·R·C_x·(1 − e^{−t/τ})          during the edge (0 ≤ t ≤ t_r)
//	v(t) = v(t_r)·e^{−(t−t_r)/τ}           after it
//
// sampled into a PWL dense enough that measured peak and width match the
// closed form (and the MNA golden simulation) to within interpolation
// error.
func (p Params) Template(t0 float64) waveform.PWL {
	tau := p.Tau()
	tr := p.AggSlew
	peak := p.Peak()
	if tr <= 0 {
		tr = 1e-15
	}
	if tau <= 0 {
		tau = 1e-15
	}
	sat := 1 - math.Exp(-tr/tau)
	pts := []waveform.Point{{T: t0, V: 0}}
	const nRise = 10
	for i := 1; i <= nRise; i++ {
		dt := tr * float64(i) / nRise
		pts = append(pts, waveform.Point{T: t0 + dt, V: peak * (1 - math.Exp(-dt/tau)) / sat})
	}
	const nFall, tail = 12, 4.6
	for i := 1; i <= nFall; i++ {
		dt := tail * tau * float64(i) / nFall
		pts = append(pts, waveform.Point{T: t0 + tr + dt, V: peak * math.Exp(-dt/tau)})
	}
	pts = append(pts, waveform.Point{T: t0 + tr + tail*tau*1.05, V: 0})
	return waveform.MustNew(pts...)
}

// Width returns the half-peak width of the glitch in closed form. For the
// exact single-pole response the waveform crosses half the peak at
//
//	t_up  = −τ·ln(1 − sat/2),  sat = 1 − e^{−t_r/τ}   (during the rise)
//	t_dn  = t_r + τ·ln 2                              (during the decay)
//
// so the width is t_dn − t_up. This is what Template's sampled waveform
// measures, without allocating it — the analysis hot path uses this form.
func (p Params) Width() float64 {
	tau := p.Tau()
	tr := p.AggSlew
	if tr <= 0 {
		tr = 1e-15
	}
	if tau <= 0 {
		tau = 1e-15
	}
	sat := 1 - math.Exp(-tr/tau)
	tUp := -tau * math.Log(1-sat/2)
	return tr + tau*math.Ln2 - tUp
}

// Metrics measures the glitch template: peak (signed positive), half-peak
// width, and area. Width() gives the width without building the waveform.
func (p Params) Metrics() waveform.GlitchMetrics {
	return waveform.MeasureGlitch(p.Template(0))
}

// Coupling summarizes one aggressor of a victim net.
type Coupling struct {
	Aggressor string // aggressor net name
	// Agg is the aggressor's net ID in the bound netlist, which the
	// engines index their per-net tables by; -1 when the parasitics couple
	// to a net the netlist does not have — nothing is known of when it
	// switches. Hand-built contexts, which no engine reads, leave it 0.
	Agg     netlist.NetID
	CoupleC float64 // total coupling capacitance to the victim, farads
	// WireRes is the victim-side wire resistance from the victim driver
	// to the (capacitance-weighted) coupling site.
	WireRes float64
	// AggWireDelay is the aggressor-side Elmore delay from the aggressor
	// driver to its coupling site: the aggressor's edge arrives at the
	// coupling capacitance this much after it leaves the driver.
	AggWireDelay float64
}

// Context is everything the analytical model needs about one victim net.
type Context struct {
	Victim  string
	HoldRes float64
	VictimC float64 // total cap incl. coupling
	// Couplings are sorted by aggressor net name.
	Couplings []Coupling
	// Receivers are the victim's load connections (where glitches are
	// checked against immunity curves).
	Receivers []netlist.ConnID
}

// CouplingTo finds a coupling entry by aggressor net name (repair loops
// call it per victim-aggressor pair).
func (c *Context) CouplingTo(net string) *Coupling {
	i := sort.Search(len(c.Couplings), func(i int) bool { return c.Couplings[i].Aggressor >= net })
	if i < len(c.Couplings) && c.Couplings[i].Aggressor == net {
		return &c.Couplings[i]
	}
	return nil
}

// BuildContext copies a victim's noise context out of the bound design:
// holding resistance from the driver cell, victim capacitance and the
// per-aggressor coupling groups (with their cap-weighted victim-side wire
// resistance) from the parasitics database.
func BuildContext(b *bind.Design, victim netlist.NetID) (*Context, error) {
	a, err := b.AnalysisOf(victim)
	if err != nil {
		return nil, err
	}
	groups := b.Couplings(victim)
	ctx := &Context{
		Victim:    b.Net.NetName(victim),
		HoldRes:   b.HoldRes(victim),
		VictimC:   a.TotalCap(),
		Couplings: make([]Coupling, len(groups)),
		Receivers: b.Net.Loads(victim),
	}
	for i, g := range groups {
		cpl := &ctx.Couplings[i]
		cpl.Agg, cpl.CoupleC, cpl.WireRes = netlist.NetID(g.Agg), g.C, g.WireRes
		if cpl.Agg < 0 {
			cpl.Aggressor = b.Stranger(victim, i)
			continue
		}
		cpl.Aggressor = b.Net.NetName(cpl.Agg)
		// Aggressor-side wire delay to its coupling site: the aggressor's
		// max Elmore is a conservative bound, the exact node not being
		// resolved on the aggressor network.
		if aggA, err := b.AnalysisOf(cpl.Agg); err == nil {
			cpl.AggWireDelay = aggA.MaxElmore()
		}
	}
	return ctx, nil
}

// ParamsFor assembles Params for one aggressor of the context.
func (c *Context) ParamsFor(cpl *Coupling, aggSlew, vdd float64) Params {
	return Params{
		HoldRes: c.HoldRes,
		WireRes: cpl.WireRes,
		CoupleC: cpl.CoupleC,
		VictimC: c.VictimC,
		AggSlew: aggSlew,
		Vdd:     vdd,
	}
}

// Filter drops aggressors whose coupling ratio C_x/C_v is below threshold,
// returning the kept couplings and the total dropped capacitance. The
// dropped capacitance can be re-injected as a virtual aggressor so the
// filter stays conservative. When nothing is dropped, kept is the context's
// own slice: callers must not modify it.
func (c *Context) Filter(threshold float64) (kept []Coupling, droppedCap float64) {
	keeps := func(x *Coupling) bool { return c.VictimC > 0 && x.CoupleC/c.VictimC >= threshold }
	first := 0
	for first < len(c.Couplings) && keeps(&c.Couplings[first]) {
		first++
	}
	if first == len(c.Couplings) {
		return c.Couplings, 0
	}
	kept = append(kept, c.Couplings[:first]...)
	for i := first; i < len(c.Couplings); i++ {
		if x := &c.Couplings[i]; keeps(x) {
			kept = append(kept, *x)
		} else {
			droppedCap += x.CoupleC
		}
	}
	return kept, droppedCap
}

// ClusterAggressor describes one aggressor's drive for golden simulation.
type ClusterAggressor struct {
	Coupling *Coupling
	Slew     float64 // edge transition time, seconds
	Start    float64 // edge start time, seconds
	Rise     bool    // rising edge (injects an upward victim glitch)
}

// BuildCluster assembles a ckt.Circuit of one victim and its switching
// aggressors for golden transient validation: the victim is a lumped C_v
// held through R_h+R_w to ground, each aggressor a Thévenin ramp source
// behind its drive resistance coupled through C_x. The victim node is named
// "victim". Quiet-low victims are modelled (rail symmetry makes the
// quiet-high case identical up to reflection).
func BuildCluster(ctx *Context, aggs []ClusterAggressor, aggDriveRes, vdd float64) (*ckt.Circuit, error) {
	c := ckt.New()
	groundedC := ctx.VictimC
	for _, a := range aggs {
		groundedC -= a.Coupling.CoupleC
	}
	if groundedC < 0 {
		return nil, fmt.Errorf("noise: coupling exceeds victim cap in cluster")
	}
	if err := c.AddR("victim", "0", ctx.HoldRes+avgWireRes(aggs)); err != nil {
		return nil, err
	}
	if groundedC > 0 {
		if err := c.AddC("victim", "0", groundedC); err != nil {
			return nil, err
		}
	}
	for i, a := range aggs {
		src := fmt.Sprintf("asrc%d", i)
		node := fmt.Sprintf("anode%d", i)
		v0, v1 := 0.0, vdd
		if !a.Rise {
			v0, v1 = vdd, 0
		}
		if err := c.AddV(src, src, waveform.SatRamp(a.Start, a.Slew, v0, v1)); err != nil {
			return nil, err
		}
		if err := c.AddR(src, node, aggDriveRes); err != nil {
			return nil, err
		}
		if err := c.AddC("victim", node, a.Coupling.CoupleC); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func avgWireRes(aggs []ClusterAggressor) float64 {
	if len(aggs) == 0 {
		return 0
	}
	var rw, cw float64
	for _, a := range aggs {
		rw += a.Coupling.WireRes * a.Coupling.CoupleC
		cw += a.Coupling.CoupleC
	}
	if cw == 0 {
		return 0
	}
	return rw / cw
}

// SimulateCluster runs the golden transient and returns the victim glitch
// metrics. The horizon extends past the last aggressor edge by several
// victim time constants.
func SimulateCluster(ctx *Context, aggs []ClusterAggressor, aggDriveRes, vdd float64) (waveform.GlitchMetrics, error) {
	c, err := BuildCluster(ctx, aggs, aggDriveRes, vdd)
	if err != nil {
		return waveform.GlitchMetrics{}, err
	}
	var tEnd float64
	for _, a := range aggs {
		if e := a.Start + a.Slew; e > tEnd {
			tEnd = e
		}
	}
	tau := (ctx.HoldRes + avgWireRes(aggs)) * ctx.VictimC
	horizon := tEnd + 6*tau + 10*units.Pico
	step := horizon / 4000
	res, err := c.Tran(step, horizon, []string{"victim"})
	if err != nil {
		return waveform.GlitchMetrics{}, err
	}
	w, err := res.Waveform("victim")
	if err != nil {
		return waveform.GlitchMetrics{}, err
	}
	return waveform.MeasureGlitch(w), nil
}
