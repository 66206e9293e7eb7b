package noise

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bind"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/spef"
	"repro/internal/units"
)

// genericCell resolves a cell from the generic library, failing the test
// when it is missing.
func genericCell(t *testing.T, name string) *liberty.Cell {
	t.Helper()
	c, err := liberty.Generic().ResolveCell("", name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func baseParams() Params {
	return Params{
		HoldRes: 3000,
		WireRes: 200,
		CoupleC: 4 * units.Femto,
		VictimC: 20 * units.Femto,
		AggSlew: 40 * units.Pico,
		Vdd:     1.2,
	}
}

func TestParamsValidate(t *testing.T) {
	p := baseParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := p
	bad.HoldRes = 0
	if bad.Validate() == nil {
		t.Error("zero hold resistance accepted")
	}
	bad = p
	bad.CoupleC = p.VictimC * 2
	if bad.Validate() == nil {
		t.Error("coupling above victim cap accepted")
	}
	bad = p
	bad.AggSlew = -1
	if bad.Validate() == nil {
		t.Error("negative slew accepted")
	}
}

func TestPeakLimits(t *testing.T) {
	p := baseParams()
	// Fast-edge limit: charge sharing Vdd·Cx/Cv.
	p.AggSlew = 0
	chargeShare := p.Vdd * p.CoupleC / p.VictimC
	if got := p.Peak(); math.Abs(got-chargeShare) > 1e-12 {
		t.Fatalf("fast-edge peak = %g, want %g", got, chargeShare)
	}
	// Slow edge: peak well below charge sharing.
	p.AggSlew = 100 * p.Tau()
	if got := p.Peak(); got > 0.05*chargeShare {
		t.Fatalf("slow-edge peak = %g, want << %g", got, chargeShare)
	}
}

func TestPeakMonotoneInSlew(t *testing.T) {
	p := baseParams()
	prev := math.Inf(1)
	for _, s := range []float64{1e-12, 1e-11, 5e-11, 2e-10, 1e-9} {
		p.AggSlew = s
		pk := p.Peak()
		if pk > prev+1e-15 {
			t.Fatalf("peak increased with slower edge at %g", s)
		}
		prev = pk
	}
}

func TestDevganBoundDominatesPeak(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := Params{
			HoldRes: 100 + r.Float64()*10000,
			WireRes: r.Float64() * 1000,
			VictimC: (1 + r.Float64()*50) * units.Femto,
			AggSlew: r.Float64() * 500 * units.Pico,
			Vdd:     1.2,
		}
		p.CoupleC = p.VictimC * r.Float64()
		return p.DevganBound() >= p.Peak()-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPeakVsGoldenSimulation(t *testing.T) {
	// The dominant-pole model against the MNA simulator on a single
	// aggressor cluster. The model lumps the victim while the simulator
	// places the coupling behind the aggressor's drive resistance, so we
	// allow a modest conservative-side tolerance but demand the shape.
	ctx := &Context{
		Victim:  "v",
		HoldRes: 3000,
		VictimC: 20 * units.Femto,
		Couplings: []Coupling{
			{Aggressor: "a", CoupleC: 4 * units.Femto},
		},
	}
	slew := 40 * units.Pico
	p := ctx.ParamsFor(&ctx.Couplings[0], slew, 1.2)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	analytic := p.Peak()
	m, err := SimulateCluster(ctx, []ClusterAggressor{
		{Coupling: &ctx.Couplings[0], Slew: slew, Start: 0, Rise: true},
	}, 1, 1.2) // near-ideal aggressor driver for a clean comparison
	if err != nil {
		t.Fatal(err)
	}
	if m.Peak <= 0 {
		t.Fatalf("simulated peak = %g", m.Peak)
	}
	if units.RelErr(analytic, m.Peak, 1e-3) > 0.15 {
		t.Fatalf("analytic %g vs simulated %g: error too large", analytic, m.Peak)
	}
	// The analytical model is meant to be conservative (≥ golden).
	if analytic < m.Peak*0.98 {
		t.Fatalf("analytic %g below simulated %g", analytic, m.Peak)
	}
}

func TestTemplateMetrics(t *testing.T) {
	p := baseParams()
	m := p.Metrics()
	if math.Abs(m.Peak-p.Peak()) > 1e-12 {
		t.Fatalf("template peak %g != model %g", m.Peak, p.Peak())
	}
	if m.Width <= 0 || m.Area <= 0 {
		t.Fatalf("metrics = %+v", m)
	}
	// Width scales with tau: doubling resistance roughly doubles width.
	p2 := p
	p2.HoldRes *= 2
	if w2 := p2.Metrics().Width; w2 <= m.Width {
		t.Fatalf("width %g did not grow with tau (was %g)", w2, m.Width)
	}
}

func TestFilter(t *testing.T) {
	ctx := &Context{
		VictimC: 100 * units.Femto,
		Couplings: []Coupling{
			{Aggressor: "big", CoupleC: 20 * units.Femto},
			{Aggressor: "mid", CoupleC: 5 * units.Femto},
			{Aggressor: "small", CoupleC: 1 * units.Femto},
		},
	}
	kept, dropped := ctx.Filter(0.04)
	if len(kept) != 2 {
		t.Fatalf("kept = %v", kept)
	}
	if math.Abs(dropped-1*units.Femto) > 1e-21 {
		t.Fatalf("dropped = %g", dropped)
	}
	// Zero threshold keeps everything.
	kept, dropped = ctx.Filter(0)
	if len(kept) != 3 || dropped != 0 {
		t.Fatalf("zero threshold: kept %d dropped %g", len(kept), dropped)
	}
}

func TestContextHelpers(t *testing.T) {
	ctx := &Context{
		Couplings: []Coupling{
			{Aggressor: "a", CoupleC: 1e-15},
			{Aggressor: "b", CoupleC: 2e-15},
		},
	}
	if ctx.CouplingTo("b") == nil || ctx.CouplingTo("zz") != nil {
		t.Fatal("CouplingTo lookup broken")
	}
}

const busSpef = `*SPEF "x"
*DESIGN "bus"
*D_NET v 8.0e-15
*CONN
*I dv:Y O
*I rv:A I
*CAP
1 v:1 2.0e-15
2 v:1 a0:1 3.0e-15
3 v:2 a1:1 1.0e-15
4 v:2 2.0e-15
*RES
1 dv:Y v:1 100
2 v:1 v:2 150
3 v:2 rv:A 50
*END
*D_NET a0 4.0e-15
*CONN
*I da0:Y O
*I ra0:A I
*CAP
1 a0:1 4.0e-15
*RES
1 da0:Y a0:1 120
2 a0:1 ra0:A 60
*END
*D_NET a1 4.0e-15
*CONN
*I da1:Y O
*I ra1:A I
*CAP
1 a1:1 4.0e-15
*RES
1 da1:Y a1:1 120
2 a1:1 ra1:A 60
*END
`

func buildBusDesign(t testing.TB) *bind.Design {
	t.Helper()
	d := netlist.New("bus")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	nets := []string{"v", "a0", "a1"}
	for _, n := range nets {
		_, err := d.AddPort("i_"+n, netlist.In)
		must(err)
		_, err = d.AddInst("d"+n, "INV_X1")
		must(err)
		_, err = d.AddInst("r"+n, "INV_X1")
		must(err)
		must(d.Connect("d"+n, "A", "i_"+n, netlist.In))
		must(d.Connect("d"+n, "Y", n, netlist.Out))
		must(d.Connect("r"+n, "A", n, netlist.In))
		must(d.Connect("r"+n, "Y", "o_"+n, netlist.Out))
	}
	p, err := spef.Parse(strings.NewReader(busSpef))
	must(err)
	b, err := bind.New(d, liberty.Generic(), p)
	must(err)
	return b
}

func TestBuildContextFromDesign(t *testing.T) {
	b := buildBusDesign(t)
	ctx, err := BuildContext(b, b.Net.FindNet("v"))
	if err != nil {
		t.Fatal(err)
	}
	if ctx.HoldRes != genericCell(t, "INV_X1").HoldRes {
		t.Fatalf("HoldRes = %g", ctx.HoldRes)
	}
	if len(ctx.Couplings) != 2 {
		t.Fatalf("couplings = %+v", ctx.Couplings)
	}
	// Sorted by aggressor name.
	if ctx.Couplings[0].Aggressor != "a0" || ctx.Couplings[1].Aggressor != "a1" {
		t.Fatalf("order = %+v", ctx.Couplings)
	}
	if math.Abs(ctx.Couplings[0].CoupleC-3e-15) > 1e-24 {
		t.Fatalf("a0 coupling = %g", ctx.Couplings[0].CoupleC)
	}
	// a0 couples at v:1 (100 Ω from driver), a1 at v:2 (250 Ω).
	if math.Abs(ctx.Couplings[0].WireRes-100) > 1e-9 {
		t.Fatalf("a0 wire res = %g", ctx.Couplings[0].WireRes)
	}
	if math.Abs(ctx.Couplings[1].WireRes-250) > 1e-9 {
		t.Fatalf("a1 wire res = %g", ctx.Couplings[1].WireRes)
	}
	if ctx.Couplings[0].AggWireDelay <= 0 {
		t.Fatal("aggressor wire delay missing")
	}
	if len(ctx.Receivers) != 1 {
		t.Fatalf("receivers = %d", len(ctx.Receivers))
	}
	// Victim cap: wire 4fF + coupling 4fF + receiver pin cap.
	pinCap := genericCell(t, "INV_X1").Pin("A").Cap
	want := 4e-15 + 4e-15 + pinCap
	if math.Abs(ctx.VictimC-want) > 1e-22 {
		t.Fatalf("VictimC = %g, want %g", ctx.VictimC, want)
	}
}

func TestTwoAggressorSuperposition(t *testing.T) {
	// Simultaneous aggressors superpose approximately linearly in the
	// golden simulation.
	ctx := &Context{
		Victim:  "v",
		HoldRes: 3000,
		VictimC: 30 * units.Femto,
		Couplings: []Coupling{
			{Aggressor: "a", CoupleC: 3 * units.Femto},
			{Aggressor: "b", CoupleC: 3 * units.Femto},
		},
	}
	slew := 40 * units.Pico
	one, err := SimulateCluster(ctx, []ClusterAggressor{
		{Coupling: &ctx.Couplings[0], Slew: slew, Rise: true},
	}, 1, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	both, err := SimulateCluster(ctx, []ClusterAggressor{
		{Coupling: &ctx.Couplings[0], Slew: slew, Rise: true},
		{Coupling: &ctx.Couplings[1], Slew: slew, Rise: true},
	}, 1, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if units.RelErr(both.Peak, 2*one.Peak, 1e-3) > 0.05 {
		t.Fatalf("superposition: both %g vs 2x one %g", both.Peak, 2*one.Peak)
	}
	// Misaligned aggressors produce a smaller combined peak.
	apart, err := SimulateCluster(ctx, []ClusterAggressor{
		{Coupling: &ctx.Couplings[0], Slew: slew, Rise: true},
		{Coupling: &ctx.Couplings[1], Slew: slew, Start: 500 * units.Pico, Rise: true},
	}, 1, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if !(apart.Peak < both.Peak*0.7) {
		t.Fatalf("misaligned peak %g not much below aligned %g", apart.Peak, both.Peak)
	}
}

func TestBuildClusterRejectsOverCoupling(t *testing.T) {
	ctx := &Context{
		HoldRes: 1000,
		VictimC: 1 * units.Femto,
		Couplings: []Coupling{
			{Aggressor: "a", CoupleC: 2 * units.Femto},
		},
	}
	_, err := BuildCluster(ctx, []ClusterAggressor{
		{Coupling: &ctx.Couplings[0], Slew: 1e-11, Rise: true},
	}, 100, 1.2)
	if err == nil {
		t.Fatal("over-coupled cluster accepted")
	}
}

func TestFallingAggressorNegativeGlitch(t *testing.T) {
	ctx := &Context{
		Victim:  "v",
		HoldRes: 3000,
		VictimC: 20 * units.Femto,
		Couplings: []Coupling{
			{Aggressor: "a", CoupleC: 4 * units.Femto},
		},
	}
	m, err := SimulateCluster(ctx, []ClusterAggressor{
		{Coupling: &ctx.Couplings[0], Slew: 40 * units.Pico, Rise: false},
	}, 1, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Peak >= 0 {
		t.Fatalf("falling aggressor produced non-negative peak %g", m.Peak)
	}
}

func TestClosedFormWidthMatchesTemplate(t *testing.T) {
	// The closed form must agree with the sampled template's measured
	// width to within PWL interpolation error across the regime sweep.
	for _, rh := range []float64{500, 3000, 10000} {
		for _, slew := range []float64{5e-12, 20e-12, 80e-12, 300e-12} {
			p := Params{
				HoldRes: rh,
				CoupleC: 3 * units.Femto,
				VictimC: 15 * units.Femto,
				AggSlew: slew,
				Vdd:     1.2,
			}
			closed := p.Width()
			sampled := p.Metrics().Width
			// 5%: the template's fixed 10-point rise undersamples very
			// fast initial charging when τ << slew; the closed form is
			// the exact value.
			if units.RelErr(closed, sampled, 1e-13) > 0.05 {
				t.Errorf("rh=%g slew=%g: closed %g vs sampled %g", rh, slew, closed, sampled)
			}
		}
	}
}

func TestWidthMonotoneInSlew(t *testing.T) {
	p := baseParams()
	prev := 0.0
	for _, s := range []float64{1e-12, 1e-11, 5e-11, 2e-10} {
		p.AggSlew = s
		w := p.Width()
		if w <= prev {
			t.Fatalf("width not increasing with slew at %g", s)
		}
		prev = w
	}
}

// TestBuildContextAllocations: a context is a copy out of the parasitics
// database — the Context and its Couplings, nothing per coupling.
func TestBuildContextAllocations(t *testing.T) {
	b := buildBusDesign(t)
	v := b.Net.FindNet("v")
	if n := testing.AllocsPerRun(100, func() {
		if ctx, err := BuildContext(b, v); err != nil || len(ctx.Couplings) != 2 {
			t.Fatalf("context %+v, error %v", ctx, err)
		}
	}); n > 2 {
		t.Fatalf("BuildContext: %v allocations, want ≤ 2", n)
	}
}
