package workload

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/liberty"
	"repro/internal/spef"
	"repro/internal/units"
)

func TestBusGeneratesValidDesign(t *testing.T) {
	g, err := Bus(BusSpec{Bits: 4, Segs: 2, WindowSep: 50 * units.Pico})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Design.Validate(); err != nil {
		t.Fatal(err)
	}
	// 4 lines × (driver + receiver + output buffer).
	if got := g.Design.NumInsts(); got != 12 {
		t.Fatalf("insts = %d", got)
	}
	if got := g.Paras.NumNets(); got != 4 {
		t.Fatalf("parasitic nets = %d", got)
	}
	if len(g.Inputs) != 4 {
		t.Fatalf("inputs = %d", len(g.Inputs))
	}
	if _, err := g.Bind(liberty.Generic()); err != nil {
		t.Fatal(err)
	}
}

func TestBusCouplingTopology(t *testing.T) {
	g, err := Bus(BusSpec{Bits: 4, Segs: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Edge line couples one way, middle lines both ways.
	_, m0 := couplings(g.Paras, "b0")
	_, m1 := couplings(g.Paras, "b1")
	if len(m0) != 1 || m0["b1"] == 0 {
		t.Fatalf("b0 couplings = %v", m0)
	}
	if len(m1) != 2 || m1["b0"] == 0 || m1["b2"] == 0 {
		t.Fatalf("b1 couplings = %v", m1)
	}
	// Reciprocity: b0→b1 equals b1→b0.
	if m0["b1"] != m1["b0"] {
		t.Fatalf("asymmetric coupling: %g vs %g", m0["b1"], m1["b0"])
	}
}

func TestBusWindowsStagger(t *testing.T) {
	g, err := Bus(BusSpec{Bits: 3, WindowSep: 100 * units.Pico, WindowWidth: 40 * units.Pico})
	if err != nil {
		t.Fatal(err)
	}
	w0 := g.Inputs["in0"].Rise
	w2 := g.Inputs["in2"].Rise
	if !slices.Equal(w0.Windows(), []interval.Window{interval.New(0, 40*units.Pico)}) {
		t.Fatalf("w0 = %v", w0)
	}
	if !slices.Equal(w2.Windows(), []interval.Window{interval.New(200*units.Pico, 240*units.Pico)}) {
		t.Fatalf("w2 = %v", w2)
	}
}

func TestBusRandomWindowsDeterministic(t *testing.T) {
	a, err := Bus(BusSpec{Bits: 4, RandomWindows: true, WindowSep: 100 * units.Pico, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bus(BusSpec{Bits: 4, RandomWindows: true, WindowSep: 100 * units.Pico, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.Inputs {
		if !slices.Equal(a.Inputs[k].Rise.Windows(), b.Inputs[k].Rise.Windows()) {
			t.Fatalf("seeded windows differ for %s", k)
		}
	}
	c, err := Bus(BusSpec{Bits: 4, RandomWindows: true, WindowSep: 100 * units.Pico, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for k := range a.Inputs {
		if !slices.Equal(a.Inputs[k].Rise.Windows(), c.Inputs[k].Rise.Windows()) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical windows")
	}
}

func TestBusSpecValidation(t *testing.T) {
	if _, err := Bus(BusSpec{Bits: 1}); err == nil {
		t.Fatal("1-bit bus accepted")
	}
}

func TestBusEndToEndAnalysis(t *testing.T) {
	g, err := Bus(BusSpec{Bits: 8, Segs: 2, WindowSep: 500 * units.Pico, WindowWidth: 60 * units.Pico})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Bind(liberty.Generic())
	if err != nil {
		t.Fatal(err)
	}
	resA, err := core.AnalyzeCtx(context.Background(), b, core.Options{Mode: core.ModeAllAggressors, STA: g.STAOptions()})
	if err != nil {
		t.Fatal(err)
	}
	resC, err := core.AnalyzeCtx(context.Background(), b, core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions()})
	if err != nil {
		t.Fatal(err)
	}
	mid := MiddleBusNet(8)
	pA := resA.NoiseOf(mid).WorstPeak()
	pC := resC.NoiseOf(mid).WorstPeak()
	if pA <= 0 || pC <= 0 {
		t.Fatalf("peaks A=%g C=%g", pA, pC)
	}
	if pC > pA {
		t.Fatalf("windowed analysis noisier than pessimistic: %g > %g", pC, pA)
	}
	// With 500 ps separation the two neighbours of the middle line can
	// never align; the windowed peak must be strictly smaller.
	if pC > 0.75*pA {
		t.Fatalf("expected clear pessimism reduction: A=%g C=%g", pA, pC)
	}
}

func TestFabricGeneratesValidDesign(t *testing.T) {
	g, err := Fabric(FabricSpec{Width: 6, Levels: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Design.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := g.Bind(liberty.Generic())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.AnalyzeCtx(context.Background(), b, core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Victims == 0 || res.Stats.AggressorPairs == 0 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	if !res.Stats.Converged {
		t.Fatal("fabric analysis did not converge")
	}
}

func TestFabricDeterministicBySeed(t *testing.T) {
	a, err := Fabric(FabricSpec{Width: 5, Levels: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fabric(FabricSpec{Width: 5, Levels: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if a.Design.NumInsts() != b.Design.NumInsts() || a.Design.NumNets() != b.Design.NumNets() {
		t.Fatal("same seed produced different structure")
	}
	for _, inst := range a.Design.Insts() {
		name := a.Design.InstName(inst)
		other := b.Design.FindInst(name)
		if other < 0 || b.Design.CellName(other) != a.Design.CellName(inst) {
			t.Fatalf("instance %s differs", name)
		}
	}
}

func TestFabricSpecValidation(t *testing.T) {
	if _, err := Fabric(FabricSpec{Width: 1, Levels: 1}); err == nil {
		t.Fatal("width 1 accepted")
	}
	if _, err := Fabric(FabricSpec{Width: 3, Levels: 0}); err == nil {
		t.Fatal("0 levels accepted")
	}
}

func TestChainPropagatesGlitch(t *testing.T) {
	g, err := Chain(ChainSpec{Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Design.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := g.Bind(liberty.Generic())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.AnalyzeCtx(context.Background(), b, core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions()})
	if err != nil {
		t.Fatal(err)
	}
	// v0 is attacked directly.
	v0 := res.NoiseOf("v0").WorstPeak()
	if v0 <= 0.3 {
		t.Fatalf("v0 peak = %g, want strong glitch", v0)
	}
	// The first stage carries an attenuated copy; deeper stages only get
	// weaker (typically dying out once the glitch falls below the
	// propagation threshold — that extinction is the correct physics).
	v1 := res.NoiseOf("v1").WorstPeak()
	if v1 <= 0 || v1 >= v0 {
		t.Fatalf("v1 peak %g, want in (0, %g)", v1, v0)
	}
	prev := v1
	for _, net := range []string{"v2", "v3"} {
		p := res.NoiseOf(net).WorstPeak()
		if p > prev {
			t.Fatalf("%s peak %g grew from %g", net, p, prev)
		}
		prev = p
	}
	// Windows widen (delay spread) and shift later down the chain.
	w0 := res.NoiseOf("v0").Comb[core.KindLow].Window
	var w1 interval.Window
	n1 := res.NoiseOf("v1")
	for _, k := range core.Kinds {
		if n1.Comb[k].Peak > 0 {
			w1 = n1.Comb[k].Window
		}
	}
	if w1.IsEmpty() {
		t.Fatal("v1 carries no windowed noise")
	}
	if !(w1.Lo > w0.Lo) {
		t.Fatalf("v1 window %v not delayed after v0 %v", w1, w0)
	}
}

func TestChainSpecValidation(t *testing.T) {
	if _, err := Chain(ChainSpec{Depth: 0}); err == nil {
		t.Fatal("0-depth chain accepted")
	}
}

func TestBusShielding(t *testing.T) {
	// Full shielding (every line) eliminates all coupling; the grounded
	// replacement keeps total net capacitance unchanged.
	open, err := Bus(BusSpec{Bits: 4, Segs: 2})
	if err != nil {
		t.Fatal(err)
	}
	closed, err := Bus(BusSpec{Bits: 4, Segs: 2, ShieldEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		name := busNet(i)
		og, oc := couplings(open.Paras, name)
		cg, cc := couplings(closed.Paras, name)
		if len(cc) != 0 {
			t.Fatalf("%s still couples %v with full shielding", name, cc)
		}
		totOpen, totClosed := og, cg
		for _, f := range oc {
			totOpen += f
		}
		if math.Abs(totOpen-totClosed) > 1e-9*totOpen {
			t.Fatalf("%s total cap changed: %g vs %g", name, totOpen, totClosed)
		}
	}
}

func TestBusPartialShielding(t *testing.T) {
	// ShieldEvery=2 on 4 bits: shields after lines b1 and b3, so the
	// b1|b2 gap is shielded while b0|b1 and b2|b3 still couple.
	g, err := Bus(BusSpec{Bits: 4, Segs: 1, ShieldEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, m1 := couplings(g.Paras, "b1")
	if _, has := m1["b2"]; has {
		t.Fatalf("b1-b2 not shielded: %v", m1)
	}
	if _, has := m1["b0"]; !has {
		t.Fatalf("b0-b1 wrongly shielded: %v", m1)
	}
	_, m2 := couplings(g.Paras, "b2")
	if _, has := m2["b3"]; !has {
		t.Fatalf("b2-b3 wrongly shielded: %v", m2)
	}
}

func TestShieldingReducesNoise(t *testing.T) {
	run := func(every int) float64 {
		g, err := Bus(BusSpec{Bits: 8, Segs: 2, CoupleC: 6 * units.Femto, ShieldEvery: every})
		if err != nil {
			t.Fatal(err)
		}
		b, err := g.Bind(liberty.Generic())
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.AnalyzeCtx(context.Background(), b, core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions()})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalNoise()
	}
	unshielded := run(0)
	half := run(2)
	full := run(1)
	if !(full < half && half < unshielded) {
		t.Fatalf("shielding not monotone: none=%g every2=%g every1=%g", unshielded, half, full)
	}
	if full != 0 {
		t.Fatalf("fully shielded bus still has %g noise", full)
	}
}

func TestDifferentialGeneratesValidDesign(t *testing.T) {
	g, err := Differential(DifferentialSpec{Pairs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Design.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Bind(liberty.Generic()); err != nil {
		t.Fatal(err)
	}
	// Victim sees 4 aggressor couplings.
	if _, v := couplings(g.Paras, "v"); len(v) != 4 {
		t.Fatalf("victim couplings = %v", v)
	}
	// Each branch section reciprocates.
	for _, n := range []string{"p0", "n0", "p1", "n1"} {
		if _, m := couplings(g.Paras, n); m["v"] == 0 {
			t.Fatalf("branch %s does not couple back to v", n)
		}
	}
}

func TestDifferentialRejectsEmpty(t *testing.T) {
	if _, err := Differential(DifferentialSpec{}); err == nil {
		t.Fatal("0-pair spec accepted")
	}
}

// couplings reads net name's grounded capacitance and its coupling
// capacitance summed per partner net from the store, as bind does.
func couplings(p *spef.Parasitics, name string) (ground float64, byNet map[string]float64) {
	byNet = map[string]float64{}
	i := 0
	for p.NetName(i) != name {
		i++
	}
	v := p.View(i)
	for _, c := range v.Caps {
		if c.Partner < 0 {
			ground += c.F
		} else {
			byNet[p.Name(c.Partner)] += c.F
		}
	}
	return ground, byNet
}
