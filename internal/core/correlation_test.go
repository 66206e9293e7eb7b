package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bind"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/sta"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestPolarityInvert(t *testing.T) {
	if polPos.invert() != polNeg || polNeg.invert() != polPos {
		t.Fatal("single-bit inversion wrong")
	}
	if polBoth.invert() != polBoth {
		t.Fatal("both must stay both")
	}
	if polarity(0).invert() != 0 {
		t.Fatal("empty polarity changed")
	}
}

// corrFixture: in -> BUF b1 -> p ; in -> INV i1 -> n ; p,n -> NAND2 g -> y.
func corrFixture(t *testing.T) *bind.Design {
	t.Helper()
	d := netlist.New("corr")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := d.AddPort("in", netlist.In)
	must(err)
	_, err = d.AddPort("out", netlist.Out)
	must(err)
	for _, g := range []struct{ inst, cell, in, out string }{
		{"b1", "BUF_X1", "in", "p"},
		{"i1", "INV_X1", "in", "n"},
	} {
		_, err = d.AddInst(g.inst, g.cell)
		must(err)
		must(d.Connect(g.inst, "A", g.in, netlist.In))
		must(d.Connect(g.inst, "Y", g.out, netlist.Out))
	}
	_, err = d.AddInst("g", "NAND2_X1")
	must(err)
	must(d.Connect("g", "A", "p", netlist.In))
	must(d.Connect("g", "B", "n", netlist.In))
	must(d.Connect("g", "Y", "out", netlist.Out))
	b, err := bind.New(d, liberty.Generic(), nil)
	must(err)
	return b
}

func TestBuildCorrelationsPolarities(t *testing.T) {
	b := corrFixture(t)
	corr := buildCorrelations(b)
	in := b.Net.FindPort("in")
	// Reconvergence: out sees in through both a double inversion (pos)
	// and a single inversion path (neg) -> both.
	for net, pol := range map[string]polarity{"in": polPos, "p": polPos, "n": polNeg, "out": polBoth} {
		if got, want := corr[b.Net.FindNet(net)], (source{kind: srcOne, pol: pol, port: in}); got != want {
			t.Fatalf("%s sources = %+v, want %+v", net, got, want)
		}
	}
}

func TestBuildCorrelationsLoopUnknown(t *testing.T) {
	d := netlist.New("loop")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := d.AddPort("in", netlist.In)
	must(err)
	for _, n := range []string{"g1", "g2"} {
		_, err = d.AddInst(n, "NAND2_X1")
		must(err)
	}
	must(d.Connect("g1", "A", "in", netlist.In))
	must(d.Connect("g1", "B", "q", netlist.In))
	must(d.Connect("g1", "Y", "pp", netlist.Out))
	must(d.Connect("g2", "A", "pp", netlist.In))
	must(d.Connect("g2", "B", "in", netlist.In))
	must(d.Connect("g2", "Y", "q", netlist.Out))
	b, err := bind.New(d, liberty.Generic(), nil)
	must(err)
	corr := buildCorrelations(b)
	if s := corr[b.Net.FindNet("pp")]; s.kind != srcUnknown {
		t.Fatalf("loop net pp sources = %+v, want unknown", s)
	}
}

func TestExclusiveEdges(t *testing.T) {
	one := func(port netlist.PortID, pol polarity) source { return source{kind: srcOne, pol: pol, port: port} }
	pos, neg, both, other := one(0, polPos), one(0, polNeg), one(0, polBoth), one(1, polPos)
	multi := source{kind: srcMany}

	if !exclusiveEdges(pos, neg, true, true) {
		t.Error("pos-rise vs neg-rise on one source must be exclusive")
	}
	if exclusiveEdges(pos, pos, true, true) {
		t.Error("same polarity same edge must be compatible")
	}
	if !exclusiveEdges(pos, pos, true, false) {
		t.Error("same polarity opposite edges must be exclusive")
	}
	if exclusiveEdges(pos, neg, true, false) {
		t.Error("pos-rise vs neg-fall both need the source to rise")
	}
	if exclusiveEdges(pos, both, true, true) {
		t.Error("both-polarity must never be excluded")
	}
	if exclusiveEdges(pos, other, true, true) {
		t.Error("different sources must be compatible")
	}
	if exclusiveEdges(multi, neg, true, true) {
		t.Error("multi-source nets must not be excluded")
	}
	if exclusiveEdges(source{}, neg, true, true) || exclusiveEdges(source{kind: srcNone}, neg, true, true) {
		t.Error("unknown sources must not be excluded")
	}
}

// TestSourceMerge pins the summary's algebra, unknown inputs included: a
// validated design never feeds a leveled gate one (everything downstream
// of a loop is feedback too), so the model test cannot reach them, yet
// unknown must absorb — many included.
func TestSourceMerge(t *testing.T) {
	one := func(port netlist.PortID, pol polarity) source { return source{kind: srcOne, pol: pol, port: port} }
	none, many, unknown := source{kind: srcNone}, source{kind: srcMany}, source{}
	pos, neg, non := liberty.PositiveUnate, liberty.NegativeUnate, liberty.NonUnate
	for i, c := range []struct {
		s, in source
		u     liberty.Unateness
		want  source
	}{
		{none, unknown, pos, unknown}, {many, unknown, pos, unknown}, {one(0, polPos), unknown, neg, unknown},
		{unknown, one(0, polPos), pos, unknown}, {unknown, none, pos, unknown},
		{none, many, pos, many}, {one(0, polPos), one(1, polPos), pos, many}, {many, none, neg, many},
		{none, none, neg, none}, {one(0, polNeg), none, pos, one(0, polNeg)},
		{none, one(0, polNeg), neg, one(0, polPos)}, {none, one(0, polPos), non, one(0, polBoth)},
		{one(0, polPos), one(0, polPos), neg, one(0, polBoth)}, {one(0, polNeg), one(0, polPos), neg, one(0, polNeg)},
	} {
		if got := c.s.merge(c.in, c.u); got != c.want {
			t.Errorf("case %d: %+v merge %+v through %v = %+v, want %+v", i, c.s, c.in, c.u, got, c.want)
		}
	}
}

func TestCorrelationEndToEnd(t *testing.T) {
	g, err := workload.Differential(workload.DifferentialSpec{Pairs: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Bind(liberty.Generic())
	if err != nil {
		t.Fatal(err)
	}
	run := func(corr bool) Combined {
		res, err := AnalyzeCtx(context.Background(), b, Options{
			Mode:             ModeNoiseWindows,
			LogicCorrelation: corr,
			STA:              g.STAOptions(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.NoiseOf("v").Comb[KindLow]
	}
	plain := run(false)
	corr := run(true)
	if len(plain.Members) != 4 {
		t.Fatalf("uncorrelated members = %v", plain.Members)
	}
	if len(corr.Members) != 2 {
		t.Fatalf("correlated members = %v", corr.Members)
	}
	// Exactly one branch per pair survives.
	seen := map[string]bool{}
	for _, m := range corr.Members {
		pair := m[1:] // p0/n0 -> "0"
		if seen[pair] {
			t.Fatalf("both branches of pair %s combined: %v", pair, corr.Members)
		}
		seen[pair] = true
	}
	if corr.Peak >= plain.Peak {
		t.Fatalf("correlation did not reduce peak: %g vs %g", corr.Peak, plain.Peak)
	}
}

func TestCorrelationConservative(t *testing.T) {
	// Correlation must never increase noise, on any workload.
	b := busFixture(t, 3, 4*units.Femto, 8*units.Femto)
	inputs := staggeredInputs(3, 0, 60*units.Pico)
	plain := analyze(t, b, Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}})
	corr := analyze(t, b, Options{Mode: ModeNoiseWindows, LogicCorrelation: true, STA: sta.Options{InputTiming: inputs}})
	if corr.TotalNoise() > plain.TotalNoise()+1e-9 {
		t.Fatalf("correlation increased noise: %g vs %g", corr.TotalNoise(), plain.TotalNoise())
	}
	// Independent inputs here: correlation must change nothing.
	if corr.TotalNoise() < plain.TotalNoise()-1e-9 {
		t.Fatalf("correlation removed noise between independent aggressors")
	}
}

// TestCorrelationSummaryMatchesModel holds the per-net summary to the model
// it replaced — every input a net depends on, with the parities of its
// paths, kept below as the reference — on seeded random designs with
// complementary pairs, negative- and non-unate arcs, reconvergence,
// feedback, self-loops and open inputs: for every pair of nets and every
// pair of edges, both say the same about exclusion.
func TestCorrelationSummaryMatchesModel(t *testing.T) {
	cells := []string{"BUF_X1", "INV_X1", "NAND2_X1", "NOR2_X1", "AND2_X1", "OR2_X1", "XOR2_X1"}
	// seen counts the summaries met, and the exclusive pairs (index
	// srcMany+1) and the mixed-parity ones (srcMany+2): a run that never
	// meets one of them proves nothing about it.
	var seen [srcMany + 3]int
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := netlist.New("model")
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		var nets []string
		for i := 0; i < 1+rng.Intn(3); i++ {
			port := fmt.Sprintf("in%d", i)
			_, err := d.AddPort(port, netlist.In)
			must(err)
			nets = append(nets, port)
		}
		// gate adds one instance of cell reading ins, driving the next net.
		gate := func(cell string, ins ...string) {
			inst, out := fmt.Sprintf("g%d", len(nets)), fmt.Sprintf("n%d", len(nets))
			_, err := d.AddInst(inst, cell)
			must(err)
			switch {
			case rng.Intn(12) == 0:
				ins = nil // inputs left open: the output depends on none
			case cell == "BUF_X1" || cell == "INV_X1":
				ins = ins[:1]
			}
			for i, in := range ins {
				must(d.Connect(inst, string(rune('A'+i)), in, netlist.In))
			}
			must(d.Connect(inst, "Y", out, netlist.Out))
			nets = append(nets, out)
		}
		// pick is a net to read: one made so far, or now and then one a
		// gate yet to come drives (feedback, or a self-loop).
		size := 6 + rng.Intn(14)
		pick := func() string {
			if rng.Intn(10) == 0 && len(nets) < size {
				return fmt.Sprintf("n%d", len(nets)+rng.Intn(size-len(nets)))
			}
			return nets[rng.Intn(len(nets))]
		}
		for len(nets) < size {
			if rng.Intn(4) == 0 {
				src := pick() // a complementary pair
				gate("BUF_X1", src)
				gate("INV_X1", src)
				continue
			}
			gate(cells[rng.Intn(len(cells))], pick(), pick())
		}
		b, err := bind.New(d, liberty.Generic(), nil)
		must(err)
		ref, sum := refBuildCorrelations(b), buildCorrelations(b)
		ids := d.Nets()
		for _, x := range ids {
			if seen[sum[x].kind]++; sum[x].pol == polBoth {
				seen[srcMany+2]++
			}
			for _, y := range ids {
				for _, edges := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
					want := refExclusiveEdges(ref[d.NetName(x)], ref[d.NetName(y)], edges[0], edges[1])
					if want {
						seen[srcMany+1]++
					}
					if got := exclusiveEdges(sum[x], sum[y], edges[0], edges[1]); got != want {
						t.Fatalf("seed %d: %s %v / %s %v: exclusive %v, the model says %v (summaries %+v, %+v; model %v, %v)",
							seed, d.NetName(x), edges[0], d.NetName(y), edges[1], got, want, sum[x], sum[y], ref[d.NetName(x)], ref[d.NetName(y)])
					}
				}
			}
		}
	}
	for what, n := range seen {
		if n == 0 {
			t.Errorf("the designs never met case %d (unknown, none, one, many, exclusive, mixed parity): %v", what, seen)
		}
	}
}

// refSources is the model's record of a net's dependence on primary
// inputs: port name → polarity; nil means unknown.
type refSources map[string]polarity

// refBuildCorrelations is the model: every net's full dependence, by net
// name, by one pass over the levelized netlist.
func refBuildCorrelations(b *bind.Design) map[string]refSources {
	d := b.Net
	out := make(map[string]refSources, d.NumNets())
	for _, p := range d.Ports() {
		if d.Port(p).Dir == netlist.In {
			out[d.PortName(p)] = refSources{d.PortName(p): polPos}
		}
	}
	netName := func(c netlist.ConnID) string { return d.NetName(d.Conn(c).Net) }
	lev := d.Levelize()
	for _, inst := range lev.Ordered() {
		cell := b.Cell(inst)
		for _, oc := range d.Outputs(inst) {
			merged := refSources{}
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
	for _, inst := range lev.Feedback {
		for _, oc := range d.Outputs(inst) {
			out[netName(oc)] = nil
		}
	}
	return out
}

// refExclusiveEdges is the model's exclusion test.
func refExclusiveEdges(sA, sB refSources, riseA, riseB bool) bool {
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
	reqA := riseA == (polA == polPos)
	reqB := riseB == (polB == polPos)
	return reqA != reqB
}
