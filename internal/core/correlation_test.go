package core

import (
	"context"
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
	if got := corr["in"]; len(got) != 1 || got["in"] != polPos {
		t.Fatalf("in sources = %v", got)
	}
	if got := corr["p"]; len(got) != 1 || got["in"] != polPos {
		t.Fatalf("p sources = %v", got)
	}
	if got := corr["n"]; len(got) != 1 || got["in"] != polNeg {
		t.Fatalf("n sources = %v", got)
	}
	// Reconvergence: out sees in through both a double inversion (pos)
	// and a single inversion path (neg) -> both.
	if got := corr["out"]; len(got) != 1 || got["in"] != polBoth {
		t.Fatalf("out sources = %v", got)
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
	if s, ok := corr["pp"]; !ok || s != nil {
		t.Fatalf("loop net pp sources = %v (present=%v), want nil entry", s, ok)
	}
}

func TestExclusiveEdges(t *testing.T) {
	pos := sourceMap{"in": polPos}
	neg := sourceMap{"in": polNeg}
	both := sourceMap{"in": polBoth}
	other := sourceMap{"other": polPos}
	multi := sourceMap{"in": polPos, "x": polPos}

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
	if exclusiveEdges(nil, neg, true, true) {
		t.Error("unknown sources must not be excluded")
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
