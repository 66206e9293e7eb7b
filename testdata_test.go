package repro

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/liberty"
	"repro/internal/lint"
	"repro/internal/netlist"
	"repro/internal/spef"
	"repro/internal/sta"
	"repro/internal/vlog"
)

// The files under testdata/ are the checked-in sample inputs the README
// points users at; these tests pin their parseability and the end-to-end
// result they produce, so format changes that would break shipped samples
// fail loudly.

func open(t *testing.T, name string) *os.File {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestTestdataNetFlow(t *testing.T) {
	d, err := netlist.Parse(open(t, "bus4.net"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := spef.Parse(open(t, "bus4.spef"))
	if err != nil {
		t.Fatal(err)
	}
	in, err := sta.ParseInputTiming(open(t, "bus4.win"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := bind.New(d, liberty.Generic(), p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.AnalyzeCtx(context.Background(), b, core.Options{
		Mode: core.ModeNoiseWindows,
		STA:  sta.Options{InputTiming: in},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.AggressorPairs != 6 {
		t.Fatalf("couplings = %d, want 6 (4-bit bus, both directions)", res.Stats.AggressorPairs)
	}
	if !res.Stats.Converged {
		t.Fatal("did not converge")
	}
	// Mid lines are attacked from both sides but windows are staggered
	// 500 ps apart: essentially one aggressor at a time (a small tent-tail
	// graze is allowed; the full two-aggressor sum is not).
	nn := res.NoiseOf("b1")
	if nn == nil || nn.WorstPeak() <= 0 {
		t.Fatalf("b1 noise missing: %+v", nn)
	}
	for _, k := range core.Kinds {
		var maxEvent, fullSum float64
		for _, e := range nn.Events[k] {
			fullSum += e.Peak
			if e.Peak > maxEvent {
				maxEvent = e.Peak
			}
		}
		comb := nn.Comb[k].Peak
		if comb > 1.5*maxEvent {
			t.Fatalf("staggered victim combined %g vs single aggressor %g", comb, maxEvent)
		}
		if comb > 0.9*fullSum {
			t.Fatalf("staggered victim near the pessimistic sum: %g vs %g", comb, fullSum)
		}
	}
}

func TestTestdataVerilogMatchesNet(t *testing.T) {
	lib := liberty.Generic()
	dNet, err := netlist.Parse(open(t, "bus4.net"))
	if err != nil {
		t.Fatal(err)
	}
	dV, err := vlog.Parse(open(t, "bus4.v"), lib)
	if err != nil {
		t.Fatal(err)
	}
	if dNet.NumInsts() != dV.NumInsts() || dNet.NumNets() != dV.NumNets() || len(dNet.Ports()) != len(dV.Ports()) {
		t.Fatalf("formats disagree: net %d/%d/%d vs verilog %d/%d/%d",
			dNet.NumInsts(), dNet.NumNets(), len(dNet.Ports()),
			dV.NumInsts(), dV.NumNets(), len(dV.Ports()))
	}
	for _, inst := range dNet.Insts() {
		other := dV.FindInst(dNet.InstName(inst))
		if other < 0 || dV.CellName(other) != dNet.CellName(inst) {
			t.Fatalf("instance %s differs between formats", dNet.InstName(inst))
		}
	}
}

// TestTestdataLintsClean pins the shipped sample inputs against the lint
// pass: the files the README points users at must never trip an
// error-severity rule (in either netlist format).
func TestTestdataLintsClean(t *testing.T) {
	lib := liberty.Generic()
	p, err := spef.Parse(open(t, "bus4.spef"))
	if err != nil {
		t.Fatal(err)
	}
	in, err := sta.ParseInputTiming(open(t, "bus4.win"))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"bus4.net", "bus4.v"} {
		var d *netlist.Design
		if filepath.Ext(src) == ".v" {
			d, err = vlog.Parse(open(t, src), lib)
		} else {
			d, err = netlist.Parse(open(t, src))
		}
		if err != nil {
			t.Fatal(err)
		}
		res := lint.Run(&lint.Input{Design: d, Lib: lib, Paras: p, Inputs: in}, lint.Config{})
		if res.HasErrors() {
			t.Fatalf("%s has lint errors:\n%+v", src, res.Diags)
		}
	}
}
