package load

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/netlist"
	"repro/internal/spef"
	"repro/internal/sta"
	"repro/internal/vlog"
	"repro/internal/workload"
)

func busText(t *testing.T, defects string) (net, verilog, paras, timing string, g *workload.Generated) {
	t.Helper()
	g, err := workload.Bus(workload.BusSpec{Bits: 4, Segs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if defects != "" {
		d, err := workload.ParseDefects(defects)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Inject(d); err != nil {
			t.Fatal(err)
		}
	}
	var nb, vb, sb, tb bytes.Buffer
	for _, err := range []error{
		netlist.Write(&nb, g.Design), vlog.Write(&vb, g.Design),
		spef.Write(&sb, g.Paras), sta.WriteInputTiming(&tb, g.Inputs),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return nb.String(), vb.String(), sb.String(), tb.String(), g
}

func TestLoadBindsBothNetlistFormats(t *testing.T) {
	net, verilog, paras, timing, g := busText(t, "")
	for _, src := range []Sources{
		{Netlist: Text(net), SPEF: Text(paras), Timing: Text(timing)},
		{Netlist: Text(verilog), Verilog: true, SPEF: Text(paras), Timing: Text(timing)},
	} {
		d, err := Load(src, lint.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if d.Lint.HasErrors() {
			t.Fatalf("clean bus rejected: %+v", d.Lint.Diags)
		}
		if len(d.Inputs) != len(g.Inputs) || d.Paras.NumNets() != g.Paras.NumNets() {
			t.Fatalf("loaded %d inputs, %d parasitic nets; want %d, %d",
				len(d.Inputs), d.Paras.NumNets(), len(g.Inputs), g.Paras.NumNets())
		}
		b, err := d.Bind()
		if err != nil {
			t.Fatal(err)
		}
		if b.Net.NumNets() != g.Design.NumNets() {
			t.Fatalf("bound %d nets, want %d", b.Net.NumNets(), g.Design.NumNets())
		}
	}
}

// Pre-parsed input timing reaches lint (the quiet input is STA001's
// finding) when no Timing source is given.
func TestLoadUsesGivenInputs(t *testing.T) {
	net, _, paras, _, g := busText(t, "quiet-input")
	d, err := Load(Sources{Netlist: Text(net), SPEF: Text(paras), Inputs: g.Inputs}, lint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(d.Lint.Diags, func(g lint.Diagnostic) bool { return g.Rule == "STA001" }) {
		t.Fatalf("given inputs did not reach lint: %+v", d.Lint.Diags)
	}
}

func TestBindRefusesLintErrors(t *testing.T) {
	net, _, paras, timing, _ := busText(t, "multi-driven")
	d, err := Load(Sources{Netlist: Text(net), SPEF: Text(paras), Timing: Text(timing)}, lint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Lint.HasErrors() {
		t.Fatal("multi-driven bus passed lint")
	}
	if _, err := d.Bind(); err == nil || !strings.Contains(err.Error(), "rejected by lint") {
		t.Fatalf("Bind past lint errors: %v", err)
	}
}

func TestLoadRequiresNetlist(t *testing.T) {
	if _, err := Load(Sources{SPEF: Text("x")}, lint.Config{}); err == nil {
		t.Fatal("no netlist accepted")
	}
}
