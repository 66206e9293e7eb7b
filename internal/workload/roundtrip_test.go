package workload

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/spef"
	"repro/internal/sta"
	"repro/internal/units"
	"repro/internal/vlog"
)

// Every generator family at test size: the corpus for pinning the
// streaming loaders against workload-generated fixtures, not just the
// hand-written testdata the parser packages use.
func roundTripFixtures(t *testing.T) map[string]*Generated {
	t.Helper()
	out := make(map[string]*Generated)
	add := func(name string, g *Generated, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = g
	}
	g, err := Bus(BusSpec{Bits: 8, Segs: 2, WindowSep: 60 * units.Pico, WindowWidth: 80 * units.Pico})
	add("bus", g, err)
	g, err = Fabric(FabricSpec{Width: 6, Levels: 4, Seed: 3})
	add("fabric", g, err)
	g, err = Chain(ChainSpec{Depth: 5})
	add("chain", g, err)
	g, err = Ladder(LadderSpec{Lines: 8, Steps: 3})
	add("ladder", g, err)
	g, err = Scale(ScaleSpec{Nets: 64})
	add("scale", g, err)
	return out
}

// TestGeneratedDesignsRoundTripStreamingLoaders writes every generated
// fixture through the Verilog/SPEF/input-timing writers and parses it
// back through the streaming loaders, requiring a lossless round trip:
// the reparsed design must serialize identically (netlist text pins
// names, IDs, and connection order) and re-writing must reproduce the
// original bytes. This is the workload-fixture leg of the loader
// equivalence bar; the parser packages pin streaming ≡ reference on
// their own corpora.
func TestGeneratedDesignsRoundTripStreamingLoaders(t *testing.T) {
	for name, g := range roundTripFixtures(t) {
		t.Run(name, func(t *testing.T) {
			var vb bytes.Buffer
			if err := vlog.Write(&vb, g.Design); err != nil {
				t.Fatal(err)
			}
			d2, err := vlog.Parse(bytes.NewReader(vb.Bytes()), liberty.Generic())
			if err != nil {
				t.Fatalf("vlog reparse: %v", err)
			}
			if d2.NumNets() != g.Design.NumNets() || d2.NumInsts() != g.Design.NumInsts() ||
				d2.NumConns() != g.Design.NumConns() || len(d2.Ports()) != len(g.Design.Ports()) {
				t.Fatalf("counts drifted: nets %d/%d insts %d/%d conns %d/%d ports %d/%d",
					d2.NumNets(), g.Design.NumNets(), d2.NumInsts(), g.Design.NumInsts(),
					d2.NumConns(), g.Design.NumConns(), len(d2.Ports()), len(g.Design.Ports()))
			}
			var n1, n2 bytes.Buffer
			if err := netlist.Write(&n1, g.Design); err != nil {
				t.Fatal(err)
			}
			if err := netlist.Write(&n2, d2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(n1.Bytes(), n2.Bytes()) {
				t.Fatal("reparsed design serializes differently")
			}
			var vb2 bytes.Buffer
			if err := vlog.Write(&vb2, d2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(vb.Bytes(), vb2.Bytes()) {
				t.Fatal("verilog round trip not byte-identical")
			}

			var sb bytes.Buffer
			if err := spef.Write(&sb, g.Paras); err != nil {
				t.Fatal(err)
			}
			p2, err := spef.Parse(bytes.NewReader(sb.Bytes()))
			if err != nil {
				t.Fatalf("spef reparse: %v", err)
			}
			var sb2 bytes.Buffer
			if err := spef.Write(&sb2, p2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sb.Bytes(), sb2.Bytes()) {
				t.Fatal("spef round trip not byte-identical")
			}

			var wb bytes.Buffer
			if err := sta.WriteInputTiming(&wb, g.Inputs); err != nil {
				t.Fatal(err)
			}
			in2, err := sta.ParseInputTiming(bytes.NewReader(wb.Bytes()))
			if err != nil {
				t.Fatalf("input timing reparse: %v", err)
			}
			var wb2 bytes.Buffer
			if err := sta.WriteInputTiming(&wb2, in2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wb.Bytes(), wb2.Bytes()) {
				t.Fatal("input timing round trip not byte-identical")
			}
		})
	}
}

// TestScaleLadderSmoke pins the capacity generator's contract: exact
// realized net count, analyzability end to end, and the minimum-size
// error.
func TestScaleLadderSmoke(t *testing.T) {
	const nets = 200
	g, err := Scale(ScaleSpec{Nets: nets})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Design.NumNets(); got != nets {
		t.Fatalf("realized %d nets, want %d", got, nets)
	}
	bd, err := g.Bind(liberty.Generic())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.AnalyzeCtx(context.Background(), bd, core.Options{
		Mode: core.ModeNoiseWindows, STA: g.STAOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nets) != nets {
		t.Fatalf("analyzed %d nets, want %d", len(res.Nets), nets)
	}
	if _, err := Scale(ScaleSpec{Nets: 4}); err == nil {
		t.Fatal("want error below the 8-net minimum")
	}
}
