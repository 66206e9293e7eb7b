// Quickstart: build a three-net design in code, attach parasitics with a
// cross-coupling capacitor, run windowed static noise analysis, and print
// the result.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/report"
	"repro/internal/spef"
	"repro/internal/sta"
)

func main() {
	// 1. A victim inverter and an aggressor inverter, side by side.
	d := netlist.New("quickstart")
	check(connectLine(d, "victim"))
	check(connectLine(d, "aggressor"))

	// 2. Parasitics: the two wires run parallel for a while, coupling
	//    6 fF; each also has 4 fF to ground and 100 Ω of wire.
	paras := spef.NewParasitics("quickstart")
	check(paras.AddNet(wire("victim", "aggressor", 6e-15)))
	check(paras.AddNet(wire("aggressor", "victim", 6e-15)))

	// 3. Bind against the built-in generic library.
	b, err := bind.New(d, liberty.Generic(), paras)
	check(err)

	// 4. Timing: the aggressor switches somewhere in [0, 100 ps]; the
	//    victim is quiet.
	inputs := map[string]*sta.Timing{
		"in_aggressor": {
			Rise:     interval.SetOf(0, 100e-12),
			Fall:     interval.SetOf(0, 100e-12),
			SlewRise: sta.Range{Min: 20e-12, Max: 30e-12},
			SlewFall: sta.Range{Min: 20e-12, Max: 30e-12},
		},
		"in_victim": {
			SlewRise: sta.Range{Min: 1, Max: -1},
			SlewFall: sta.Range{Min: 1, Max: -1},
		},
	}

	// 5. Analyze with noise windows and print everything.
	res, err := core.AnalyzeCtx(context.Background(), b, core.Options{
		Mode: core.ModeNoiseWindows,
		STA:  sta.Options{InputTiming: inputs},
	})
	check(err)

	report.Violations(os.Stdout, res)
	fmt.Println()
	report.NetSummary(os.Stdout, res.NoiseOf("victim"))

	nn := res.NoiseOf("victim").Comb[core.KindLow]
	fmt.Printf("\nworst upward glitch on the quiet-low victim: %s wide %s, possible during %v\n",
		report.SI(nn.Peak, "V"), report.SI(nn.Width, "s"), nn.Window)
}

// connectLine adds port in_<name> -> INV_X1 d_<name> -> net <name> ->
// INV_X1 r_<name> -> port out_<name>.
func connectLine(d *netlist.Design, name string) error {
	if _, err := d.AddPort("in_"+name, netlist.In); err != nil {
		return err
	}
	if _, err := d.AddPort("out_"+name, netlist.Out); err != nil {
		return err
	}
	if _, err := d.AddInst("d_"+name, "INV_X1"); err != nil {
		return err
	}
	if _, err := d.AddInst("r_"+name, "INV_X1"); err != nil {
		return err
	}
	steps := []struct {
		inst, pin, net string
		dir            netlist.Dir
	}{
		{"d_" + name, "A", "in_" + name, netlist.In},
		{"d_" + name, "Y", name, netlist.Out},
		{"r_" + name, "A", name, netlist.In},
		{"r_" + name, "Y", "out_" + name, netlist.Out},
	}
	for _, s := range steps {
		if err := d.Connect(s.inst, s.pin, s.net, s.dir); err != nil {
			return err
		}
	}
	return nil
}

// wire builds one net's SPEF record with a coupling cap to the other net.
func wire(name, other string, couple float64) *spef.Net {
	return &spef.Net{
		Name: name,
		Conns: []spef.Conn{
			{Pin: "d_" + name + ":Y", Dir: spef.DirOut, Node: "d_" + name + ":Y"},
			{Pin: "r_" + name + ":A", Dir: spef.DirIn, Node: "r_" + name + ":A"},
		},
		Caps: []spef.CapEntry{
			{Node: name + ":1", F: 4e-15},
			{Node: name + ":1", Other: other + ":1", F: couple},
		},
		Ress: []spef.ResEntry{
			{A: "d_" + name + ":Y", B: name + ":1", Ohms: 100},
			{A: name + ":1", B: "r_" + name + ":A", Ohms: 100},
		},
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
