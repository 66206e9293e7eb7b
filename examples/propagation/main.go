// Propagation: inject a strong crosstalk glitch at the head of an
// inverter chain and follow it through the gates — peak attenuating,
// width growing, and the noise window marching later by one gate delay
// per stage.
//
//	go run ./examples/propagation
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/liberty"
	"repro/internal/report"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	const depth = 6
	g, err := workload.Chain(workload.ChainSpec{
		Depth:   depth,
		CoupleC: 10 * units.Femto,
		GroundC: 1 * units.Femto,
	})
	if err != nil {
		log.Fatal(err)
	}
	b, err := g.Bind(liberty.Generic())
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.AnalyzeCtx(context.Background(), b, core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions()})
	if err != nil {
		log.Fatal(err)
	}

	t := report.NewTable(
		fmt.Sprintf("glitch propagation down a %d-stage inverter chain (converged in %d passes)",
			depth, res.Stats.Iterations),
		"stage", "net", "peak", "width", "noise-window", "victim-state")
	for s := 0; s <= depth; s++ {
		net := fmt.Sprintf("v%d", s)
		if s == depth {
			net = "out"
		}
		nn := res.NoiseOf(net)
		if nn == nil {
			continue
		}
		var comb core.Combined
		state := "quiet"
		for _, k := range core.Kinds {
			if nn.Comb[k].Peak > comb.Peak {
				comb = nn.Comb[k]
				state = k.String()
			}
		}
		t.AddRow(fmt.Sprintf("%d", s), net,
			report.SI(comb.Peak, "V"), report.SI(comb.Width, "s"),
			comb.Window.String(), state)
	}
	t.Render(os.Stdout)

	fmt.Println("\nthe glitch dies once it falls below the cells' noise-transfer threshold;")
	fmt.Println("its window (when it can occur) shifts later by one gate delay per stage,")
	fmt.Println("which is exactly the information the windowed combination uses downstream.")
}
