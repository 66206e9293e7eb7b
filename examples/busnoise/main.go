// Busnoise: analyze a 32-bit coupled parallel bus — the workload the
// paper's introduction motivates — under all three combination policies
// and show how noise windows remove false violations.
//
//	go run ./examples/busnoise
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
	// A 32-bit bus whose lines switch in staggered 80 ps windows, 150 ps
	// apart: adjacent aggressors of any victim can never align, so the
	// classical all-aggressors analysis is maximally pessimistic here.
	g, err := workload.Bus(workload.BusSpec{
		Bits: 32, Segs: 2,
		CoupleC: 8 * units.Femto, GroundC: 1 * units.Femto,
		WindowSep: 150 * units.Pico, WindowWidth: 80 * units.Pico,
	})
	if err != nil {
		log.Fatal(err)
	}
	b, err := g.Bind(liberty.Generic())
	if err != nil {
		log.Fatal(err)
	}

	t := report.NewTable(
		"32-bit coupled bus, staggered switching windows",
		"mode", "violations", "total-noise", "worst-victim-peak")
	for _, mode := range []core.Mode{core.ModeAllAggressors, core.ModeTimingWindows, core.ModeNoiseWindows} {
		res, err := core.AnalyzeCtx(context.Background(), b, core.Options{Mode: mode, STA: g.STAOptions()})
		if err != nil {
			log.Fatal(err)
		}
		worst := 0.0
		for _, nn := range res.Nets {
			if p := nn.WorstPeak(); p > worst {
				worst = p
			}
		}
		t.AddRow(mode.String(),
			fmt.Sprintf("%d", len(res.Violations)),
			report.SI(res.TotalNoise(), "V"),
			report.SI(worst, "V"))
	}
	t.Render(os.Stdout)

	// Show the middle line (attacked from both sides) in detail under
	// the paper's policy.
	res, err := core.AnalyzeCtx(context.Background(), b, core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	report.NetSummary(os.Stdout, res.NoiseOf(workload.MiddleBusNet(32)))
	fmt.Println()
	report.Violations(os.Stdout, res)
}
