// Multiphase: every bus line switches in two clock phases far apart. A
// tool limited to single-interval (hull) switching windows must smear each
// aggressor across the whole gap and loses the staggering inside each
// phase; set-valued noise windows keep the phases separate. This is the
// general form of the paper's windows.
//
//	go run ./examples/multiphase
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
	g, err := workload.Bus(workload.BusSpec{
		Bits: 16, Segs: 2,
		CoupleC: 8 * units.Femto, GroundC: 1 * units.Femto,
		WindowSep: 250 * units.Pico, WindowWidth: 80 * units.Pico,
		PhaseGap: 5000 * units.Pico, // phase B five nanoseconds after phase A
	})
	if err != nil {
		log.Fatal(err)
	}
	b, err := g.Bind(liberty.Generic())
	if err != nil {
		log.Fatal(err)
	}

	t := report.NewTable(
		"16-bit bus, two switching phases 5 ns apart, 250 ps stagger inside each",
		"analysis", "total-noise", "worst-victim")
	type cfg struct {
		name string
		mode core.Mode
		hull bool
	}
	for _, c := range []cfg{
		{"all-aggressors (no timing)", core.ModeAllAggressors, false},
		{"noise windows, hull (single interval)", core.ModeNoiseWindows, true},
		{"noise windows, sets (multi-phase)", core.ModeNoiseWindows, false},
	} {
		res, err := core.AnalyzeCtx(context.Background(), b, core.Options{
			Mode: c.mode, HullWindows: c.hull, STA: g.STAOptions(),
		})
		if err != nil {
			log.Fatal(err)
		}
		worst := 0.0
		for _, nn := range res.Nets {
			if p := nn.WorstPeak(); p > worst {
				worst = p
			}
		}
		t.AddRow(c.name, report.SI(res.TotalNoise(), "V"), report.SI(worst, "V"))
	}
	t.Render(os.Stdout)

	// Show the middle victim's event windows: two disjoint windows per
	// aggressor, one per phase.
	res, err := core.AnalyzeCtx(context.Background(), b, core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions()})
	if err != nil {
		log.Fatal(err)
	}
	mid := workload.MiddleBusNet(16)
	nn := res.NoiseOf(mid)
	fmt.Printf("\nvictim %s event windows (victim-low):\n", mid)
	for _, e := range nn.Events[core.KindLow] {
		fmt.Printf("  %-4s peak %s window %v\n", e.Source, report.SI(e.Peak, "V"), e.Window)
	}
	fmt.Println("\nthe hull analysis would fuse each aggressor's two windows into one")
	fmt.Println("5 ns interval, making every aggressor pair appear alignable.")
}
