// Pessimism: slide one aggressor's switching window away from another's
// and watch the windowed combined peak collapse to the single-aggressor
// value while the classical analysis stays pessimistically flat — the
// paper's motivating picture, printed as a text series.
//
//	go run ./examples/pessimism
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/liberty"
	"repro/internal/report"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	fmt.Println("two aggressors, window width 40ps; offset of the second window sweeps:")
	fmt.Printf("%8s  %14s  %14s  %s\n", "offset", "all-aggressors", "noise-windows", "")
	lib := liberty.Generic()
	var flat float64
	for _, offPS := range []float64{0, 20, 40, 60, 80, 100, 140, 200, 300, 500} {
		off := offPS * units.Pico
		g, err := workload.Star(workload.StarSpec{
			Windows: []interval.Window{
				interval.New(0, 40*units.Pico),
				interval.New(off, off+40*units.Pico), //snavet:nanguard off enumerates a literal table of finite picosecond offsets
			},
			CoupleC: 4 * units.Femto,
			GroundC: 8 * units.Femto,
		})
		if err != nil {
			log.Fatal(err)
		}
		b, err := g.Bind(lib)
		if err != nil {
			log.Fatal(err)
		}
		peak := func(mode core.Mode) float64 {
			res, err := core.AnalyzeCtx(context.Background(), b, core.Options{Mode: mode, STA: g.STAOptions()})
			if err != nil {
				log.Fatal(err)
			}
			return res.NoiseOf("v").Comb[core.KindLow].Peak
		}
		pA := peak(core.ModeAllAggressors)
		pC := peak(core.ModeNoiseWindows)
		if flat == 0 {
			flat = pA
		}
		bar := strings.Repeat("#", int(pC/flat*40+0.5))
		fmt.Printf("%8s  %14s  %14s  %s\n",
			report.SI(off, "s"), report.SI(pA, "V"), report.SI(pC, "V"), bar)
	}
	fmt.Println("\nthe all-aggressors column is flat: it assumes the windows always align.")
	fmt.Println("the noise-window column steps down once the glitch windows stop overlapping.")
}
