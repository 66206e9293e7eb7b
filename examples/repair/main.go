// Repair: run the full signoff loop — analyze, take the advisor's fix,
// apply it, and re-analyze to show the design now passes.
//
// A victim attacked by four aligned aggressors violates its receiver's
// immunity curve. The advisor quantifies two fixes with the same model the
// analysis used: cut the dominant coupling (spacing/shielding) or upsize
// the victim's holding driver. The example applies each and verifies both
// close the violations.
//
//	go run ./examples/repair
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/liberty"
	"repro/internal/report"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	base := workload.StarSpec{
		Windows: []interval.Window{
			interval.New(0, 80*units.Pico),
			interval.New(0, 80*units.Pico),
			interval.New(0, 80*units.Pico),
		},
		CoupleC:      8 * units.Femto,
		GroundC:      2 * units.Femto,
		VictimDriver: "INV_X1",
	}

	res, repairs := analyzeStar(base)
	fmt.Printf("before repair: %d violations, worst slack %s\n",
		len(res.Violations), report.SI(res.WorstSlack(), "V"))
	var upsizeTo string
	var cut float64
	for _, r := range repairs {
		fmt.Println("  " + r.Describe())
		if r.UpsizeTo != "" {
			upsizeTo = r.UpsizeTo
		}
		if r.CouplingCut > cut {
			cut = r.CouplingCut
		}
	}

	if upsizeTo != "" {
		fixed := base
		fixed.VictimDriver = upsizeTo
		after, _ := analyzeStar(fixed)
		fmt.Printf("\nafter upsizing the victim driver to %s: %d violations (worst slack %s)\n",
			upsizeTo, len(after.Violations), report.SI(after.WorstSlack(), "V"))
	}
	if cut > 0 {
		fixed := base
		// Apply the advised cut as extra spacing on every aggressor (the
		// advisor's number is for the dominant one alone, so this is a
		// stronger version of the same fix).
		fixed.CoupleC = base.CoupleC * (1 - cut)
		after, _ := analyzeStar(fixed)
		fmt.Printf("after spacing all aggressors by the advised %.0f%% cut: %d violations\n",
			cut*100, len(after.Violations))
	}
}

func analyzeStar(spec workload.StarSpec) (*core.Result, []core.Repair) {
	g, err := workload.Star(spec)
	if err != nil {
		log.Fatal(err)
	}
	var b *bind.Design
	if b, err = g.Bind(liberty.Generic()); err != nil {
		log.Fatal(err)
	}
	res, err := core.AnalyzeCtx(context.Background(), b, core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions()})
	if err != nil {
		log.Fatal(err)
	}
	var repairs []core.Repair
	if len(res.Violations) > 0 {
		if repairs, err = core.SuggestRepairsCtx(context.Background(), b, res, 0.05); err != nil {
			log.Fatal(err)
		}
	}
	return res, repairs
}
