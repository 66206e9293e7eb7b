package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/liberty"
	"repro/internal/report"
	"repro/internal/units"
	"repro/internal/workload"
)

// A2Multiphase is the ablation for set-valued switching windows. Every bus
// line switches in two phases separated by PhaseGap; lines are staggered
// inside each phase. A hull-based tool (core.Options.HullWindows) smears
// each aggressor's window across the whole gap, so every pair of aggressors
// appears to overlap; the set-valued analysis keeps the phases separate.
// Expected shape: set-valued and hull results coincide at zero/small gaps,
// then the hull analysis stays pessimistic (near the all-aggressors level)
// as the gap grows while the set-valued result keeps the staggered
// reduction. Hull is always conservative relative to sets.
func A2Multiphase(cfg Config) ([]*report.Table, error) {
	t := report.NewTable(
		"A2 (ablation): set-valued vs hull switching windows, two-phase bus",
		"phase-gap", "noise(all-aggr)", "noise(hull)", "noise(sets)", "hull/sets")

	gaps := []float64{0, 500, 2000, 10000} // ps
	if cfg.Quick {
		gaps = []float64{0, 10000}
	}
	lib := liberty.Generic()
	for _, gapPS := range gaps {
		gap := gapPS * units.Pico
		g, err := workload.Bus(workload.BusSpec{
			Bits: 16, Segs: 2,
			CoupleC: 8 * units.Femto, GroundC: 1 * units.Femto,
			WindowSep: 250 * units.Pico, WindowWidth: 80 * units.Pico,
			PhaseGap: gap,
		})
		if err != nil {
			return nil, err
		}
		b, err := g.Bind(lib)
		if err != nil {
			return nil, err
		}
		run := func(mode core.Mode, hull bool) (float64, error) {
			res, err := core.AnalyzeCtx(cfg.ctx(), b, core.Options{
				Mode:        mode,
				HullWindows: hull,
				STA:         g.STAOptions(),
			})
			if err != nil {
				return 0, err
			}
			return res.TotalNoise(), nil
		}
		nA, err := run(core.ModeAllAggressors, false)
		if err != nil {
			return nil, err
		}
		nHull, err := run(core.ModeNoiseWindows, true)
		if err != nil {
			return nil, err
		}
		nSet, err := run(core.ModeNoiseWindows, false)
		if err != nil {
			return nil, err
		}
		ratio := 1.0
		if nSet > 0 {
			ratio = nHull / nSet
		}
		t.AddRow(
			report.SI(gap, "s"),
			report.SI(nA, "V"),
			report.SI(nHull, "V"),
			report.SI(nSet, "V"),
			fmt.Sprintf("%.2f", ratio),
		)
	}
	return []*report.Table{t}, nil
}
