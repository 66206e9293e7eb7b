package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/liberty"
	"repro/internal/report"
	"repro/internal/units"
	"repro/internal/workload"
)

// A1Widening is the ablation for the occupancy policy (DESIGN.md design
// choice): the sound tent default versus classical peak alignment versus
// the coarse ±width plateau. Expected shape: all three agree when
// windows fully overlap or are far apart; in the marginal band (stagger
// comparable to the glitch width) peak < tent < widen, with tent tracking
// the partial-overlap physics the Monte Carlo experiment (T11) samples.
func A1Widening(cfg Config) ([]*report.Table, error) {
	t := report.NewTable(
		"A1 (ablation): occupancy policies — tent (default) vs peak vs widen",
		"stagger", "peak(tent)", "peak(peak-align)", "peak(widened)", "ordering-ok")

	staggers := []float64{0, 100, 200, 300, 500, 800} // ps between adjacent windows
	if cfg.Quick {
		staggers = []float64{0, 300, 800}
	}
	lib := liberty.Generic()
	for _, sepPS := range staggers {
		sep := sepPS * units.Pico
		g, err := workload.Bus(workload.BusSpec{
			Bits: 8, Segs: 2,
			CoupleC: 8 * units.Femto, GroundC: 1 * units.Femto,
			WindowSep: sep, WindowWidth: 80 * units.Pico,
		})
		if err != nil {
			return nil, err
		}
		b, err := g.Bind(lib)
		if err != nil {
			return nil, err
		}
		mid := workload.MiddleBusNet(8)
		run := func(occ core.Occupancy) (core.Combined, error) {
			res, err := core.AnalyzeCtx(cfg.ctx(), b, core.Options{
				Mode:      core.ModeNoiseWindows,
				Occupancy: occ,
				STA:       g.STAOptions(),
			})
			if err != nil {
				return core.Combined{}, err
			}
			return res.NoiseOf(mid).Comb[core.KindLow], nil
		}
		tent, err := run(core.OccupancyTent)
		if err != nil {
			return nil, err
		}
		peak, err := run(core.OccupancyPeak)
		if err != nil {
			return nil, err
		}
		wide, err := run(core.OccupancyWiden)
		if err != nil {
			return nil, err
		}
		ok := peak.Peak <= tent.Peak+1e-12 && tent.Peak <= wide.Peak+1e-12
		t.AddRow(
			report.SI(sep, "s"),
			report.SI(tent.Peak, "V"),
			report.SI(peak.Peak, "V"),
			report.SI(wide.Peak, "V"),
			fmt.Sprintf("%v", ok),
		)
	}
	return []*report.Table{t}, nil
}
