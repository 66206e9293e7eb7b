package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/liberty"
	"repro/internal/report"
	"repro/internal/units"
	"repro/internal/workload"
)

// T8Shielding sweeps shield insertion density on a staggered bus and
// reports how the two pessimism-reduction levers — timing information
// (noise windows) and physical repair (shields) — trade off. Expected
// shape: shields monotonically cut noise in both modes; at every density
// the windowed analysis reports less noise than the classical one, so a
// noise budget is met with fewer shields — the practical payoff of
// removing false pessimism before spending routing resources.
func T8Shielding(cfg Config) ([]*report.Table, error) {
	t := report.NewTable(
		"T8: shield insertion vs analysis policy",
		"shield-every", "shields", "mode", "violations", "total-noise", "worst-victim")

	bits := 24
	densities := []int{0, 8, 4, 2, 1}
	if cfg.Quick {
		bits = 12
		densities = []int{0, 4, 1}
	}
	lib := liberty.Generic()
	for _, every := range densities {
		g, err := workload.Bus(workload.BusSpec{
			Bits: bits, Segs: 2,
			CoupleC: 8 * units.Femto, GroundC: 1 * units.Femto,
			WindowSep: 250 * units.Pico, WindowWidth: 80 * units.Pico,
			ShieldEvery: every,
		})
		if err != nil {
			return nil, err
		}
		b, err := g.Bind(lib)
		if err != nil {
			return nil, err
		}
		shields := 0
		if every > 0 {
			shields = (bits - 1) / every
		}
		for _, mode := range []core.Mode{core.ModeAllAggressors, core.ModeNoiseWindows} {
			res, err := core.AnalyzeCtx(cfg.ctx(), b, core.Options{Mode: mode, STA: g.STAOptions()})
			if err != nil {
				return nil, err
			}
			worst := 0.0
			for _, nn := range res.Nets {
				if p := nn.WorstPeak(); p > worst {
					worst = p
				}
			}
			t.AddRow(
				fmt.Sprintf("%d", every),
				fmt.Sprintf("%d", shields),
				mode.String(),
				fmt.Sprintf("%d", len(res.Violations)),
				report.SI(res.TotalNoise(), "V"),
				report.SI(worst, "V"),
			)
		}
	}
	return []*report.Table{t}, nil
}
