package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/liberty"
	"repro/internal/report"
	"repro/internal/sta"
	"repro/internal/units"
	"repro/internal/workload"
)

// A3Corners sweeps process corners (library scaling plus OCV derates) over
// one bus and reports noise and violations per corner under the windowed
// policy. Expected shape: the slow corner is the noise-critical one —
// weaker holding drivers (higher R_h) grow every glitch even though its
// slower aggressor edges push the other way — and derates only widen
// windows, so the same corner ordering holds for violations. The fast
// corner gains margin on both axes.
func A3Corners(cfg Config) ([]*report.Table, error) {
	t := report.NewTable(
		"A3 (ablation): process corners — library scaling × OCV derates",
		"corner", "vdd", "mode", "violations", "total-noise", "worst-victim", "worst-slack")

	type corner struct {
		name                    string
		delayK, resK, vddK      float64
		earlyDerate, lateDerate float64
	}
	corners := []corner{
		{"fast", 0.85, 0.8, 1.1, 1, 1},
		{"typical", 1, 1, 1, 1, 1},
		{"slow", 1.2, 1.3, 0.9, 1, 1},
		{"slow+ocv", 1.2, 1.3, 0.9, 0.92, 1.08},
	}
	if cfg.Quick {
		corners = []corner{corners[1], corners[2]}
	}

	g, err := workload.Bus(workload.BusSpec{
		Bits: 16, Segs: 2,
		CoupleC: 8 * units.Femto, GroundC: 1 * units.Femto,
		WindowSep: 250 * units.Pico, WindowWidth: 80 * units.Pico,
		Driver: "INV_X1",
	})
	if err != nil {
		return nil, err
	}
	base := liberty.Generic()
	for _, c := range corners {
		lib := base
		if c.name != "typical" {
			lib = liberty.Scale(base, c.name, c.delayK, c.resK, c.vddK)
		}
		b, err := g.Bind(lib)
		if err != nil {
			return nil, err
		}
		staOpts := sta.Options{
			InputTiming: g.Inputs,
			EarlyDerate: c.earlyDerate,
			LateDerate:  c.lateDerate,
		}
		res, err := core.AnalyzeCtx(cfg.ctx(), b, core.Options{Mode: core.ModeNoiseWindows, STA: staOpts})
		if err != nil {
			return nil, err
		}
		worst := 0.0
		for _, nn := range res.Nets {
			if p := nn.WorstPeak(); p > worst {
				worst = p
			}
		}
		slack := "-"
		if len(res.Slacks) > 0 {
			slack = report.SI(res.WorstSlack(), "V")
		}
		t.AddRow(
			c.name,
			fmt.Sprintf("%.2f", lib.Vdd),
			core.ModeNoiseWindows.String(),
			fmt.Sprintf("%d", len(res.Violations)),
			report.SI(res.TotalNoise(), "V"),
			report.SI(worst, "V"),
			slack,
		)
	}
	return []*report.Table{t}, nil
}
