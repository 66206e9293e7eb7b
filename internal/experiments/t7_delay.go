package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/liberty"
	"repro/internal/report"
	"repro/internal/sta"
	"repro/internal/units"
	"repro/internal/workload"
)

// T7DeltaDelay applies the window machinery to the companion SI analysis:
// crosstalk-induced delay change on switching victims. The victim's own
// switching window is the anchor; opposing aggressors only disturb the
// edge when their noise windows overlap it. Expected shape: the classical
// estimate is flat across the sweep, while the windowed delta is nonzero
// only in the offset band where the aggressors' noise windows (their input
// windows plus driver delay and edge time) actually cross the victim's
// post-driver switching window — and there it equals the classical value.
func T7DeltaDelay(cfg Config) ([]*report.Table, error) {
	t := report.NewTable(
		"T7: crosstalk delta-delay — aggressor offset vs estimated push-out",
		"agg-offset", "delta(all-aggr)", "delta(noise-win)", "members", "victim-window")

	offsets := []float64{0, 100, 200, 400, 800, 2000} // ps
	if cfg.Quick {
		offsets = []float64{0, 400, 2000}
	}
	lib := liberty.Generic()
	for _, offPS := range offsets {
		off := offPS * units.Pico
		g, err := workload.Star(workload.StarSpec{
			Windows: []interval.Window{
				interval.New(off, off+60*units.Pico), //snavet:nanguard off enumerates a literal table of finite picosecond offsets
				interval.New(off, off+60*units.Pico), //snavet:nanguard off enumerates a literal table of finite picosecond offsets
			},
			CoupleC: 4 * units.Femto,
			GroundC: 8 * units.Femto,
		})
		if err != nil {
			return nil, err
		}
		// The victim switches at t≈0 regardless of the aggressors.
		slew := sta.Range{Min: 20 * units.Pico, Max: 25 * units.Pico}
		g.Inputs["i_v"] = &sta.Timing{
			Rise:     interval.SetOf(0, 60*units.Pico),
			Fall:     interval.SetOf(0, 60*units.Pico),
			SlewRise: slew,
			SlewFall: slew,
		}
		b, err := g.Bind(lib)
		if err != nil {
			return nil, err
		}
		run := func(mode core.Mode) (*core.DelayImpact, error) {
			res, err := core.AnalyzeDelayCtx(cfg.ctx(), b, core.Options{Mode: mode, STA: g.STAOptions()})
			if err != nil {
				return nil, err
			}
			return res.ImpactOn("v", true), nil
		}
		imA, err := run(core.ModeAllAggressors)
		if err != nil {
			return nil, err
		}
		imC, err := run(core.ModeNoiseWindows)
		if err != nil {
			return nil, err
		}
		deltaA, deltaC := 0.0, 0.0
		members := 0
		win := "-"
		if imA != nil {
			deltaA = imA.Delta
			win = imA.VictimWindow.String()
		}
		if imC != nil {
			deltaC = imC.Delta
			members = len(imC.Members)
		}
		t.AddRow(
			report.SI(off, "s"),
			report.SI(deltaA, "s"),
			report.SI(deltaC, "s"),
			fmt.Sprintf("%d", members),
			win,
		)
	}
	return []*report.Table{t}, nil
}
