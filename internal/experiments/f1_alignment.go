package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/liberty"
	"repro/internal/report"
	"repro/internal/units"
	"repro/internal/workload"
)

// F1Alignment regenerates the motivating figure: two aggressors attack one
// victim, and the second aggressor's switching window slides away from the
// first in steps. The pessimistic analysis reports the two-aggressor sum
// at every offset; the windowed analysis tracks the true achievable peak.
// Expected shape: the all-aggressors series is flat; the windowed series
// stays at the full sum while the noise windows overlap, then ramps down
// linearly across the tail band (one glitch's peak riding the other's
// receding triangular tail — the sound tent occupancy) and settles at the
// single-aggressor value once the glitches can no longer touch.
func F1Alignment(cfg Config) ([]*report.Table, error) {
	t := report.NewTable(
		"F1: combined peak vs aggressor window offset (two aggressors)",
		"offset", "peak-all-aggr", "peak-noise-win", "members", "overlap")

	offsets := []float64{0, 20, 40, 60, 80, 100, 130, 160, 200, 300, 500, 1000} // ps
	if cfg.Quick {
		offsets = []float64{0, 60, 200, 1000}
	}
	const width = 40 * units.Pico
	lib := liberty.Generic()
	for _, offPS := range offsets {
		off := offPS * units.Pico
		w0 := interval.New(0, width)
		w1 := interval.New(off, off+width) //snavet:nanguard off enumerates a literal table of finite picosecond offsets
		g, err := workload.Star(workload.StarSpec{
			Windows: []interval.Window{w0, w1},
			CoupleC: 4 * units.Femto, GroundC: 8 * units.Femto,
		})
		if err != nil {
			return nil, err
		}
		b, err := g.Bind(lib)
		if err != nil {
			return nil, err
		}
		resA, err := core.AnalyzeCtx(cfg.ctx(), b, core.Options{Mode: core.ModeAllAggressors, STA: g.STAOptions()})
		if err != nil {
			return nil, err
		}
		resC, err := core.AnalyzeCtx(cfg.ctx(), b, core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions()})
		if err != nil {
			return nil, err
		}
		combA := resA.NoiseOf("v").Comb[core.KindLow]
		combC := resC.NoiseOf("v").Comb[core.KindLow]
		t.AddRow(
			report.SI(off, "s"),
			report.SI(combA.Peak, "V"),
			report.SI(combC.Peak, "V"),
			fmt.Sprintf("%d", len(combC.Members)),
			fmt.Sprintf("%v", len(combC.Members) > 1),
		)
	}
	return []*report.Table{t}, nil
}
