package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/liberty"
	"repro/internal/report"
	"repro/internal/units"
	"repro/internal/workload"
)

// T6Combination characterizes the windowed combination itself: with N
// aggressors whose windows are scattered over an increasing span, how many
// glitches can actually align (combination cardinality) and how much of
// the pessimistic sum survives. Expected shape: as the span grows relative
// to the window width, the aligned subset shrinks from N toward 1 and the
// noise ratio follows.
func T6Combination(cfg Config) ([]*report.Table, error) {
	t := report.NewTable(
		"T6: windowed combination statistics — scatter span vs aligned subset",
		"aggressors", "span", "members-aligned", "noise-ratio(C/A)", "combined-window")

	n := 8
	spans := []float64{0, 50, 150, 400, 1000, 4000} // picoseconds
	if cfg.Quick {
		n = 4
		spans = []float64{0, 150, 4000}
	}
	const width = 60 * units.Pico
	rng := rand.New(rand.NewSource(42))
	for _, spanPS := range spans {
		span := spanPS * units.Pico
		windows := make([]interval.Window, n)
		for i := range windows {
			lo := 0.0
			if span > 0 {
				lo = rng.Float64() * span
			}
			windows[i] = interval.New(lo, lo+width) //snavet:nanguard lo is rng.Float64() in [0,1) scaled by a finite constant span
		}
		g, err := workload.Star(workload.StarSpec{Windows: windows, CoupleC: 2 * units.Femto, GroundC: 20 * units.Femto})
		if err != nil {
			return nil, err
		}
		b, err := g.Bind(liberty.Generic())
		if err != nil {
			return nil, err
		}
		resC, err := core.AnalyzeCtx(cfg.ctx(), b, core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions()})
		if err != nil {
			return nil, err
		}
		resA, err := core.AnalyzeCtx(cfg.ctx(), b, core.Options{Mode: core.ModeAllAggressors, STA: g.STAOptions()})
		if err != nil {
			return nil, err
		}
		combC := resC.NoiseOf("v").Comb[core.KindLow]
		combA := resA.NoiseOf("v").Comb[core.KindLow]
		ratio := 0.0
		if combA.Peak > 0 {
			ratio = combC.Peak / combA.Peak
		}
		t.AddRow(
			fmt.Sprintf("%d", n),
			report.SI(span, "s"),
			fmt.Sprintf("%d/%d", len(combC.Members), n),
			fmt.Sprintf("%.2f", ratio),
			combC.Window.String(),
		)
	}
	return []*report.Table{t}, nil
}
