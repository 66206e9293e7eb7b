package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/liberty"
	"repro/internal/report"
	"repro/internal/units"
	"repro/internal/workload"
)

// T5Filtering sweeps the aggressor coupling-ratio filter threshold on a
// bus and reports kept couplings, the worst victim peak (with the filtered
// capacitance lumped into the virtual aggressor), the error that lumping
// introduces relative to the unfiltered run, and the runtime. Expected
// shape: runtime falls with the threshold while the virtual-aggressor
// lumping keeps the peak error small and strictly conservative (peak never
// drops below the unfiltered value).
func T5Filtering(cfg Config) ([]*report.Table, error) {
	t := report.NewTable(
		"T5: aggressor filtering threshold sweep (virtual lumping on)",
		"threshold", "kept", "filtered", "worst-victim", "peak-err", "conservative", "runtime")

	// A fabric's random coupling sprinkle gives nets anywhere from zero
	// to many aggressors with widely varying C_x/C_v ratios, so the
	// threshold sweep actually separates strong from weak couplings
	// (a uniform bus would filter all-or-nothing).
	spec := workload.FabricSpec{
		Width: 20, Levels: 12,
		CoupleC: 4 * units.Femto, CouplingDensity: 3,
		GroundC: 2 * units.Femto, Seed: 9,
	}
	if cfg.Quick {
		spec.Width, spec.Levels = 10, 6
	}
	g, err := workload.Fabric(spec)
	if err != nil {
		return nil, err
	}
	b, err := g.Bind(liberty.Generic())
	if err != nil {
		return nil, err
	}

	thresholds := []float64{0, 0.02, 0.05, 0.1, 0.2, 0.5}
	if cfg.Quick {
		thresholds = []float64{0, 0.1, 0.5}
	}
	var basePeak float64
	for i, th := range thresholds {
		opts := core.Options{Mode: core.ModeNoiseWindows, FilterThreshold: th, STA: g.STAOptions()}
		if _, err := core.AnalyzeCtx(cfg.ctx(), b, opts); err != nil { // warm caches
			return nil, err
		}
		start := time.Now()
		res, err := core.AnalyzeCtx(cfg.ctx(), b, opts)
		if err != nil {
			return nil, err
		}
		el := time.Since(start)
		worst := 0.0
		for _, nn := range res.Nets {
			if p := nn.WorstPeak(); p > worst {
				worst = p
			}
		}
		errStr, conservative := "-", "-"
		if i == 0 {
			basePeak = worst
		} else if basePeak > 0 {
			errStr = report.Percent(units.RelErr(worst, basePeak, 1e-3))
			conservative = fmt.Sprintf("%v", worst >= basePeak-1e-9)
		}
		t.AddRow(
			fmt.Sprintf("%.2f", th),
			fmt.Sprintf("%d", res.Stats.AggressorPairs-res.Stats.Filtered),
			fmt.Sprintf("%d", res.Stats.Filtered),
			report.SI(worst, "V"),
			errStr,
			conservative,
			el.String(),
		)
	}
	return []*report.Table{t}, nil
}
