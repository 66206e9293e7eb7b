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

// T3Runtime measures analysis wall time and scaling across design sizes
// for all three modes, plus the parallel preparation path. Expected shape:
// near-linear growth in the number of couplings, window bookkeeping adding
// a modest constant factor over the all-aggressors baseline (the windowed
// scan-line is O(n log n) in the events per victim). The workers column is
// reported honestly: with closed-form glitch metrics the per-victim
// preparation is light on these workloads, so the pool's scheduling
// overhead roughly cancels its gain — it exists for designs whose contexts
// are expensive (very high coupling counts per victim).
func T3Runtime(cfg Config) ([]*report.Table, error) {
	t := report.NewTable(
		"T3: runtime scaling by design size and mode",
		"design", "nets", "couplings", "mode", "workers", "runtime", "per-coupling")

	sizes := []int{16, 32, 64, 128}
	if cfg.Quick {
		sizes = []int{8, 16}
	}
	lib := liberty.Generic()
	for _, bits := range sizes {
		g, err := workload.Bus(workload.BusSpec{
			Bits: bits, Segs: 2,
			WindowSep: 60 * units.Pico, WindowWidth: 80 * units.Pico,
		})
		if err != nil {
			return nil, err
		}
		b, err := g.Bind(lib)
		if err != nil {
			return nil, err
		}
		type variant struct {
			mode    core.Mode
			workers int
		}
		variants := []variant{
			{core.ModeAllAggressors, 1},
			{core.ModeTimingWindows, 1},
			{core.ModeNoiseWindows, 1},
			{core.ModeNoiseWindows, 4},
		}
		for _, v := range variants {
			opts := core.Options{Mode: v.mode, Workers: v.workers, STA: g.STAOptions()}
			// Warm once (bind caches RC analyses), then time.
			if _, err := core.AnalyzeCtx(cfg.ctx(), b, opts); err != nil {
				return nil, err
			}
			reps := 3
			start := time.Now()
			var pairs int
			for r := 0; r < reps; r++ {
				res, err := core.AnalyzeCtx(cfg.ctx(), b, opts)
				if err != nil {
					return nil, err
				}
				pairs = res.Stats.AggressorPairs
			}
			el := time.Since(start) / time.Duration(reps)
			per := time.Duration(0)
			if pairs > 0 {
				per = el / time.Duration(pairs)
			}
			t.AddRow(
				fmt.Sprintf("bus%d", bits),
				fmt.Sprintf("%d", b.Net.NumNets()),
				fmt.Sprintf("%d", pairs),
				v.mode.String(),
				fmt.Sprintf("%d", v.workers),
				el.String(),
				per.String(),
			)
		}
	}
	return []*report.Table{t}, nil
}
