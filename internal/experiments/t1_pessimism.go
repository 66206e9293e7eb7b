package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/liberty"
	"repro/internal/report"
	"repro/internal/units"
	"repro/internal/workload"
)

// T1Pessimism reproduces the paper's headline table: the number of noise
// violations and the aggregate noise reported under the three combination
// policies, across coupled buses (staggered windows) and random logic
// fabrics. Expected shape: both windowed analyses remove a large fraction
// of the classical pessimism whenever windows are staggered; the sound
// noise-window analysis (tent occupancy) sits at or slightly above the
// classical timing-window baseline, which is optimistic against partial
// tail overlap (see T11/A1).
func T1Pessimism(cfg Config) ([]*report.Table, error) {
	t := report.NewTable(
		"T1: pessimism reduction — violations and total noise by combination policy",
		"design", "nets", "couplings", "mode", "violations", "total-noise", "worst-victim", "vs-all-aggr")

	sizes := []int{16, 32, 64}
	if cfg.Quick {
		sizes = []int{8, 16}
	}
	lib := liberty.Generic()
	modes := []core.Mode{core.ModeAllAggressors, core.ModeTimingWindows, core.ModeNoiseWindows}

	for _, bits := range sizes {
		g, err := workload.Bus(workload.BusSpec{
			Bits: bits, Segs: 2,
			CoupleC: 8 * units.Femto, GroundC: 1 * units.Femto,
			// 250 ps stagger: a victim's two aggressors switch 500 ps
			// apart, comfortably beyond the ~300 ps noise-window span
			// set by the (slow) aggressor slew into the coupled load.
			WindowSep: 250 * units.Pico, WindowWidth: 80 * units.Pico,
		})
		if err != nil {
			return nil, err
		}
		if err := runT1Design(cfg, t, g, lib, fmt.Sprintf("bus%d", bits), modes); err != nil {
			return nil, err
		}
	}

	fabrics := []workload.FabricSpec{
		{Width: 12, Levels: 8, CoupleC: 5 * units.Femto, CouplingDensity: 2.5, GroundC: 1.5 * units.Femto, Seed: 1},
		{Width: 20, Levels: 12, CoupleC: 5 * units.Femto, CouplingDensity: 2.5, GroundC: 1.5 * units.Femto, Seed: 2},
	}
	if cfg.Quick {
		fabrics = fabrics[:1]
		fabrics[0].Width, fabrics[0].Levels = 8, 5
	}
	for _, fs := range fabrics {
		g, err := workload.Fabric(fs)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("fabric%dx%d", fs.Width, fs.Levels)
		if err := runT1Design(cfg, t, g, lib, name, modes); err != nil {
			return nil, err
		}
	}
	return []*report.Table{t}, nil
}

func runT1Design(cfg Config, t *report.Table, g *workload.Generated, lib *liberty.Library, name string, modes []core.Mode) error {
	b, err := g.Bind(lib)
	if err != nil {
		return err
	}
	var baseViol int
	var baseNoise float64
	for i, mode := range modes {
		res, err := core.AnalyzeCtx(cfg.ctx(), b, core.Options{Mode: mode, STA: g.STAOptions()})
		if err != nil {
			return err
		}
		worst := 0.0
		for _, nn := range res.Nets {
			if p := nn.WorstPeak(); p > worst {
				worst = p
			}
		}
		nViol := len(res.Violations)
		noise := res.TotalNoise()
		reduction := "-"
		if i == 0 {
			baseViol, baseNoise = nViol, noise
		} else if baseViol > 0 {
			reduction = fmt.Sprintf("-%d viol, %s noise",
				baseViol-nViol, report.Percent(1-noise/baseNoise))
		} else if baseNoise > 0 {
			reduction = report.Percent(1-noise/baseNoise) + " noise"
		}
		t.AddRow(
			name,
			fmt.Sprintf("%d", b.Net.NumNets()),
			fmt.Sprintf("%d", res.Stats.AggressorPairs),
			mode.String(),
			fmt.Sprintf("%d", nViol),
			report.SI(noise, "V"),
			report.SI(worst, "V"),
			reduction,
		)
	}
	return nil
}
