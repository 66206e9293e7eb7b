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

// T10Iteration runs the joint noise–timing loop: crosstalk delta-delays
// widen switching windows, wider windows change the noise picture, and the
// outer iteration repeats until the per-net window padding stops growing.
// Expected shape: convergence in a small number of rounds on every design,
// with padding bounded by the worst single-edge push-out and the final
// noise slightly above the first round's (wider windows can only add
// overlap).
func T10Iteration(cfg Config) ([]*report.Table, error) {
	t := report.NewTable(
		"T10: noise–timing iteration to fixpoint",
		"design", "rounds", "converged", "max-padding", "worst-delta", "noise-r1-vs-final")

	type gen struct {
		name string
		g    *workload.Generated
	}
	var gens []gen
	busBits := []int{8, 16, 32}
	if cfg.Quick {
		busBits = []int{8}
	}
	for _, bits := range busBits {
		g, err := workload.Bus(workload.BusSpec{
			Bits: bits, Segs: 2,
			CoupleC: 6 * units.Femto, GroundC: 2 * units.Femto,
			WindowSep: 40 * units.Pico, WindowWidth: 80 * units.Pico,
		})
		if err != nil {
			return nil, err
		}
		gens = append(gens, gen{fmt.Sprintf("bus%d", bits), g})
	}
	if !cfg.Quick {
		g, err := workload.Fabric(workload.FabricSpec{
			Width: 12, Levels: 8,
			CoupleC: 5 * units.Femto, CouplingDensity: 2.5, Seed: 4,
		})
		if err != nil {
			return nil, err
		}
		gens = append(gens, gen{"fabric12x8", g})
	}

	lib := liberty.Generic()
	for _, ge := range gens {
		b, err := ge.g.Bind(lib)
		if err != nil {
			return nil, err
		}
		opts := core.Options{Mode: core.ModeNoiseWindows, STA: sta.Options{InputTiming: ge.g.Inputs}}
		first, err := core.AnalyzeCtx(cfg.ctx(), b, opts)
		if err != nil {
			return nil, err
		}
		iter, err := core.AnalyzeIterativeCtx(cfg.ctx(), b, opts, 0)
		if err != nil {
			return nil, err
		}
		ratio := 1.0
		if first.TotalNoise() > 0 {
			ratio = iter.Noise.TotalNoise() / first.TotalNoise()
		}
		t.AddRow(
			ge.name,
			fmt.Sprintf("%d", iter.Rounds),
			fmt.Sprintf("%v", iter.Converged),
			report.SI(iter.MaxPadding(), "s"),
			report.SI(iter.Delay.WorstDelta(), "s"),
			fmt.Sprintf("%.3f", ratio),
		)
	}
	return []*report.Table{t}, nil
}
