package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/liberty"
	"repro/internal/report"
	"repro/internal/units"
	"repro/internal/workload"
)

// T4Convergence measures the propagation fixpoint iteration: how many
// passes windowed noise analysis needs on deep fabrics with reconvergence
// and on strongly coupled buses whose glitches propagate several stages.
// Expected shape: convergence in a handful of passes (sub-unity noise
// transfer gain makes propagation a contraction), insensitive to design
// size.
func T4Convergence(cfg Config) ([]*report.Table, error) {
	t := report.NewTable(
		"T4: propagation fixpoint convergence",
		"design", "nets", "couplings", "propagated-events", "iterations", "converged")

	type gen struct {
		name string
		g    *workload.Generated
	}
	var gens []gen

	fabSpecs := []workload.FabricSpec{
		{Width: 10, Levels: 6, CoupleC: 6 * units.Femto, CouplingDensity: 3, GroundC: 1 * units.Femto, Seed: 5},
		{Width: 16, Levels: 12, CoupleC: 6 * units.Femto, CouplingDensity: 3, GroundC: 1 * units.Femto, Seed: 6},
		{Width: 24, Levels: 16, CoupleC: 6 * units.Femto, CouplingDensity: 3, GroundC: 1 * units.Femto, Seed: 7},
	}
	if cfg.Quick {
		fabSpecs = fabSpecs[:1]
	}
	for _, fs := range fabSpecs {
		g, err := workload.Fabric(fs)
		if err != nil {
			return nil, err
		}
		gens = append(gens, gen{fmt.Sprintf("fabric%dx%d", fs.Width, fs.Levels), g})
	}
	depths := []int{4, 8, 16}
	if cfg.Quick {
		depths = []int{4}
	}
	for _, depth := range depths {
		g, err := workload.Chain(workload.ChainSpec{Depth: depth, CoupleC: 8 * units.Femto, GroundC: 1 * units.Femto})
		if err != nil {
			return nil, err
		}
		gens = append(gens, gen{fmt.Sprintf("chain%d", depth), g})
	}

	lib := liberty.Generic()
	for _, ge := range gens {
		b, err := ge.g.Bind(lib)
		if err != nil {
			return nil, err
		}
		res, err := core.AnalyzeCtx(cfg.ctx(), b, core.Options{Mode: core.ModeNoiseWindows, STA: ge.g.STAOptions()})
		if err != nil {
			return nil, err
		}
		t.AddRow(
			ge.name,
			fmt.Sprintf("%d", b.Net.NumNets()),
			fmt.Sprintf("%d", res.Stats.AggressorPairs),
			fmt.Sprintf("%d", res.Stats.Propagated),
			fmt.Sprintf("%d", res.Stats.Iterations),
			fmt.Sprintf("%v", res.Stats.Converged),
		)
	}
	return []*report.Table{t}, nil
}
