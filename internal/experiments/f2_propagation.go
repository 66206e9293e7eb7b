package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/liberty"
	"repro/internal/report"
	"repro/internal/units"
	"repro/internal/workload"
)

// F2Propagation regenerates the propagation figure: a strong glitch is
// injected on the head of a gate chain and the per-stage peak, width, and
// noise window are reported. Expected shape: monotone peak attenuation
// (extinction once below the transfer threshold), width growth by the
// per-stage delay spread, and windows marching later by one gate delay per
// stage — exactly the bookkeeping that lets downstream combination stay
// windowed instead of pessimistic.
func F2Propagation(cfg Config) ([]*report.Table, error) {
	depth := 8
	if cfg.Quick {
		depth = 4
	}
	t := report.NewTable(
		fmt.Sprintf("F2: noise propagation down a %d-stage inverter chain", depth),
		"stage", "net", "peak", "width", "window", "state")

	g, err := workload.Chain(workload.ChainSpec{
		Depth:   depth,
		CoupleC: 10 * units.Femto,
		GroundC: 1 * units.Femto,
	})
	if err != nil {
		return nil, err
	}
	b, err := g.Bind(liberty.Generic())
	if err != nil {
		return nil, err
	}
	res, err := core.AnalyzeCtx(cfg.ctx(), b, core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions()})
	if err != nil {
		return nil, err
	}
	for s := 0; s <= depth; s++ {
		net := fmt.Sprintf("v%d", s)
		if s == depth {
			net = "out"
		}
		nn := res.NoiseOf(net)
		if nn == nil {
			continue
		}
		// Pick the active kind (polarity alternates down the inverter
		// chain).
		var comb core.Combined
		state := "-"
		for _, k := range core.Kinds {
			if nn.Comb[k].Peak > comb.Peak {
				comb = nn.Comb[k]
				state = k.String()
			}
		}
		t.AddRow(
			fmt.Sprintf("%d", s),
			net,
			report.SI(comb.Peak, "V"),
			report.SI(comb.Width, "s"),
			comb.Window.String(),
			state,
		)
	}
	return []*report.Table{t}, nil
}
