package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/liberty"
	"repro/internal/noise"
	"repro/internal/report"
	"repro/internal/units"
	"repro/internal/waveform"
	"repro/internal/workload"
)

// F3Waveform validates the combined-glitch waveform reconstruction
// (core.NetNoise.CombinedWaveform, triangular member templates summed at
// the alignment instant) against the MNA golden simulation of the same
// aligned cluster. Expected shape: the reconstructed peak matches the
// analytical combined peak, stays conservative (at or above golden), and
// the half-peak width tracks the golden width within the template's
// fidelity (tens of percent — the triangle is a reporting shape, not a
// solver).
func F3Waveform(cfg Config) ([]*report.Table, error) {
	t := report.NewTable(
		"F3: combined-waveform reconstruction vs golden simulation",
		"aggressors", "recon-peak", "golden-peak", "peak-err", "recon-width", "golden-width", "conservative")

	counts := []int{1, 2, 3, 4}
	if cfg.Quick {
		counts = []int{1, 3}
	}
	lib := liberty.Generic()
	for _, n := range counts {
		windows := make([]interval.Window, n)
		for i := range windows {
			windows[i] = interval.New(0, 60*units.Pico)
		}
		g, err := workload.Star(workload.StarSpec{
			Windows: windows,
			CoupleC: 3 * units.Femto,
			GroundC: 12 * units.Femto,
		})
		if err != nil {
			return nil, err
		}
		b, err := g.Bind(lib)
		if err != nil {
			return nil, err
		}
		res, err := core.AnalyzeCtx(cfg.ctx(), b, core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions()})
		if err != nil {
			return nil, err
		}
		nn := res.NoiseOf("v")
		recon := waveform.MeasureGlitch(nn.CombinedWaveform(core.KindLow))

		// Golden: the same cluster with every aggressor's rising edge
		// aligned, using the STA slews the analysis saw.
		ctx, err := noise.BuildContext(b, b.Net.FindNet("v"))
		if err != nil {
			return nil, err
		}
		var aggs []noise.ClusterAggressor
		for i := range ctx.Couplings {
			slew := res.STA.TimingOf(ctx.Couplings[i].Agg).SlewRise.Min
			if math.IsInf(slew, 0) || slew <= 0 {
				return nil, fmt.Errorf("experiments: no slew for %s", ctx.Couplings[i].Aggressor)
			}
			aggs = append(aggs, noise.ClusterAggressor{
				Coupling: &ctx.Couplings[i],
				Slew:     slew,
				Rise:     true,
			})
		}
		drive := b.DriveRes(b.Net.FindNet(ctx.Couplings[0].Aggressor))
		golden, err := noise.SimulateCluster(ctx, aggs, drive, lib.Vdd)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%d", n),
			report.SI(recon.Peak, "V"),
			report.SI(golden.Peak, "V"),
			report.Percent(units.RelErr(recon.Peak, golden.Peak, 1e-3)),
			report.SI(recon.Width, "s"),
			report.SI(golden.Width, "s"),
			fmt.Sprintf("%v", recon.Peak >= golden.Peak*0.98),
		)
	}
	return []*report.Table{t}, nil
}
