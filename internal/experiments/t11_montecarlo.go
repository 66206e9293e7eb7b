package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/liberty"
	"repro/internal/report"
	"repro/internal/units"
	"repro/internal/workload"
)

// T11MonteCarlo measures how tight the windowed bound is: aggressor edge
// times are sampled uniformly inside their switching windows, the combined
// glitch at the victim is evaluated for each sample (triangular templates,
// the same shapes the analyzer reasons about), and the empirical maximum
// and quantiles are compared against the windowed and classical static
// bounds. Expected shape: windowed bound ≥ empirical max ≥ p99 ≫ median
// (alignment is rare under random arrival), and the windowed bound is far
// tighter than the classical one whenever the windows stagger.
func T11MonteCarlo(cfg Config) ([]*report.Table, error) {
	t := report.NewTable(
		"T11: Monte Carlo alignment sampling vs static bounds",
		"stagger", "samples", "median", "p99", "max-sampled", "windowed-bound", "classical-bound", "sound")

	staggers := []float64{0, 100, 300} // ps
	samples := 20000
	if cfg.Quick {
		staggers = []float64{0, 300}
		samples = 2000
	}
	lib := liberty.Generic()
	rng := rand.New(rand.NewSource(99))
	const nAgg = 4
	for _, sepPS := range staggers {
		sep := sepPS * units.Pico
		windows := make([]interval.Window, nAgg)
		for i := range windows {
			lo := float64(i) * sep
			windows[i] = interval.New(lo, lo+60*units.Pico) //snavet:nanguard lo is i*sep over a literal table of finite stagger values
		}
		g, err := workload.Star(workload.StarSpec{
			Windows: windows,
			CoupleC: 3 * units.Femto,
			GroundC: 10 * units.Femto,
		})
		if err != nil {
			return nil, err
		}
		b, err := g.Bind(lib)
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
		nn := resC.NoiseOf("v")
		events := nn.Events[core.KindLow]
		if len(events) != nAgg {
			return nil, fmt.Errorf("experiments: expected %d events, have %d", nAgg, len(events))
		}

		// Sample: each glitch's peak instant uniform in its noise window;
		// the sample's combined peak is the max over time of the summed
		// triangular templates.
		peaks := make([]float64, samples)
		for s := 0; s < samples; s++ {
			var best float64
			// Evaluate the sum at each glitch's sampled peak instant —
			// for triangle sums the maximum lies at one of the peaks.
			times := make([]float64, len(events))
			for i, e := range events {
				times[i] = e.Window.Lo + rng.Float64()*e.Window.Length()
			}
			for _, t0 := range times {
				var sum float64
				for i, e := range events {
					d := t0 - times[i]
					if d < 0 {
						d = -d
					}
					if d < e.Width {
						sum += e.Peak * (1 - d/e.Width)
					}
				}
				if sum > best {
					best = sum
				}
			}
			peaks[s] = best
		}
		sort.Float64s(peaks)
		bound := nn.Comb[core.KindLow].Peak
		classical := resA.NoiseOf("v").Comb[core.KindLow].Peak
		maxSampled := peaks[len(peaks)-1]
		t.AddRow(
			report.SI(sep, "s"),
			fmt.Sprintf("%d", samples),
			report.SI(peaks[len(peaks)/2], "V"),
			report.SI(peaks[len(peaks)*99/100], "V"),
			report.SI(maxSampled, "V"),
			report.SI(bound, "V"),
			report.SI(classical, "V"),
			fmt.Sprintf("%v", bound >= maxSampled-1e-9),
		)
	}
	return []*report.Table{t}, nil
}
