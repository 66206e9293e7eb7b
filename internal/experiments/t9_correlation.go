package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/liberty"
	"repro/internal/report"
	"repro/internal/units"
	"repro/internal/workload"
)

// T9Correlation measures logic-correlation filtering on complementary
// aggressor pairs: each pair is one input fanned into a true and an
// inverted branch, both coupled to a quiet victim, all switching in the
// same window — so timing windows alone cannot separate them, but logic
// says the two branches of a pair never make the same edge together.
// Expected shape: without correlation the combination counts all 2·N
// branches; with correlation it caps at N (one branch per pair), halving
// the reported peak, with timing untouched.
func T9Correlation(cfg Config) ([]*report.Table, error) {
	t := report.NewTable(
		"T9: logic correlation — complementary aggressor pairs",
		"pairs", "branches", "peak(no-corr)", "members", "peak(corr)", "members(corr)", "reduction")

	pairCounts := []int{1, 2, 4, 8}
	if cfg.Quick {
		pairCounts = []int{1, 3}
	}
	lib := liberty.Generic()
	for _, pairs := range pairCounts {
		g, err := workload.Differential(workload.DifferentialSpec{
			Pairs:   pairs,
			CoupleC: 3 * units.Femto,
			GroundC: 4 * units.Femto,
		})
		if err != nil {
			return nil, err
		}
		b, err := g.Bind(lib)
		if err != nil {
			return nil, err
		}
		run := func(corr bool) (core.Combined, error) {
			res, err := core.AnalyzeCtx(cfg.ctx(), b, core.Options{
				Mode:             core.ModeNoiseWindows,
				LogicCorrelation: corr,
				STA:              g.STAOptions(),
			})
			if err != nil {
				return core.Combined{}, err
			}
			return res.NoiseOf("v").Comb[core.KindLow], nil
		}
		plain, err := run(false)
		if err != nil {
			return nil, err
		}
		corr, err := run(true)
		if err != nil {
			return nil, err
		}
		reduction := "-"
		if plain.Peak > 0 {
			reduction = report.Percent(1 - corr.Peak/plain.Peak)
		}
		t.AddRow(
			fmt.Sprintf("%d", pairs),
			fmt.Sprintf("%d", 2*pairs),
			report.SI(plain.Peak, "V"),
			memberSummary(plain.Members),
			report.SI(corr.Peak, "V"),
			memberSummary(corr.Members),
			reduction,
		)
	}
	return []*report.Table{t}, nil
}

func memberSummary(members []string) string {
	if len(members) <= 4 {
		return strings.Join(members, "+")
	}
	return fmt.Sprintf("%d members", len(members))
}
