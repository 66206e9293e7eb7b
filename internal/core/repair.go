package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/bind"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/noise"
)

// A noise violation admits three classical physical repairs, in increasing
// order of cost: weaken the coupling (spacing or a shield on the worst
// aggressor), strengthen the victim's holding driver (upsizing), or slow
// the aggressor's edge (downsizing / buffering its driver). The advisor
// quantifies the first two for every violation using the same
// dominant-pole model the analysis ran with, so the suggested change is
// exactly the one that brings the combined peak back to the immunity limit
// with the configured margin.

// Repair is one suggested fix for a violation.
type Repair struct {
	Violation Violation
	// CouplingCut is the fraction of the dominant aggressor's coupling
	// capacitance that must be removed (by spacing or shielding) to meet
	// the limit, in (0, 1]. Zero when cutting that one coupling cannot
	// fix the violation alone.
	CouplingCut float64
	// DominantAggressor names the largest contributor to the violation.
	DominantAggressor string
	// HoldResFactor is the factor by which the victim driver's holding
	// resistance must shrink (i.e. the upsizing ratio) to meet the
	// limit; 1 means no change needed, 0 means upsizing alone cannot
	// fix it (e.g. the noise is dominated by propagated glitches).
	HoldResFactor float64
	// UpsizeTo names a library cell that achieves HoldResFactor, if one
	// exists in the same function family.
	UpsizeTo string
}

// Describe renders the repair as a single actionable sentence.
func (r *Repair) Describe() string {
	v := r.Violation
	s := fmt.Sprintf("net %s @ %s (%s, %.0f mV over)", v.Net, v.Receiver, v.Kind, -v.Slack*1e3)
	switch {
	case r.CouplingCut > 0 && r.CouplingCut < 1:
		s += fmt.Sprintf(": cut coupling to %s by %.0f%% (spacing/shield)",
			r.DominantAggressor, r.CouplingCut*100)
	case r.CouplingCut == 1:
		s += fmt.Sprintf(": fully shield against %s", r.DominantAggressor)
	}
	if r.UpsizeTo != "" {
		s += fmt.Sprintf("; or upsize victim driver to %s", r.UpsizeTo)
	} else if r.HoldResFactor > 0 && r.HoldResFactor < 1 {
		s += fmt.Sprintf("; or strengthen victim holding resistance by %.1fx", 1/r.HoldResFactor)
	}
	return s
}

// SuggestRepairsCtx computes a repair per violation of a completed
// analysis. margin is the extra headroom demanded below the immunity limit
// (e.g. 0.05 for 5 %); zero means repair exactly to the limit. The context
// is checked once per violation, each of which rebuilds the noise context
// for its net.
func SuggestRepairsCtx(ctx context.Context, b *bind.Design, res *Result, margin float64) ([]Repair, error) {
	if margin < 0 || margin >= 1 {
		return nil, fmt.Errorf("core: repair margin %g out of [0, 1)", margin)
	}
	var out []Repair
	for _, v := range res.Violations {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		net := b.Net.FindNet(v.Net)
		if net < 0 {
			return nil, fmt.Errorf("core: violation on unknown net %q", v.Net)
		}
		nctx, err := noise.BuildContext(b, net)
		if err != nil {
			return nil, err
		}
		target := v.Limit * (1 - margin)
		r := Repair{Violation: v}
		r.DominantAggressor, r.CouplingCut = couplingRepair(nctx, v, target)
		r.HoldResFactor = holdRepair(v, target)
		if r.HoldResFactor > 0 && r.HoldResFactor < 1 {
			r.UpsizeTo = upsizePick(b, net, r.HoldResFactor)
		}
		out = append(out, r)
	}
	return out, nil
}

// couplingRepair finds the dominant coupled member of the violating
// combination and the fraction of its coupling cap that must go. Peak is
// linear in C_x to first order, so removing ΔC from the dominant
// aggressor removes (ΔC/C_x)·peak_member from the combined peak.
func couplingRepair(ctx *noise.Context, v Violation, target float64) (string, float64) {
	dominant := ""
	var domC float64
	for _, m := range v.Members {
		if cpl := ctx.CouplingTo(m); cpl != nil && cpl.CoupleC > domC {
			dominant, domC = m, cpl.CoupleC
		}
	}
	if dominant == "" {
		return "", 0
	}
	excess := v.Peak - target
	// The dominant member's own contribution, proportional to its share
	// of the summed coupling among members.
	var memberC float64
	for _, m := range v.Members {
		if cpl := ctx.CouplingTo(m); cpl != nil {
			memberC += cpl.CoupleC
		}
	}
	if memberC <= 0 {
		return dominant, 0
	}
	domPeak := v.Peak * domC / memberC
	if domPeak <= 0 {
		return dominant, 0
	}
	cut := excess / domPeak
	if cut >= 1 {
		// Even removing the whole coupling is not enough by itself.
		if domPeak >= excess {
			return dominant, 1
		}
		return dominant, 0
	}
	return dominant, cut
}

// holdRepair computes the holding-resistance scale factor that brings the
// peak to target. The dominant-pole peak is proportional to R·(1−e^{−t/τ})
// with τ ∝ R; over the practical range it scales sublinearly with R, so
// scaling R by target/peak is conservative (shrinks R at least enough).
func holdRepair(v Violation, target float64) float64 {
	if v.Peak <= 0 {
		return 1
	}
	f := target / v.Peak
	if f >= 1 {
		return 1
	}
	if f <= 0 {
		return 0
	}
	return f
}

// upsizePick searches the victim driver's cell family (same name prefix
// before the "_X" drive suffix) for the weakest drive strength whose
// holding resistance is at most factor times the current one. It returns
// "" for port-driven nets or when no family member is strong enough.
func upsizePick(b *bind.Design, net netlist.NetID, factor float64) string {
	cell := b.DriverCell(net)
	if cell == nil {
		return ""
	}
	family := cell.Name
	if i := strings.LastIndex(family, "_X"); i >= 0 {
		family = family[:i]
	}
	targetHold := cell.HoldRes * factor
	var best *liberty.Cell
	for _, c := range b.Lib.Cells() {
		if c == cell || !strings.HasPrefix(c.Name, family+"_X") {
			continue
		}
		if c.HoldRes > targetHold {
			continue
		}
		if len(c.InputPins()) != len(cell.InputPins()) {
			continue
		}
		// Weakest sufficient candidate: largest holding resistance that
		// still meets the target (smallest area bump).
		if best == nil || c.HoldRes > best.HoldRes {
			best = c
		}
	}
	if best == nil {
		return ""
	}
	return best.Name
}
