package core

import (
	"strings"
	"testing"

	"repro/internal/interval"
	"repro/internal/sta"
	"repro/internal/units"
)

// TestUnresolvedAggressorMaySwitchAnyTime: a coupling whose partner the
// netlist does not have (reachable with -suppress SPF001,SPF002, or a direct
// bind) carries no switching window. Reading that as "never switches" drops
// the aggressor in the window modes — the unsafe direction. It must count
// as able to switch at any time: the victim's noise is at least what the
// same victim sees with the partner present and its window wide open, in
// every mode, and the victim carries a diagnostic saying so.
func TestUnresolvedAggressorMaySwitchAnyTime(t *testing.T) {
	const cx, cg = 6 * units.Femto, 2 * units.Femto
	inputs := staggeredInputs(2, 0, 50*units.Pico)
	wide := interval.SetOf(-1, 1) // two seconds: open for any instant the design knows
	slew := sta.Range{Min: 20 * units.Pico, Max: 20 * units.Pico}
	inputs["i_a1"] = &sta.Timing{Rise: wide, Fall: wide, SlewRise: slew, SlewFall: slew}
	for _, mode := range []Mode{ModeNoiseWindows, ModeTimingWindows, ModeAllAggressors} {
		// The assumed edge (defaultAggSlew, 20 ps) is no slower than the
		// inputs' real 20 ps ones, so the comparison is about the window alone.
		opts := Options{Mode: mode, STA: sta.Options{InputTiming: inputs}, FailSoft: true}
		present := analyze(t, busFixture(t, 2, cx, cg), opts)
		missing := analyze(t, busFixture(t, 2, cx, cg, "a1"), opts)
		for _, k := range Kinds {
			got, want := missing.Nets["v"].Comb[k].Peak, present.Nets["v"].Comb[k].Peak
			if want <= 0 || got < want {
				t.Errorf("%v victim-%v: peak %g with a1 missing from the netlist, %g with it present and wide open", mode, k, got, want)
			}
		}
		if len(missing.Diags) != 1 || missing.Diags[0].Net != "v" || missing.Diags[0].Degraded ||
			!strings.Contains(missing.Diags[0].Err.Error(), "aggressor a1 is not in the netlist") {
			t.Errorf("%v: diagnostics %v, want one for v naming a1, not degraded", mode, missing.Diags)
		}
		if len(present.Diags) != 0 {
			t.Errorf("%v: diagnostics %v on the complete design", mode, present.Diags)
		}
	}
}
