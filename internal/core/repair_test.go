package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/sta"
	"repro/internal/units"
)

func TestSuggestRepairsBasics(t *testing.T) {
	// Two aggressors: the dominant coupling's own contribution exceeds
	// the excess, so a partial coupling cut is a complete fix.
	b := busFixture(t, 2, 8*units.Femto, 1*units.Femto)
	inputs := staggeredInputs(2, 0, 50*units.Pico)
	res := analyze(t, b, Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}})
	if len(res.Violations) == 0 {
		t.Fatal("fixture produced no violations")
	}
	repairs, err := SuggestRepairsCtx(context.Background(), b, res, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(repairs) != len(res.Violations) {
		t.Fatalf("repairs = %d, violations = %d", len(repairs), len(res.Violations))
	}
	r := repairs[0]
	if r.DominantAggressor == "" {
		t.Fatalf("no dominant aggressor: %+v", r)
	}
	if r.CouplingCut <= 0 || r.CouplingCut > 1 {
		t.Fatalf("coupling cut = %g", r.CouplingCut)
	}
	if r.HoldResFactor <= 0 || r.HoldResFactor >= 1 {
		t.Fatalf("hold factor = %g", r.HoldResFactor)
	}
	// The generic library has stronger inverters than the INV_X1 victim
	// driver; some upsizing target should exist unless the needed factor
	// is below the strongest cell.
	desc := r.Describe()
	for _, want := range []string{"net v", "coupling", "mV over"} {
		if !strings.Contains(desc, want) {
			t.Errorf("Describe() = %q missing %q", desc, want)
		}
	}
}

func TestRepairUpsizeTarget(t *testing.T) {
	// Victim driven by INV_X1 (hold 4.8 kΩ): factors down to 600/4800 =
	// 0.125 are achievable within the INV family (X8).
	b := busFixture(t, 4, 8*units.Femto, 1*units.Femto)
	inputs := staggeredInputs(4, 0, 50*units.Pico)
	res := analyze(t, b, Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}})
	repairs, err := SuggestRepairsCtx(context.Background(), b, res, 0)
	if err != nil {
		t.Fatal(err)
	}
	foundUpsize := false
	for _, r := range repairs {
		if r.UpsizeTo != "" {
			foundUpsize = true
			if !strings.HasPrefix(r.UpsizeTo, "INV_X") {
				t.Fatalf("upsize target %q not in the INV family", r.UpsizeTo)
			}
			if r.UpsizeTo == "INV_X1" {
				t.Fatal("suggested the same cell")
			}
		}
	}
	if !foundUpsize {
		t.Log("no upsize target found (needed factor below strongest cell); acceptable")
	}
}

func TestRepairCouplingCutInsufficientAlone(t *testing.T) {
	// Four equal aggressors: the excess exceeds any one coupling's
	// contribution, so the advisor must report that a single cut cannot
	// fix it (CouplingCut == 0) while still naming the dominant source.
	b := busFixture(t, 4, 8*units.Femto, 1*units.Femto)
	inputs := staggeredInputs(4, 0, 50*units.Pico)
	res := analyze(t, b, Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}})
	repairs, err := SuggestRepairsCtx(context.Background(), b, res, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(repairs) == 0 {
		t.Fatal("no repairs")
	}
	r := repairs[0]
	if r.DominantAggressor == "" {
		t.Fatal("dominant aggressor missing")
	}
	if r.CouplingCut != 0 {
		t.Fatalf("cut = %g, want 0 (single cut insufficient)", r.CouplingCut)
	}
}

func TestRepairMarginValidation(t *testing.T) {
	b := busFixture(t, 2, 8*units.Femto, 1*units.Femto)
	inputs := staggeredInputs(2, 0, 50*units.Pico)
	res := analyze(t, b, Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}})
	if _, err := SuggestRepairsCtx(context.Background(), b, res, -0.1); err == nil {
		t.Fatal("negative margin accepted")
	}
	if _, err := SuggestRepairsCtx(context.Background(), b, res, 1.0); err == nil {
		t.Fatal("margin 1 accepted")
	}
}

func TestRepairCleanDesignEmpty(t *testing.T) {
	b := busFixture(t, 2, 1*units.Femto, 30*units.Femto)
	inputs := staggeredInputs(2, 0, 50*units.Pico)
	res := analyze(t, b, Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}})
	if len(res.Violations) != 0 {
		t.Fatal("weakly coupled fixture violated")
	}
	repairs, err := SuggestRepairsCtx(context.Background(), b, res, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(repairs) != 0 {
		t.Fatalf("repairs on clean design: %+v", repairs)
	}
}

func TestHoldRepairBounds(t *testing.T) {
	v := Violation{Peak: 0.8}
	if f := holdRepair(v, 0.9); f != 1 {
		t.Fatalf("already passing factor = %g", f)
	}
	if f := holdRepair(v, 0.4); f != 0.5 {
		t.Fatalf("factor = %g, want 0.5", f)
	}
	if f := holdRepair(v, 0); f != 0 {
		t.Fatalf("zero target factor = %g", f)
	}
	if f := holdRepair(Violation{Peak: 0}, 0.5); f != 1 {
		t.Fatalf("zero peak factor = %g", f)
	}
}
