package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/interval"
	"repro/internal/sta"
	"repro/internal/units"
)

func windowAt(lo, width float64) interval.Window {
	return interval.New(lo, lo+width)
}

func TestDelayImpactBasics(t *testing.T) {
	// Victim and aggressors all switch in overlapping windows: opposing
	// edges push the victim's delay out in every mode.
	b := busFixture(t, 2, 4*units.Femto, 10*units.Femto)
	inputs := staggeredInputs(2, 0, 80*units.Pico)
	// Let the victim switch too (same window as the aggressors).
	inputs["i_v"] = inputs["i_a0"]
	res, err := AnalyzeDelayCtx(context.Background(), b, Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}})
	if err != nil {
		t.Fatal(err)
	}
	im := res.ImpactOn("v", true)
	if im == nil {
		t.Fatalf("no rise impact on v; impacts = %+v", res.Impacts)
	}
	if im.NoisePeak <= 0 || im.Delta <= 0 {
		t.Fatalf("impact = %+v", im)
	}
	if len(im.Members) == 0 {
		t.Fatal("no members")
	}
	if im.VictimWindow.IntersectWindow(interval.Point(im.At)).IsEmpty() && a(im.At) {
		t.Fatalf("At %g outside victim window %v", im.At, im.VictimWindow)
	}
	if res.WorstDelta() < im.Delta {
		t.Fatal("WorstDelta below a member impact")
	}
}

func a(v float64) bool { return !math.IsNaN(v) }

func TestDelayWindowsRemovePessimism(t *testing.T) {
	// The victim switches early; aggressors switch far later. With
	// windows the opposing noise cannot hit the victim edge; without
	// them it always does.
	b := busFixture(t, 2, 4*units.Femto, 10*units.Femto)
	inputs := staggeredInputs(2, 5000*units.Pico, 80*units.Pico)
	// Victim switches at t≈0; aggressors at 5 ns and 10 ns.
	inputs["i_v"] = inputs["i_a0"]
	inputs["i_a0"] = timingAt(5000*units.Pico, 80*units.Pico)
	inputs["i_a1"] = timingAt(10000*units.Pico, 80*units.Pico)

	resA, err := AnalyzeDelayCtx(context.Background(), b, Options{Mode: ModeAllAggressors, STA: sta.Options{InputTiming: inputs}})
	if err != nil {
		t.Fatal(err)
	}
	resC, err := AnalyzeDelayCtx(context.Background(), b, Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}})
	if err != nil {
		t.Fatal(err)
	}
	imA := resA.ImpactOn("v", true)
	if imA == nil || imA.Delta <= 0 {
		t.Fatalf("all-aggressors impact missing: %+v", resA.Impacts)
	}
	if imC := resC.ImpactOn("v", true); imC != nil && imC.Delta > delayTol {
		t.Fatalf("windowed analysis kept impossible delay impact: %+v", imC)
	}
}

func timingAt(lo, width float64) *sta.Timing {
	w := interval.NewSet(windowAt(lo, width))
	slew := sta.Range{Min: 20 * units.Pico, Max: 20 * units.Pico}
	return &sta.Timing{Rise: w, Fall: w, SlewRise: slew, SlewFall: slew}
}

func TestDelayModeOrdering(t *testing.T) {
	// Windowed total delay pessimism never exceeds the classical bound.
	for _, sep := range []float64{0, 100 * units.Pico, 2000 * units.Pico} {
		b := busFixture(t, 3, 3*units.Femto, 10*units.Femto)
		inputs := staggeredInputs(3, sep, 80*units.Pico)
		inputs["i_v"] = timingAt(0, 80*units.Pico)
		dA, err := AnalyzeDelayCtx(context.Background(), b, Options{Mode: ModeAllAggressors, STA: sta.Options{InputTiming: inputs}})
		if err != nil {
			t.Fatal(err)
		}
		dC, err := AnalyzeDelayCtx(context.Background(), b, Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}})
		if err != nil {
			t.Fatal(err)
		}
		if totalDelta(dC) > totalDelta(dA)+delayTol {
			t.Fatalf("sep %g: windowed delta %g exceeds classical %g",
				sep, totalDelta(dC), totalDelta(dA))
		}
	}
}

func TestDelayQuietVictimNoImpact(t *testing.T) {
	// A victim that never switches has no delay to disturb.
	b := busFixture(t, 2, 4*units.Femto, 10*units.Femto)
	inputs := staggeredInputs(2, 0, 80*units.Pico) // i_v quiet by default
	res, err := AnalyzeDelayCtx(context.Background(), b, Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}})
	if err != nil {
		t.Fatal(err)
	}
	if im := res.ImpactOn("v", true); im != nil {
		t.Fatalf("quiet victim has impact: %+v", im)
	}
}

func TestDelayImpactsSorted(t *testing.T) {
	b := busFixture(t, 4, 3*units.Femto, 10*units.Femto)
	inputs := staggeredInputs(4, 0, 80*units.Pico)
	inputs["i_v"] = timingAt(0, 80*units.Pico)
	res, err := AnalyzeDelayCtx(context.Background(), b, Options{Mode: ModeAllAggressors, STA: sta.Options{InputTiming: inputs}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Impacts); i++ {
		if res.Impacts[i].Delta > res.Impacts[i-1].Delta {
			t.Fatal("impacts not sorted by delta")
		}
	}
	if res.ImpactOn("ghost", true) != nil {
		t.Fatal("impact on unknown net")
	}
}

// totalDelta sums every impact: the aggregate delay pessimism of a mode.
func totalDelta(r *DelayResult) float64 {
	var s float64
	for _, im := range r.Impacts {
		s += im.Delta
	}
	return s
}
