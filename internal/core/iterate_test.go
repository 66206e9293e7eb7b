package core

import (
	"context"
	"testing"

	"repro/internal/sta"
	"repro/internal/units"
)

func TestIterativeConvergesOnQuietVictims(t *testing.T) {
	// Quiet victim: no switching, no delta-delay, loop converges in one
	// round with zero padding.
	b := busFixture(t, 2, 4*units.Femto, 10*units.Femto)
	inputs := staggeredInputs(2, 0, 60*units.Pico)
	res, err := AnalyzeIterativeCtx(context.Background(), b, Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Rounds != 1 {
		t.Fatalf("rounds=%d converged=%v", res.Rounds, res.Converged)
	}
	if res.MaxPadding() != 0 {
		t.Fatalf("padding = %g", res.MaxPadding())
	}
	if res.Noise == nil || res.Delay == nil {
		t.Fatal("missing result components")
	}
}

func TestIterativeConvergesWithDeltaFeedback(t *testing.T) {
	// Everything switches together: delta-delays exist, get folded into
	// window padding, and the loop still reaches a fixpoint.
	b := busFixture(t, 3, 4*units.Femto, 8*units.Femto)
	inputs := staggeredInputs(3, 0, 60*units.Pico)
	inputs["i_v"] = timingAt(0, 60*units.Pico)
	res, err := AnalyzeIterativeCtx(context.Background(), b, Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d rounds (padding %g)", res.Rounds, res.MaxPadding())
	}
	if res.Rounds < 2 {
		t.Fatalf("rounds = %d, want ≥ 2 (delta feedback must trigger a second round)", res.Rounds)
	}
	if res.MaxPadding() <= 0 {
		t.Fatal("no padding despite delay impacts")
	}
	// The victim's window in the final round is wider than in a plain
	// run: padding made the late edge later.
	plain, err := AnalyzeCtx(context.Background(), b, Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}})
	if err != nil {
		t.Fatal(err)
	}
	wPlain := plain.STA.TimingOf(b.Net.FindNet("v")).Rise.Hull()
	wIter := res.Noise.STA.TimingOf(b.Net.FindNet("v")).Rise.Hull()
	if !(wIter.Hi > wPlain.Hi) {
		t.Fatalf("padded window %v not later than plain %v", wIter, wPlain)
	}
	if wIter.Lo != wPlain.Lo {
		t.Fatalf("padding moved the early edge: %v vs %v", wIter, wPlain)
	}
}

func TestIterativePaddingMonotone(t *testing.T) {
	// Final noise under padded windows can only be ≥ the unpadded run
	// (windows grew, more overlap possible).
	b := busFixture(t, 3, 4*units.Femto, 8*units.Femto)
	inputs := staggeredInputs(3, 100*units.Pico, 60*units.Pico)
	inputs["i_v"] = timingAt(0, 60*units.Pico)
	opts := Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}}
	iter, err := AnalyzeIterativeCtx(context.Background(), b, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := AnalyzeCtx(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if iter.Noise.TotalNoise() < plain.TotalNoise()-1e-9 {
		t.Fatalf("padded analysis lost noise: %g vs %g",
			iter.Noise.TotalNoise(), plain.TotalNoise())
	}
}

func TestIterativeNonConvergenceReportsDiverging(t *testing.T) {
	// The delta-feedback fixture needs at least two rounds to settle;
	// capping at one round leaves the padding still growing when the
	// budget runs out, which must surface as Diverging, never as a
	// silent Converged=false.
	b := busFixture(t, 3, 4*units.Femto, 8*units.Femto)
	inputs := staggeredInputs(3, 0, 60*units.Pico)
	inputs["i_v"] = timingAt(0, 60*units.Pico)
	res, err := AnalyzeIterativeCtx(context.Background(), b, Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("one round cannot converge this fixture")
	}
	if !res.Diverging || res.DivergeReason == "" {
		t.Fatalf("Diverging=%v reason=%q, want divergence diagnostic", res.Diverging, res.DivergeReason)
	}
	if res.Rounds != 1 || res.MaxPadding() <= 0 {
		t.Fatalf("rounds=%d padding=%g", res.Rounds, res.MaxPadding())
	}
}

func TestIterativeConvergedNeverDiverging(t *testing.T) {
	b := busFixture(t, 2, 4*units.Femto, 10*units.Femto)
	inputs := staggeredInputs(2, 0, 60*units.Pico)
	res, err := AnalyzeIterativeCtx(context.Background(), b, Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Diverging || res.DivergeReason != "" {
		t.Fatalf("converged=%v diverging=%v reason=%q", res.Converged, res.Diverging, res.DivergeReason)
	}
}
