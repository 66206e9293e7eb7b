package workload

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/liberty"
	"repro/internal/units"
)

func TestStarGeneratesValidDesign(t *testing.T) {
	g, err := Star(StarSpec{Windows: []interval.Window{
		interval.New(0, 50*units.Pico),
		interval.New(0, 50*units.Pico),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Design.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Bind(liberty.Generic()); err != nil {
		t.Fatal(err)
	}
}

func TestStarRejectsEmpty(t *testing.T) {
	if _, err := Star(StarSpec{}); err == nil {
		t.Fatal("empty star accepted")
	}
}

func TestStarWindowControlDrivesAlignment(t *testing.T) {
	run := func(offset float64) float64 {
		g, err := Star(StarSpec{Windows: []interval.Window{
			interval.New(0, 40*units.Pico),
			interval.New(offset, offset+40*units.Pico),
		}})
		if err != nil {
			t.Fatal(err)
		}
		b, err := g.Bind(liberty.Generic())
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.AnalyzeCtx(context.Background(), b, core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions()})
		if err != nil {
			t.Fatal(err)
		}
		return res.NoiseOf("v").Comb[core.KindLow].Peak
	}
	aligned := run(0)
	apart := run(5000 * units.Pico)
	if !(apart < aligned) {
		t.Fatalf("separated windows peak %g not below aligned %g", apart, aligned)
	}
	// Separated: single aggressor; aligned: two → about double.
	if math.Abs(aligned-2*apart) > 0.15*aligned {
		t.Fatalf("aligned %g vs 2x apart %g", aligned, 2*apart)
	}
}
