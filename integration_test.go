package repro

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/noise"
	"repro/internal/spef"
	"repro/internal/sta"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestPipelineFileRoundTrip drives the exact path the command-line tools
// use: generate a workload, serialize netlist + parasitics + timing to
// their text formats, parse everything back, and verify the analysis of
// the round-tripped design matches the direct in-memory analysis.
func TestPipelineFileRoundTrip(t *testing.T) {
	g, err := workload.Bus(workload.BusSpec{
		Bits: 8, Segs: 2,
		CoupleC: 6 * units.Femto, GroundC: 2 * units.Femto,
		WindowSep: 120 * units.Pico, WindowWidth: 60 * units.Pico,
		PhaseGap: 3000 * units.Pico,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Serialize.
	var netBuf, spefBuf, winBuf bytes.Buffer
	if err := netlist.Write(&netBuf, g.Design); err != nil {
		t.Fatal(err)
	}
	if err := spef.Write(&spefBuf, g.Paras); err != nil {
		t.Fatal(err)
	}
	if err := sta.WriteInputTiming(&winBuf, g.Inputs); err != nil {
		t.Fatal(err)
	}

	// Parse back.
	d2, err := netlist.Parse(&netBuf)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := spef.Parse(&spefBuf)
	if err != nil {
		t.Fatal(err)
	}
	in2, err := sta.ParseInputTiming(&winBuf)
	if err != nil {
		t.Fatal(err)
	}

	lib := liberty.Generic()
	bDirect, err := g.Bind(lib)
	if err != nil {
		t.Fatal(err)
	}
	bFile, err := bind.New(d2, lib, p2)
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []core.Mode{core.ModeAllAggressors, core.ModeNoiseWindows} {
		rDirect, err := core.AnalyzeCtx(context.Background(), bDirect, core.Options{Mode: mode, STA: g.STAOptions()})
		if err != nil {
			t.Fatal(err)
		}
		rFile, err := core.AnalyzeCtx(context.Background(), bFile, core.Options{Mode: mode, STA: sta.Options{InputTiming: in2}})
		if err != nil {
			t.Fatal(err)
		}
		if len(rDirect.Violations) != len(rFile.Violations) {
			t.Fatalf("%v: violations %d direct vs %d file",
				mode, len(rDirect.Violations), len(rFile.Violations))
		}
		if math.Abs(rDirect.TotalNoise()-rFile.TotalNoise()) > 1e-9 {
			t.Fatalf("%v: total noise %g direct vs %g file",
				mode, rDirect.TotalNoise(), rFile.TotalNoise())
		}
		// Per-net fidelity on the interesting line.
		mid := workload.MiddleBusNet(8)
		pd := rDirect.NoiseOf(mid).WorstPeak()
		pf := rFile.NoiseOf(mid).WorstPeak()
		if math.Abs(pd-pf) > 1e-9 {
			t.Fatalf("%v: %s peak %g direct vs %g file", mode, mid, pd, pf)
		}
	}
}

// TestEndToEndConservativeVsSimulation checks the whole analytical chain
// against the transient golden: the pessimistic (all-aggressors) combined
// peak on a victim must bound the simulated peak when all its aggressors
// are deliberately aligned.
func TestEndToEndConservativeVsSimulation(t *testing.T) {
	g, err := workload.Bus(workload.BusSpec{
		Bits: 4, Segs: 1,
		CoupleC: 5 * units.Femto, GroundC: 3 * units.Femto,
		WindowSep: 0, WindowWidth: 60 * units.Pico,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Bind(liberty.Generic())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.AnalyzeCtx(context.Background(), b, core.Options{Mode: core.ModeAllAggressors, STA: g.STAOptions()})
	if err != nil {
		t.Fatal(err)
	}
	mid := workload.MiddleBusNet(4)
	analytic := res.NoiseOf(mid).Comb[core.KindLow].Peak
	if analytic <= 0 {
		t.Fatal("no analytic noise")
	}

	// Rebuild the same cluster for the simulator and align the two
	// aggressors' rising edges.
	ctx, err := noise.BuildContext(b, b.Net.FindNet(mid))
	if err != nil {
		t.Fatal(err)
	}
	var aggs []noise.ClusterAggressor
	for i := range ctx.Couplings {
		// Drive the golden cluster with the same edge rate the analysis
		// used: the STA-computed fastest rise slew of that aggressor.
		slew := res.STA.TimingOf(ctx.Couplings[i].Agg).SlewRise.Min
		if math.IsInf(slew, 0) || slew <= 0 {
			t.Fatalf("no STA slew for %s", ctx.Couplings[i].Aggressor)
		}
		aggs = append(aggs, noise.ClusterAggressor{
			Coupling: &ctx.Couplings[i],
			Slew:     slew,
			Start:    0,
			Rise:     true,
		})
	}
	if len(aggs) != 2 {
		t.Fatalf("aggressors = %d, want 2", len(aggs))
	}
	drive := b.DriveRes(b.Net.FindNet(ctx.Couplings[0].Aggressor))
	golden, err := noise.SimulateCluster(ctx, aggs, drive, b.Lib.Vdd)
	if err != nil {
		t.Fatal(err)
	}
	if golden.Peak <= 0 {
		t.Fatal("no simulated noise")
	}
	if analytic < golden.Peak*0.98 {
		t.Fatalf("analysis not conservative: analytic %g < golden %g", analytic, golden.Peak)
	}
	// ...but not absurdly loose either (within 2x on this clean cluster).
	if analytic > golden.Peak*2 {
		t.Fatalf("analysis too loose: analytic %g vs golden %g", analytic, golden.Peak)
	}
}

// TestCrossModeInvariantsOnRandomFabrics asserts the ordering laws on a
// spread of random designs: both windowed analyses are bounded by the
// classical one (noise and violations), plus convergence. The sound tent
// default may sit slightly above the optimistic classical baseline B —
// see T11 — so only the A bound is asserted between them.
func TestCrossModeInvariantsOnRandomFabrics(t *testing.T) {
	lib := liberty.Generic()
	for seed := int64(1); seed <= 6; seed++ {
		g, err := workload.Fabric(workload.FabricSpec{
			Width: 8, Levels: 6,
			CoupleC: 5 * units.Femto, CouplingDensity: 2.5,
			GroundC: 1.5 * units.Femto, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := g.Bind(lib)
		if err != nil {
			t.Fatal(err)
		}
		type outcome struct {
			noise float64
			viol  int
		}
		var got [3]outcome
		for i, mode := range []core.Mode{core.ModeAllAggressors, core.ModeTimingWindows, core.ModeNoiseWindows} {
			res, err := core.AnalyzeCtx(context.Background(), b, core.Options{Mode: mode, STA: g.STAOptions()})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stats.Converged {
				t.Fatalf("seed %d mode %v did not converge", seed, mode)
			}
			got[i] = outcome{noise: res.TotalNoise(), viol: len(res.Violations)}
		}
		if !(got[2].noise <= got[0].noise+1e-9 && got[1].noise <= got[0].noise+1e-9) {
			t.Errorf("seed %d: noise bound violated: %+v", seed, got)
		}
		if !(got[2].viol <= got[0].viol && got[1].viol <= got[0].viol) {
			t.Errorf("seed %d: violation bound violated: %+v", seed, got)
		}
	}
}

// TestMultiphaseSetsNeverWorseThanHull asserts the A2 ablation's law on a
// sweep: collapsing set windows to hulls can only increase reported noise.
func TestMultiphaseSetsNeverWorseThanHull(t *testing.T) {
	lib := liberty.Generic()
	for _, gapPS := range []float64{0, 300, 1000, 5000} {
		g, err := workload.Bus(workload.BusSpec{
			Bits: 8, Segs: 2,
			CoupleC: 8 * units.Femto, GroundC: 1 * units.Femto,
			WindowSep: 250 * units.Pico, WindowWidth: 80 * units.Pico,
			PhaseGap: gapPS * units.Pico,
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := g.Bind(lib)
		if err != nil {
			t.Fatal(err)
		}
		run := func(hull bool) float64 {
			res, err := core.AnalyzeCtx(context.Background(), b, core.Options{
				Mode: core.ModeNoiseWindows, HullWindows: hull,
				STA: g.STAOptions(),
			})
			if err != nil {
				t.Fatal(err)
			}
			return res.TotalNoise()
		}
		sets, hull := run(false), run(true)
		if sets > hull+1e-9 {
			t.Errorf("gap %gps: sets %g noisier than hull %g", gapPS, sets, hull)
		}
	}
}

// TestDelayAnalysisAgreesAcrossPipeline runs delta-delay over the file
// round trip as well.
func TestDelayAnalysisAgreesAcrossPipeline(t *testing.T) {
	g, err := workload.Bus(workload.BusSpec{
		Bits: 4, Segs: 1,
		CoupleC:   5 * units.Femto,
		WindowSep: 0, WindowWidth: 80 * units.Pico,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Bind(liberty.Generic())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.AnalyzeDelayCtx(context.Background(), b, core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions()})
	if err != nil {
		t.Fatal(err)
	}
	// Every line switches and every line has opposing neighbours in the
	// same window: all four lines see push-out.
	for i := 0; i < 4; i++ {
		net := fmt.Sprintf("b%d", i)
		if im := res.ImpactOn(net, true); im == nil || im.Delta <= 0 {
			t.Errorf("no rise push-out on %s", net)
		}
	}
	if math.IsNaN(res.WorstDelta()) || res.WorstDelta() <= 0 {
		t.Fatalf("WorstDelta = %g", res.WorstDelta())
	}
}
