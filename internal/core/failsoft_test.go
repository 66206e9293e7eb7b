package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sta"
	"repro/internal/units"
)

// hookFailing returns a PrepareHook erroring on the named nets.
func hookFailing(bad ...string) func(string) error {
	return func(net string) error {
		for _, b := range bad {
			if net == b {
				return fmt.Errorf("injected failure on %s", net)
			}
		}
		return nil
	}
}

func TestFailSoftIsolatesInjectedFaults(t *testing.T) {
	b := busFixture(t, 4, 3*units.Femto, 10*units.Femto)
	inputs := staggeredInputs(4, 100*units.Pico, 50*units.Pico)
	// NoPropagation keeps the healthy nets independent of the degraded
	// ones, so their results must match the fault-free run exactly.
	base := Options{Mode: ModeNoiseWindows, NoPropagation: true, STA: sta.Options{InputTiming: inputs}}

	clean := analyze(t, b, base)

	faulty := base
	faulty.FailSoft = true
	faulty.PrepareHook = hookFailing("a1", "a2")
	res, err := AnalyzeCtx(context.Background(), b, faulty)
	if err != nil {
		t.Fatal(err)
	}

	// Exactly k diags, sorted by net, prepare stage.
	if len(res.Diags) != 2 {
		t.Fatalf("diags = %+v, want 2", res.Diags)
	}
	if res.Diags[0].Net != "a1" || res.Diags[1].Net != "a2" {
		t.Fatalf("diags not sorted by net: %+v", res.Diags)
	}
	for _, d := range res.Diags {
		if d.Stage != StagePrepare || !d.Degraded || d.Err == nil {
			t.Fatalf("bad diag: %+v", d)
		}
		if !strings.Contains(d.Err.Error(), "injected failure") {
			t.Fatalf("diag lost cause: %v", d.Err)
		}
	}
	if res.Stats.DegradedNets != 2 {
		t.Fatalf("Stats.DegradedNets = %d", res.Stats.DegradedNets)
	}

	// Degraded victims carry the conservative full-rail bound: peak
	// pinned at Vdd with an always-on window — never an optimistic zero.
	vdd := b.Lib.Vdd
	for _, name := range []string{"a1", "a2"} {
		nn := res.NoiseOf(name)
		if nn == nil {
			t.Fatalf("degraded net %s missing from result", name)
		}
		for _, k := range Kinds {
			if nn.Comb[k].Peak != vdd {
				t.Fatalf("%s %v peak = %g, want full rail %g", name, k, nn.Comb[k].Peak, vdd)
			}
			if !nn.Comb[k].Window.IsInfinite() {
				t.Fatalf("%s %v window = %v, want infinite", name, k, nn.Comb[k].Window)
			}
		}
	}

	// Every other net is bit-identical to the fault-free run.
	for name, want := range clean.Nets {
		if name == "a1" || name == "a2" {
			continue
		}
		got := res.NoiseOf(name)
		if got == nil {
			t.Fatalf("net %s missing", name)
		}
		for _, k := range Kinds {
			if !combEqual(got.Comb[k], want.Comb[k], 0) {
				t.Fatalf("net %s %v changed: %+v vs %+v", name, k, got.Comb[k], want.Comb[k])
			}
		}
	}
	// Degraded nets report no synthetic per-receiver violations; the
	// Diag plus the full-rail bound is the failure record.
	for _, v := range res.Violations {
		if v.Net == "a1" || v.Net == "a2" {
			t.Fatalf("synthetic violation on degraded net: %+v", v)
		}
	}
}

func TestFailSoftRecoversPanic(t *testing.T) {
	b := busFixture(t, 2, 3*units.Femto, 10*units.Femto)
	inputs := staggeredInputs(2, 100*units.Pico, 50*units.Pico)
	opts := Options{
		Mode:     ModeNoiseWindows,
		FailSoft: true,
		STA:      sta.Options{InputTiming: inputs},
		PrepareHook: func(net string) error {
			if net == "a0" {
				panic("injected panic")
			}
			return nil
		},
	}
	res, err := AnalyzeCtx(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diags) != 1 || res.Diags[0].Net != "a0" {
		t.Fatalf("diags = %+v", res.Diags)
	}
	if !strings.Contains(res.Diags[0].Err.Error(), "panic") {
		t.Fatalf("panic not named in diag: %v", res.Diags[0].Err)
	}
}

func TestFailFastReturnsFirstError(t *testing.T) {
	b := busFixture(t, 4, 3*units.Femto, 10*units.Femto)
	inputs := staggeredInputs(4, 100*units.Pico, 50*units.Pico)
	opts := Options{
		Mode:        ModeNoiseWindows,
		PrepareHook: hookFailing("a1"),
		STA:         sta.Options{InputTiming: inputs},
	}
	if _, err := AnalyzeCtx(context.Background(), b, opts); err == nil || !strings.Contains(err.Error(), "a1") {
		t.Fatalf("fail-fast error = %v", err)
	}
}

func TestFailSoftParallelMatchesSerial(t *testing.T) {
	b := busFixture(t, 24, 3*units.Femto, 10*units.Femto)
	inputs := staggeredInputs(24, 100*units.Pico, 50*units.Pico)
	mk := func(workers int) *Result {
		res, err := AnalyzeCtx(context.Background(), b, Options{
			Mode:        ModeNoiseWindows,
			FailSoft:    true,
			Workers:     workers,
			PrepareHook: hookFailing("a3", "a17"),
			STA:         sta.Options{InputTiming: inputs},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, par := mk(0), mk(8)
	if len(serial.Diags) != 2 || len(par.Diags) != 2 {
		t.Fatalf("diags: serial %d, parallel %d", len(serial.Diags), len(par.Diags))
	}
	for i := range serial.Diags {
		if serial.Diags[i].Net != par.Diags[i].Net || serial.Diags[i].Stage != par.Diags[i].Stage {
			t.Fatalf("diag %d differs: %+v vs %+v", i, serial.Diags[i], par.Diags[i])
		}
	}
	for name, want := range serial.Nets {
		got := par.Nets[name]
		for _, k := range Kinds {
			if !combEqual(got.Comb[k], want.Comb[k], 0) {
				t.Fatalf("net %s %v differs between serial and parallel", name, k)
			}
		}
	}
}

// TestFailFastDrainsWorkersPromptly is the regression test for the
// worker-pool drain: an error on the first victim of a large design must
// stop the remaining preparation work instead of preparing all ~500
// doomed nets to completion.
func TestFailFastDrainsWorkersPromptly(t *testing.T) {
	const n = 500
	b := busFixture(t, n, 3*units.Femto, 10*units.Femto)
	inputs := staggeredInputs(n, 100*units.Pico, 50*units.Pico)
	var calls atomic.Int64
	opts := Options{
		Mode:    ModeNoiseWindows,
		Workers: 8,
		STA:     sta.Options{InputTiming: inputs},
		PrepareHook: func(net string) error {
			calls.Add(1)
			// i_a0 is the first victim in analysis order (port-driven
			// nets sort before instance-driven ones).
			if net == "i_a0" {
				return errors.New("early failure")
			}
			// Make each healthy preparation non-trivial so in-flight
			// work cannot race through the whole queue before the stop
			// flag is observed.
			time.Sleep(100 * time.Microsecond)
			return nil
		},
	}
	if _, err := AnalyzeCtx(context.Background(), b, opts); err == nil {
		t.Fatal("early failure not reported")
	}
	// With 8 workers only the handful of already-claimed nets may still
	// finish; a full run would prepare all ~1000 nets of the fixture.
	if got := calls.Load(); got > 100 {
		t.Fatalf("prepared %d nets after early failure, want prompt drain", got)
	}
}

func TestAnalyzeCtxCancellation(t *testing.T) {
	b := busFixture(t, 4, 3*units.Femto, 10*units.Femto)
	inputs := staggeredInputs(4, 100*units.Pico, 50*units.Pico)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}}
	if _, err := AnalyzeCtx(ctx, b, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeCtx = %v, want context.Canceled", err)
	}
	if _, err := AnalyzeDelayCtx(ctx, b, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeDelayCtx = %v, want context.Canceled", err)
	}
	if _, err := AnalyzeIterativeCtx(ctx, b, opts, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeIterativeCtx = %v, want context.Canceled", err)
	}
}

func TestAnalyzeCtxDeadlinePrompt(t *testing.T) {
	const n = 200
	b := busFixture(t, n, 3*units.Femto, 10*units.Femto)
	inputs := staggeredInputs(n, 100*units.Pico, 50*units.Pico)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	opts := Options{
		Mode:    ModeNoiseWindows,
		Workers: 4,
		STA:     sta.Options{InputTiming: inputs},
		PrepareHook: func(string) error {
			time.Sleep(2 * time.Millisecond)
			return nil
		},
	}
	start := time.Now()
	_, err := AnalyzeCtx(ctx, b, opts)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AnalyzeCtx = %v, want deadline exceeded", err)
	}
	// The engine must notice the deadline within 1s of it firing.
	if elapsed > 1*time.Second {
		t.Fatalf("cancellation took %s", elapsed)
	}
}

func TestFailSoftDelayAnalysis(t *testing.T) {
	b := busFixture(t, 3, 3*units.Femto, 10*units.Femto)
	inputs := staggeredInputs(3, 100*units.Pico, 50*units.Pico)
	res, err := AnalyzeDelayCtx(context.Background(), b, Options{
		Mode:        ModeNoiseWindows,
		FailSoft:    true,
		PrepareHook: hookFailing("a1"),
		STA:         sta.Options{InputTiming: inputs},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diags) != 1 || res.Diags[0].Net != "a1" || res.Diags[0].Stage != StagePrepare {
		t.Fatalf("diags = %+v", res.Diags)
	}
}

// TestDiagsNotAliasedAcrossNoiseAndDelay pins the ownership of the
// diagnostics when noise and delay share one analyzer (Session, the
// iterative loop, sna -delay): a net degraded in the delay pass after
// finishNoise is appended to — and re-sorts — the analyzer's list, and that
// must not move entries underneath the noise result handed out earlier.
func TestDiagsNotAliasedAcrossNoiseAndDelay(t *testing.T) {
	b := busFixture(t, 4, 3*units.Femto, 10*units.Femto)
	ctx := context.Background()
	a, err := newAnalyzer(ctx, b, Options{
		Mode:        ModeNoiseWindows,
		FailSoft:    true,
		PrepareHook: hookFailing("a1", "a2", "a3"), // three: the fourth append fits the backing array
		STA:         sta.Options{InputTiming: staggeredInputs(4, 100*units.Pico, 50*units.Pico)},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := a.newResult()
	passes, converged, err := runPasses(ctx, a.opts, len(a.waves), func(ctx context.Context, wi int) (bool, error) {
		return a.evalWave(ctx, res, a.waves[wi], nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	a.finishNoise(res, passes, converged)
	nets := func(diags []Diag) string {
		var names []string
		for _, d := range diags {
			names = append(names, d.Net+"/"+d.Stage)
		}
		return strings.Join(names, " ")
	}
	const noiseWant = "a1/prepare a2/prepare a3/prepare"
	if got := nets(res.Diags); got != noiseWant {
		t.Fatalf("noise diags = %s, want %s", got, noiseWant)
	}

	// "a0" sorts before every recorded diagnostic.
	if err := a.delayPass(ctx); err != nil {
		t.Fatal(err)
	}
	a.degradeNet(int(a.posByID[b.Net.FindNet("a0")]), StageDelay, errors.New("injected delay failure"))
	dres := a.assembleDelay()

	if got := nets(res.Diags); got != noiseWant {
		t.Fatalf("noise diags moved under the result: %s, want %s", got, noiseWant)
	}
	if got, want := nets(dres.Diags), "a0/delay "+noiseWant; got != want {
		t.Fatalf("delay diags = %s, want %s", got, want)
	}
	// The delay result owns its list too: a later degradation leaves it be.
	a.degradeNet(int(a.posByID[b.Net.FindNet("v")]), StageDelay, errors.New("later"))
	a.assembleDelay()
	if got, want := nets(dres.Diags), "a0/delay "+noiseWant; got != want {
		t.Fatalf("delay diags moved under the result: %s, want %s", got, want)
	}
}
