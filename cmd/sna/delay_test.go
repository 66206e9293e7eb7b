package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bind"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/lint"
	"repro/internal/load"
	"repro/internal/report"
	"repro/internal/sta"
	"repro/internal/units"
	"repro/internal/workload"
)

// bound loads the files the way run does and binds them.
func bound(t *testing.T, n, s, w string) (*bind.Design, map[string]*sta.Timing) {
	t.Helper()
	loaded, err := load.Load(load.Files(n, "", s, w), lint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Bind()
	if err != nil {
		t.Fatal(err)
	}
	inputs := loaded.Inputs
	return b, inputs
}

// twoAnalyzerRun is what `sna -delay -json` was before noise and delay
// shared one analyzer and the report was streamed: a noise analysis, a
// second from-scratch delay analysis, and encoding/json over the schema
// tree. It is the oracle for the shared path.
func twoAnalyzerRun(t *testing.T, n, s, w string, opts core.Options) (stdout string, jsonDoc []byte, code int) {
	t.Helper()
	b, inputs := bound(t, n, s, w)
	opts.STA = sta.Options{InputTiming: inputs}
	ctx := context.Background()
	res, err := core.AnalyzeCtx(ctx, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := core.AnalyzeDelayCtx(ctx, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	var out, doc bytes.Buffer
	report.Violations(&out, res)
	report.Degradations(&out, res.Diags)
	delayTable(&out, res, dres, 0)
	enc := json.NewEncoder(&doc)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report.BuildJSON(res)); err != nil {
		t.Fatal(err)
	}
	switch {
	case len(res.Violations) > 0:
		code = exitViolations
	case len(res.Diags) > 0:
		code = exitDegraded
	}
	return out.String(), doc.Bytes(), code
}

// TestDelayJSONMatchesTwoAnalyzerRun: sharing the analyzer and streaming
// the report change neither stdout, nor the JSON file, nor the exit code —
// on clean, violating, propagating and fail-soft degraded runs, serial and
// parallel.
func TestDelayJSONMatchesTwoAnalyzerRun(t *testing.T) {
	gen := func(g *workload.Generated, err error) *workload.Generated {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cleanBus := gen(workload.Bus(workload.BusSpec{Bits: 4, Segs: 2, WindowSep: 500 * units.Pico}))
	// The benchmark's batch_deep shape at test size: glitches propagate and
	// receivers fail.
	hotFabric := gen(workload.Fabric(workload.FabricSpec{Width: 40, Levels: 12, CouplingDensity: 3, CoupleC: 12 * units.Femto, Seed: 1}))
	cases := []struct {
		name  string
		g     *workload.Generated
		extra []string
		fault string // net to panic on, "" for none
		code  int    // the exit code a fail-soft case must reach
	}{
		{name: "bus-clean", g: cleanBus},
		{name: "bus-hot", g: gen(workload.Bus(workload.BusSpec{Bits: 6, Segs: 2, CoupleC: 30 * units.Femto, GroundC: 1 * units.Femto}))},
		{name: "bus-degraded-clean", g: cleanBus, extra: []string{"-noprop"}, fault: "b1", code: exitDegraded},
		{name: "bus-degraded-violating", g: gen(workload.Bus(workload.BusSpec{Bits: 4, Segs: 2})), fault: "b1", code: exitViolations},
		{name: "fabric-hot", g: hotFabric},
		{name: "fabric-hot-degraded", g: hotFabric, fault: "n_2_3", code: exitViolations},
		{name: "ladder", g: gen(workload.Ladder(workload.LadderSpec{Lines: 8, Steps: 3}))},
		{name: "chain", g: gen(workload.Chain(workload.ChainSpec{Depth: 4}))},
		{name: "star", g: gen(workload.Star(workload.StarSpec{Windows: []interval.Window{interval.New(0, 1e-10), interval.New(5e-11, 2e-10)}}))},
		{name: "differential", g: gen(workload.Differential(workload.DifferentialSpec{Pairs: 3}))},
	}
	for _, tc := range cases {
		for _, workers := range []string{"0", "2"} {
			t.Run(tc.name+"/workers="+workers, func(t *testing.T) {
				dir := t.TempDir()
				n, s, w := writeDesign(t, dir, tc.g)
				jsonPath := filepath.Join(dir, "out.json")
				args := append([]string{"-net", n, "-spef", s, "-win", w, "-workers", workers, "-delay", "-json", jsonPath}, tc.extra...)
				opts := core.Options{Mode: core.ModeNoiseWindows, FailSoft: true, NoPropagation: len(tc.extra) > 0}
				faults := ""
				if tc.fault != "" {
					faults = "panic:" + tc.fault
					opts.PrepareHook = chaos.RuntimeFaults{Panic: []string{tc.fault}}.Hook()
				}
				wantOut, wantJSON, wantCode := twoAnalyzerRun(t, n, s, w, opts)
				if tc.fault != "" && (wantCode != tc.code || !strings.Contains(wantOut, "degraded nets: 1")) {
					t.Fatalf("fixture drifted: fault on %s gives exit %d, want %d\n%s", tc.fault, wantCode, tc.code, wantOut)
				}
				code, stdout, stderr := runSnaFaults(t, faults, args...)
				if code != wantCode {
					t.Fatalf("exit = %d, want %d\nstderr: %s", code, wantCode, stderr)
				}
				if stdout != wantOut {
					t.Fatalf("stdout differs from the two-analyzer run\n--- got\n%s\n--- want\n%s", stdout, wantOut)
				}
				got, err := os.ReadFile(jsonPath)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, wantJSON) {
					t.Fatalf("-json file differs from encoding/json over BuildJSON (%d vs %d bytes)", len(got), len(wantJSON))
				}
			})
		}
	}
}

// TestIterateDelayRendersConvergedTable: -iterate -delay prints the loop's
// own final delta-delay result, not an unpadded first-round re-analysis
// beside the converged noise report.
func TestIterateDelayRendersConvergedTable(t *testing.T) {
	g, err := workload.Ladder(workload.LadderSpec{Lines: 8, Steps: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	n, s, w := writeDesign(t, dir, g)
	b, inputs := bound(t, n, s, w)
	opts := core.Options{Mode: core.ModeNoiseWindows, FailSoft: true, STA: sta.Options{InputTiming: inputs}}
	iter, err := core.AnalyzeIterativeCtx(context.Background(), b, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	first, err := core.AnalyzeDelayCtx(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if iter.Rounds < 4 || !iter.Converged || iter.Delay.WorstDelta() <= first.WorstDelta() {
		t.Fatalf("fixture drifted: %d rounds, converged=%v, final worst %g vs first-round %g",
			iter.Rounds, iter.Converged, iter.Delay.WorstDelta(), first.WorstDelta())
	}
	var want bytes.Buffer
	delayTable(&want, iter.Noise, iter.Delay, 0)

	code, stdout, stderr := runSna("-net", n, "-spef", s, "-win", w, "-iterate", "-delay")
	if code != exitViolations {
		t.Fatalf("exit = %d, want %d\nstderr: %s", code, exitViolations, stderr)
	}
	if !strings.HasSuffix(stdout, want.String()) {
		t.Fatalf("delta-delay table is not the loop's final result\n--- stdout\n%s\n--- want suffix\n%s", stdout, want.String())
	}
	// The README's combined invocation runs and exits the same.
	base, _, _ := runSna("-net", n, "-spef", s, "-win", w, "-iterate")
	all, stdout, stderr := runSna("-net", n, "-spef", s, "-win", w, "-delay", "-repair", "-iterate")
	if all != base || !strings.Contains(stdout, "suggested repairs") || !strings.HasSuffix(stdout, want.String()) {
		t.Fatalf("-delay -repair -iterate: exit %d (plain -iterate %d)\nstdout: %s\nstderr: %s", all, base, stdout, stderr)
	}
}

// TestJSONFailureLeavesNoFile: a report that cannot be written is a
// failure (exit 4) and never leaves a truncated file at the requested path.
func TestJSONFailureLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	n, s, w := writeBus(t, dir, workload.BusSpec{WindowSep: 500 * units.Pico}, "")

	// The directory does not exist (permission bits would not stop a test
	// running as root).
	jsonPath := filepath.Join(dir, "no-such-dir", "out.json")
	code, stdout, stderr := runSna("-net", n, "-spef", s, "-win", w, "-delay", "-json", jsonPath)
	if code != exitFail || !strings.Contains(stderr, "no-such-dir") {
		t.Fatalf("exit = %d, want %d; stderr: %s", code, exitFail, stderr)
	}
	if !strings.Contains(stdout, "noise analysis") || strings.Contains(stdout, "delta-delay") {
		t.Fatalf("the text report should stop at the failed write:\n%s", stdout)
	}

	// A write cancelled part-way (here: before its first byte) removes the
	// file it created.
	b, inputs := bound(t, n, s, w)
	res, err := core.AnalyzeCtx(context.Background(), b, core.Options{Mode: core.ModeAllAggressors, STA: sta.Options{InputTiming: inputs}})
	if err != nil {
		t.Fatal(err)
	}
	write := func(w io.Writer) error { return report.WriteJSON(w, res) }
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jsonPath = filepath.Join(dir, "out.json")
	if err := writeJSONFile(ctx, jsonPath, write); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := os.Stat(jsonPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("partial report left behind (stat err = %v)", err)
	}
	// And the same call succeeds, and keeps the file, on a live context.
	if err := writeJSONFile(context.Background(), jsonPath, write); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(jsonPath); err != nil || fi.Size() == 0 {
		t.Fatalf("report missing after a good write: %v", err)
	}
}
