package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/lint"
	"repro/internal/netlist"
	"repro/internal/spef"
	"repro/internal/sta"
	"repro/internal/units"
	"repro/internal/workload"
)

// writeBus generates a 4-bit bus, optionally injects defects, serializes
// it to <dir>/bus.{net,spef,win}, and returns the three paths.
func writeBus(t *testing.T, dir string, spec workload.BusSpec, defects string) (netPath, spefPath, winPath string) {
	t.Helper()
	if spec.Bits == 0 {
		spec.Bits = 4
	}
	if spec.Segs == 0 {
		spec.Segs = 2
	}
	g, err := workload.Bus(spec)
	if err != nil {
		t.Fatal(err)
	}
	if defects != "" {
		d, err := workload.ParseDefects(defects)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Inject(d); err != nil {
			t.Fatal(err)
		}
	}
	return writeDesign(t, dir, g)
}

// writeDesign serializes a generated design to <dir>/bus.{net,spef,win}.
func writeDesign(t *testing.T, dir string, g *workload.Generated) (netPath, spefPath, winPath string) {
	t.Helper()
	netPath = filepath.Join(dir, "bus.net")
	spefPath = filepath.Join(dir, "bus.spef")
	winPath = filepath.Join(dir, "bus.win")
	writeTo(t, netPath, func(f *os.File) error { return netlist.Write(f, g.Design) })
	writeTo(t, spefPath, func(f *os.File) error { return spef.Write(f, g.Paras) })
	writeTo(t, winPath, func(f *os.File) error { return sta.WriteInputTiming(f, g.Inputs) })
	return netPath, spefPath, winPath
}

func writeTo(t *testing.T, path string, fn func(*os.File) error) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fn(f); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func runSna(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(context.Background(), args, &out, &errb, nil)
	return code, out.String(), errb.String()
}

// runSnaFaults runs sna with the chaos.RuntimeFaults spec faults as the
// engine's prepare hook.
func runSnaFaults(t *testing.T, faults string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	f, err := chaos.ParseRuntimeFaults(faults)
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code = run(context.Background(), args, &out, &errb, f.Hook())
	return code, out.String(), errb.String()
}

func TestExitUsage(t *testing.T) {
	for _, args := range [][]string{
		{},                                      // missing -net
		{"-bogusflag"},                          // unknown flag
		{"-net", "x", "-mode", "warp"},          // bad mode
		{"-net", "x", "-suppress", "NOSUCH999"}, // unknown rule ID
		// -threshold and -period must be finite and >= 0, before any load.
		{"-net", "x", "-threshold", "NaN"},
		{"-net", "x", "-threshold", "-1"},
		{"-net", "x", "-threshold", "+Inf"},
		{"-net", "x", "-period", "NaN"},
		{"-net", "x", "-period", "-1"},
		{"-net", "x", "-period", "+Inf"},
	} {
		if code, _, _ := runSna(args...); code != exitUsage {
			t.Errorf("run(%v) = %d, want %d", args, code, exitUsage)
		}
	}
}

func TestExitLoadFailure(t *testing.T) {
	code, _, stderr := runSna("-net", filepath.Join(t.TempDir(), "nope.net"))
	if code != exitFail {
		t.Fatalf("exit = %d, want %d; stderr: %s", code, exitFail, stderr)
	}
}

func TestExitClean(t *testing.T) {
	dir := t.TempDir()
	n, s, w := writeBus(t, dir, workload.BusSpec{WindowSep: 500 * units.Pico}, "")
	code, stdout, stderr := runSna("-net", n, "-spef", s, "-win", w)
	if code != exitClean {
		t.Fatalf("exit = %d, want %d\nstdout: %s\nstderr: %s", code, exitClean, stdout, stderr)
	}
}

func TestExitLintErrors(t *testing.T) {
	dir := t.TempDir()
	n, s, w := writeBus(t, dir, workload.BusSpec{}, "multi-driven")
	// Normal mode: the pre-flight rejects the design before analysis.
	code, _, stderr := runSna("-net", n, "-spef", s, "-win", w)
	if code != exitLint {
		t.Fatalf("exit = %d, want %d; stderr: %s", code, exitLint, stderr)
	}
	if !strings.Contains(stderr, "NL001") {
		t.Fatalf("stderr does not name the violated rule:\n%s", stderr)
	}
	// -lint-only reports on stdout with the same exit code.
	code, stdout, _ := runSna("-net", n, "-spef", s, "-win", w, "-lint-only")
	if code != exitLint || !strings.Contains(stdout, "NL001") {
		t.Fatalf("lint-only exit = %d, want %d; stdout:\n%s", code, exitLint, stdout)
	}
}

func TestLintOnlyClean(t *testing.T) {
	dir := t.TempDir()
	n, s, w := writeBus(t, dir, workload.BusSpec{}, "")
	code, stdout, _ := runSna("-net", n, "-spef", s, "-win", w, "-lint-only")
	if code != exitClean {
		t.Fatalf("exit = %d, want %d; stdout:\n%s", code, exitClean, stdout)
	}
	if !strings.HasPrefix(stdout, "lint: 0 error(s)") {
		t.Fatalf("lint-only summary missing:\n%s", stdout)
	}
}

func TestRulesListing(t *testing.T) {
	code, stdout, _ := runSna("-rules")
	if code != exitClean {
		t.Fatalf("exit = %d, want %d", code, exitClean)
	}
	rows := strings.Split(stdout, "\n")
	for _, r := range lint.Rules() {
		found := false
		for _, row := range rows {
			f := strings.Fields(row)
			if len(f) >= 2 && f[0] == r.ID() && f[1] == r.Severity().String() && strings.Contains(row, r.Title()) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("rule listing has no row %s %s %q:\n%s", r.ID(), r.Severity(), r.Title(), stdout)
		}
	}
}

func TestLintOnlyJSON(t *testing.T) {
	dir := t.TempDir()
	n, s, w := writeBus(t, dir, workload.BusSpec{}, "multi-driven")
	jsonPath := filepath.Join(dir, "lint.json")
	code, stdout, _ := runSna("-net", n, "-spef", s, "-win", w, "-lint-only", "-json", jsonPath)
	if code != exitLint || !strings.Contains(stdout, "NL001") {
		t.Fatalf("exit = %d, want %d; stdout:\n%s", code, exitLint, stdout)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Tool        string `json:"tool"`
		Errors      int    `json:"errors"`
		Diagnostics []struct {
			Rule string `json:"rule"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if got.Tool != "sna" || got.Errors == 0 || len(got.Diagnostics) == 0 || !strings.HasPrefix(got.Diagnostics[0].Rule, "NL001") {
		t.Fatalf("JSON payload = %+v", got)
	}
}

func TestExitViolations(t *testing.T) {
	dir := t.TempDir()
	// Aligned windows, strong coupling, weak receivers: classical
	// pessimistic combination must flag violations.
	n, s, w := writeBus(t, dir, workload.BusSpec{
		Bits: 6, CoupleC: 30 * units.Femto, GroundC: 1 * units.Femto,
	}, "")
	code, stdout, stderr := runSna("-net", n, "-spef", s, "-win", w, "-mode", "all")
	if code != exitViolations {
		t.Fatalf("exit = %d, want %d\nstdout: %s\nstderr: %s", code, exitViolations, stdout, stderr)
	}
	if !strings.Contains(stdout, "violations") {
		t.Fatalf("violation report missing:\n%s", stdout)
	}
}

func TestWerrorEscalation(t *testing.T) {
	dir := t.TempDir()
	n, s, w := writeBus(t, dir, workload.BusSpec{}, "quiet-input")
	// A quiet input is only a warning: analysis proceeds.
	code, _, stderr := runSna("-net", n, "-spef", s, "-win", w)
	if code != exitClean {
		t.Fatalf("exit = %d, want %d; stderr: %s", code, exitClean, stderr)
	}
	if !strings.Contains(stderr, "STA001") {
		t.Fatalf("warning not surfaced on stderr:\n%s", stderr)
	}
	// -werror turns it into a gate.
	code, _, stderr = runSna("-net", n, "-spef", s, "-win", w, "-werror")
	if code != exitLint || !strings.Contains(stderr, "STA001") {
		t.Fatalf("werror exit = %d, want %d; stderr:\n%s", code, exitLint, stderr)
	}
	// Suppressing the rule restores the clean exit even under -werror.
	code, _, _ = runSna("-net", n, "-spef", s, "-win", w, "-werror", "-suppress", "STA001")
	if code != exitClean {
		t.Fatalf("suppressed werror exit = %d, want %d", code, exitClean)
	}
}

func TestExitDegraded(t *testing.T) {
	dir := t.TempDir()
	n, s, w := writeBus(t, dir, workload.BusSpec{WindowSep: 500 * units.Pico}, "")
	// An injected per-net failure on an otherwise clean design: the run
	// completes, reports the degradation, and exits degraded-clean.
	// -noprop keeps the conservative full-rail bound from propagating
	// into real downstream violations (which would rightly exit 1).
	code, stdout, stderr := runSnaFaults(t, "error:b1", "-net", n, "-spef", s, "-win", w, "-noprop")
	if code != exitDegraded {
		t.Fatalf("exit = %d, want %d\nstdout: %s\nstderr: %s", code, exitDegraded, stdout, stderr)
	}
	if !strings.Contains(stdout, "degraded nets: 1") || !strings.Contains(stdout, "b1") {
		t.Fatalf("degradation not reported:\n%s", stdout)
	}
}

func TestFailFastFlag(t *testing.T) {
	dir := t.TempDir()
	n, s, w := writeBus(t, dir, workload.BusSpec{WindowSep: 500 * units.Pico}, "")
	code, _, stderr := runSnaFaults(t, "error:b1", "-net", n, "-spef", s, "-win", w, "-fail-fast")
	if code != exitFail {
		t.Fatalf("exit = %d, want %d; stderr: %s", code, exitFail, stderr)
	}
	if !strings.Contains(stderr, "b1") {
		t.Fatalf("failure does not name the net:\n%s", stderr)
	}
}

// TestBadFaultSpecIsUsageError pins that faults are not a product
// surface: sna has no fault flag, so -inject-fault is a usage error like
// any unknown flag, whatever its spec.
func TestBadFaultSpecIsUsageError(t *testing.T) {
	for _, spec := range []string{"explode:b1", "panic:*"} {
		code, _, stderr := runSna("-net", "x", "-inject-fault", spec)
		if code != exitUsage || !strings.Contains(stderr, "flag provided but not defined: -inject-fault") {
			t.Fatalf("-inject-fault %s: exit = %d, want %d; stderr: %s", spec, code, exitUsage, stderr)
		}
	}
}

func TestTimeoutCancelsPromptly(t *testing.T) {
	dir := t.TempDir()
	n, s, w := writeBus(t, dir, workload.BusSpec{WindowSep: 500 * units.Pico}, "")
	// Every net sleeps 10ms in preparation; the 50ms deadline fires
	// mid-run and the engine must stop within a second of it.
	const deadline = 50 * time.Millisecond
	start := time.Now()
	code, _, stderr := runSnaFaults(t, "sleep:*", "-net", n, "-spef", s, "-win", w,
		"-timeout", deadline.String())
	elapsed := time.Since(start)
	if code != exitFail {
		t.Fatalf("exit = %d, want %d; stderr: %s", code, exitFail, stderr)
	}
	if !strings.Contains(stderr, "deadline exceeded") {
		t.Fatalf("stderr does not report the deadline:\n%s", stderr)
	}
	if elapsed > deadline+time.Second {
		t.Fatalf("run took %s, want exit within 1s of the %s deadline", elapsed, deadline)
	}
}

func TestJSONIncludesDegradations(t *testing.T) {
	dir := t.TempDir()
	n, s, w := writeBus(t, dir, workload.BusSpec{WindowSep: 500 * units.Pico}, "")
	jsonPath := filepath.Join(dir, "out.json")
	// -noprop keeps the degraded net's full-rail bound from propagating
	// into real downstream violations, so the run stays degraded-clean.
	code, _, stderr := runSnaFaults(t, "error:b2", "-net", n, "-spef", s, "-win", w,
		"-noprop", "-json", jsonPath)
	if code != exitDegraded {
		t.Fatalf("exit = %d; stderr: %s", code, stderr)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"degradations"`, `"b2"`, `"prepare"`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("JSON missing %s:\n%s", want, data)
		}
	}
}

// TestInterruptSignalCancelsAnalysis pins the signal wiring: a real SIGINT
// during a slow analysis takes the cooperative fail-soft cancellation path
// and exits with the failure code, not a mid-analysis kill.
func TestInterruptSignalCancelsAnalysis(t *testing.T) {
	dir := t.TempDir()
	// 16 bits × 10ms injected sleep per net is seconds of work — plenty of
	// window to land the signal.
	n, s, w := writeBus(t, dir, workload.BusSpec{Bits: 16}, "")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	type result struct {
		code   int
		stderr string
	}
	done := make(chan result, 1)
	go func() {
		var out, errb bytes.Buffer
		code := run(ctx, []string{"-net", n, "-spef", s, "-win", w}, &out, &errb, chaos.RuntimeFaults{Sleep: []string{"*"}}.Hook())
		done <- result{code, errb.String()}
	}()
	// Let the run get past flag parsing and into the engine before
	// signalling.
	time.Sleep(50 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.code != exitFail {
			t.Fatalf("exit = %d, want %d\nstderr: %s", r.code, exitFail, r.stderr)
		}
		if !strings.Contains(r.stderr, "interrupted") {
			t.Fatalf("stderr should name the interrupt: %s", r.stderr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after SIGINT")
	}
}

// TestFlagsAreDocumented holds README's `sna` flag table to the flags
// `sna -h` prints, both ways. It is first shown to catch a planted
// undocumented flag and a planted documented flag sna lacks.
func TestFlagsAreDocumented(t *testing.T) {
	code, _, help := runSna("-h")
	if code != exitUsage {
		t.Fatalf("-h: exit %d", code)
	}
	var defined, documented []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(help, -1) {
		defined = append(defined, m[1])
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(readme), "| `sna` flag |")
	table, _, _ = strings.Cut(table, "\n\n")
	for _, m := range regexp.MustCompile("(?m)^\\| `-([^`]+)` \\|").FindAllStringSubmatch(table, -1) {
		documented = append(documented, m[1])
	}
	drift := func(defined, documented []string) (problems []string) {
		for _, f := range defined {
			if !slices.Contains(documented, f) {
				problems = append(problems, "sna defines -"+f+", which README's table lacks")
			}
		}
		for _, f := range documented {
			if !slices.Contains(defined, f) {
				problems = append(problems, "README's table documents -"+f+", which sna does not define")
			}
		}
		return problems
	}
	if len(defined) == 0 || len(documented) == 0 {
		t.Fatalf("read %d flags from -h and %d from README", len(defined), len(documented))
	}
	found := drift(defined, documented)
	if p := drift(append(defined, "planted"), documented); len(p) != len(found)+1 {
		t.Fatalf("a planted undocumented flag was not caught: %q", p)
	}
	if p := drift(defined, append(documented, "ghost")); len(p) != len(found)+1 {
		t.Fatalf("a planted documented flag was not caught: %q", p)
	}
	if len(found) > 0 {
		t.Errorf("sna's flags and README disagree:\n%s", strings.Join(found, "\n"))
	}
}
