package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/netlist"
	"repro/internal/server"
	"repro/internal/spef"
	"repro/internal/sta"
	"repro/internal/units"
	"repro/internal/workload"
)

// safeBuffer is a mutex-guarded buffer: serve's goroutine writes while
// the test polls.
type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *safeBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// writeBus serializes a generated coupled bus into files for the create
// subcommand.
func writeBus(t *testing.T, dir string, bits int) (netPath, spefPath, winPath string) {
	t.Helper()
	g, err := workload.Bus(workload.BusSpec{Bits: bits, Segs: 2, WindowWidth: 80 * units.Pico})
	if err != nil {
		t.Fatal(err)
	}
	netPath = filepath.Join(dir, "bus.net")
	spefPath = filepath.Join(dir, "bus.spef")
	winPath = filepath.Join(dir, "bus.win")
	for _, w := range []struct {
		path  string
		write func(f *os.File) error
	}{
		{netPath, func(f *os.File) error { return netlist.Write(f, g.Design) }},
		{spefPath, func(f *os.File) error { return spef.Write(f, g.Paras) }},
		{winPath, func(f *os.File) error { return sta.WriteInputTiming(f, g.Inputs) }},
	} {
		f, err := os.Create(w.path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return netPath, spefPath, winPath
}

var listenRe = regexp.MustCompile(`listening on (\S+)`)

// startServe launches `snad serve` in-process on an ephemeral port under a
// real signal context and returns its base URL and exit-code channel.
// Sending SIGTERM/SIGINT to the test process drives the drain path exactly
// as in production.
func startServe(t *testing.T, extra ...string) (base string, exit chan int, stdout *safeBuffer) {
	t.Helper()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	t.Cleanup(stop)
	stdout = &safeBuffer{}
	stderr := &safeBuffer{}
	args := append([]string{"serve", "-listen", "127.0.0.1:0"}, extra...)
	exit = make(chan int, 1)
	go func() { exit <- run(ctx, args, stdout, stderr) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRe.FindStringSubmatch(stdout.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		select {
		case code := <-exit:
			t.Fatalf("serve exited early with %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never reported its address\nstderr: %s", stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	wctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := waitReady(wctx, base); err != nil {
		t.Fatal(err)
	}
	return base, exit, stdout
}

// waitReady polls base's /readyz until the server reports ready or ctx
// expires.
func waitReady(ctx context.Context, base string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, "GET", base+"/readyz", nil)
		if err != nil {
			return err
		}
		var out server.ReadyResponse
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
		}
		if err == nil && out.Status == "ready" {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server never became ready: %w (last: %v, %q)", ctx.Err(), err, out.Status)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// serverFaults builds the server's fault hooks from a chaos.SessionFaults
// spec and a chaos.JobFaults spec; both empty is no hooks.
func serverFaults(sessions, jobs string) (*server.Faults, error) {
	if sessions == "" && jobs == "" {
		return nil, nil
	}
	sf, err := chaos.ParseSessionFaults(sessions)
	if err != nil {
		return nil, err
	}
	jf, err := chaos.ParseJobFaults(jobs)
	if err != nil {
		return nil, err
	}
	f := &server.Faults{Prepare: sf.Prepare}
	if jf != nil {
		f.Job = jf.Fire
	}
	return f, nil
}

// setFaults installs the session faults spec for the in-process servers
// this test starts.
func setFaults(t *testing.T, sessions string) {
	t.Helper()
	f, err := serverFaults(sessions, "")
	if err != nil {
		t.Fatal(err)
	}
	faults = f
	t.Cleanup(func() { faults = nil })
}

// waitInflight polls until the server reports an analysis in flight.
func waitInflight(t *testing.T, c *client.Client) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err := c.Health(context.Background())
		if err == nil && h.Inflight > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no request ever entered flight")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServeSIGTERMCleanDrain is the acceptance test for graceful
// shutdown: a real SIGTERM during in-flight work lets the request finish
// within the drain budget and the process exits 0.
func TestServeSIGTERMCleanDrain(t *testing.T) {
	setFaults(t, "slow=sleep:*")
	base, exit, stdout := startServe(t, "-drain-budget", "30s", "-quiet")
	c := client.New(base, client.RetryPolicy{MaxAttempts: 1})

	netPath, spefPath, winPath := writeBus(t, t.TempDir(), 4)
	mustRead := func(p string) string {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if _, err := c.CreateSession(context.Background(), &server.CreateSessionRequest{
		Name:    "slow",
		Netlist: mustRead(netPath),
		SPEF:    mustRead(spefPath),
		Timing:  mustRead(winPath),
	}); err != nil {
		t.Fatal(err)
	}

	analyzeDone := make(chan error, 1)
	go func() {
		_, err := c.Analyze(context.Background(), "slow", nil, 0)
		analyzeDone <- err
	}()
	waitInflight(t, c)

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != exitClean {
			t.Fatalf("serve exit = %d, want %d (clean drain)\n%s", code, exitClean, stdout.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not exit after SIGTERM")
	}
	if err := <-analyzeDone; err != nil {
		t.Fatalf("in-flight analyze should finish during a clean drain: %v", err)
	}
	if !strings.Contains(stdout.String(), "drained cleanly") {
		t.Fatalf("stdout: %s", stdout.String())
	}
}

// TestServeSIGINTForcedDrain: when in-flight work exceeds the budget, the
// drain cancels it and the process exits 1.
func TestServeSIGINTForcedDrain(t *testing.T) {
	setFaults(t, "glacial=sleep:*")
	base, exit, _ := startServe(t, "-drain-budget", "20ms", "-quiet")
	c := client.New(base, client.RetryPolicy{MaxAttempts: 1})

	// A 16-bit bus with 10ms per-net sleeps is far more work than the
	// 20ms budget.
	netPath, spefPath, winPath := writeBus(t, t.TempDir(), 16)
	mustRead := func(p string) string {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if _, err := c.CreateSession(context.Background(), &server.CreateSessionRequest{
		Name:    "glacial",
		Netlist: mustRead(netPath),
		SPEF:    mustRead(spefPath),
		Timing:  mustRead(winPath),
	}); err != nil {
		t.Fatal(err)
	}
	analyzeDone := make(chan error, 1)
	go func() {
		_, err := c.Analyze(context.Background(), "glacial", nil, 0)
		analyzeDone <- err
	}()
	waitInflight(t, c)

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != exitForced {
			t.Fatalf("serve exit = %d, want %d (forced drain)", code, exitForced)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not exit after SIGINT")
	}
	// The cancelled in-flight request surfaced as a structured error, not
	// a hang.
	select {
	case err := <-analyzeDone:
		if err == nil {
			t.Fatal("cancelled analyze should report an error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled analyze never returned")
	}
}

// TestClientSubcommands drives the full CLI surface against an in-process
// server.
func TestClientSubcommands(t *testing.T) {
	setFaults(t, "flaky=panic:b1")
	base, exit, _ := startServe(t, "-quiet")
	netPath, spefPath, winPath := writeBus(t, t.TempDir(), 4)

	runCmd := func(args ...string) (int, string, string) {
		var out, errb bytes.Buffer
		code := run(context.Background(), args, &out, &errb)
		return code, out.String(), errb.String()
	}

	code, out, errOut := runCmd("create", "-server", base, "-name", "bus",
		"-net", netPath, "-spef", spefPath, "-win", winPath)
	if code != exitClean {
		t.Fatalf("create: exit %d: %s%s", code, out, errOut)
	}

	code, out, errOut = runCmd("analyze", "-server", base, "-name", "bus")
	if code != exitClean && code != exitViolations {
		t.Fatalf("analyze: exit %d: %s%s", code, out, errOut)
	}
	if !strings.Contains(out, "victims") {
		t.Fatalf("analyze output: %s", out)
	}

	code, out, errOut = runCmd("reanalyze", "-server", base, "-name", "bus", "-pad", "b1=3e-12")
	if code != exitClean && code != exitViolations {
		t.Fatalf("reanalyze: exit %d: %s%s", code, out, errOut)
	}
	if !strings.Contains(out, "net(s) changed") {
		t.Fatalf("reanalyze output: %s", out)
	}

	code, out, _ = runCmd("report", "-server", base, "-name", "bus")
	if code != exitClean || !strings.Contains(out, "\"session\": \"bus\"") {
		t.Fatalf("report: exit %d: %s", code, out)
	}

	code, out, _ = runCmd("list", "-server", base)
	if code != exitClean || !strings.Contains(out, "bus:") {
		t.Fatalf("list: exit %d: %s", code, out)
	}

	code, out, _ = runCmd("health", "-server", base)
	if code != exitClean || !strings.Contains(out, "status=ok") {
		t.Fatalf("health: exit %d: %s", code, out)
	}

	code, out, _ = runCmd("delete", "-server", base, "-name", "bus")
	if code != exitClean {
		t.Fatalf("delete: exit %d: %s", code, out)
	}
	// Deleting again is a structured failure.
	code, _, errOut = runCmd("delete", "-server", base, "-name", "bus")
	if code != exitFail || !strings.Contains(errOut, "not_found") {
		t.Fatalf("double delete: exit %d: %s", code, errOut)
	}

	// A degraded session maps onto the degraded-clean exit code.
	code, _, errOut = runCmd("create", "-server", base, "-name", "flaky",
		"-net", netPath, "-spef", spefPath, "-win", winPath)
	if code != exitClean {
		t.Fatalf("create flaky: exit %d: %s", code, errOut)
	}
	code, out, errOut = runCmd("analyze", "-server", base, "-name", "flaky")
	if code != exitDegraded && code != exitViolations {
		t.Fatalf("degraded analyze: exit %d: %s%s", code, out, errOut)
	}
	if !strings.Contains(out, "DEGRADED b1") {
		t.Fatalf("degraded analyze output: %s", out)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := <-exit; code != exitClean {
		t.Fatalf("idle drain exit = %d", code)
	}
}

func TestUsageErrors(t *testing.T) {
	runCmd := func(args ...string) int {
		var out, errb bytes.Buffer
		return run(context.Background(), args, &out, &errb)
	}
	for _, args := range [][]string{
		{},
		{"bogus"},
		{"analyze"},                 // missing -name
		{"iterate", "-name", "x"},   // iterate runs as a job: submit -type iterate
		{"create", "-name", "x"},    // missing -net
		{"reanalyze", "-name", "x"}, // missing -pad
		{"serve", "-listen"},        // bad flag usage
		{"reanalyze", "-name", "x", "-pad", "b1=-3"}, // negative padding
		// Faults are a test seam, not flags.
		{"create", "-name", "x", "-net", "x.net", "-inject-fault", "panic:b1"},
		{"serve", "-store-inject-fault", "torn:append:1"},
		{"serve", "-job-inject-fault", "panic:analyze:*"},
	} {
		if code := runCmd(args...); code != exitUsage {
			t.Fatalf("args %v: exit %d, want %d", args, code, exitUsage)
		}
	}
}

// TestNonFiniteValuesAreUsageErrors pins that the flags holding padding and
// sweep points apply the same rules as the server: NaN and Inf, and a
// sweep mode no analysis has, are refused with the usage exit before any
// request.
func TestNonFiniteValuesAreUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"reanalyze", "-name", "x", "-pad", "n=NaN"}, "want finite"},
		{[]string{"reanalyze", "-name", "x", "-pad", "n=+Inf"}, "want finite"},
		{[]string{"submit", "-name", "x", "-type", "reanalyze", "-pad", "n=NaN"}, "want finite"},
		{[]string{"submit", "-name", "x", "-type", "sweep", "-sweep", "noise:NaN"}, "want finite"},
		{[]string{"submit", "-name", "x", "-type", "sweep", "-sweep", "noise:Inf"}, "want finite"},
		{[]string{"submit", "-name", "x", "-type", "sweep", "-sweep", "bogus:0.1"}, `unknown mode "bogus"`},
	} {
		var out, errb bytes.Buffer
		code := run(context.Background(), append(tc.args, "-server", "http://127.0.0.1:1"), &out, &errb)
		if code != exitUsage || !strings.Contains(errb.String(), tc.want) {
			t.Errorf("args %v: exit %d, want %d; stderr: %s", tc.args, code, exitUsage, errb.String())
		}
	}
}

// TestWorkerFleetIsFixedAtBoot: -workers sets the fleet and no request
// changes it. A POST naming the boot worker with another URL is refused,
// and the fleet still lists the boot URL.
func TestWorkerFleetIsFixedAtBoot(t *testing.T) {
	const boot, other = "http://127.0.0.1:1", "http://127.0.0.1:2"
	_, base := startChild(t, t.TempDir(), childFaults{}, "-workers", boot)
	resp, err := http.Post(base+"/v1/workers", "application/json", strings.NewReader(`{"name":"`+boot+`","url":"`+other+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode < 400 {
		t.Errorf("POST /v1/workers answered %d; a request must not change the fleet", resp.StatusCode)
	}
	ws, err := client.New(base, client.RetryPolicy{}).Workers(context.Background())
	if err != nil || len(ws) != 1 || ws[0].Name != boot || ws[0].URL != boot {
		t.Fatalf("fleet after the POST = %+v (%v), want the boot worker at %s alone", ws, err, boot)
	}
}

// TestServeFlagsAreDocumented holds README's `snad serve` flag table to
// the flags `snad serve -h` prints, both ways. It is first shown to catch
// a planted undocumented flag and a planted documented flag serve lacks.
func TestServeFlagsAreDocumented(t *testing.T) {
	var out, help bytes.Buffer
	if code := run(context.Background(), []string{"serve", "-h"}, &out, &help); code != exitUsage {
		t.Fatalf("serve -h: exit %d", code)
	}
	var defined, documented []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(help.String(), -1) {
		defined = append(defined, m[1])
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(readme), "| `snad serve` flag |")
	table, _, _ = strings.Cut(table, "\n\n")
	for _, m := range regexp.MustCompile("(?m)^\\| `-([^`]+)` \\|").FindAllStringSubmatch(table, -1) {
		documented = append(documented, m[1])
	}
	drift := func(defined, documented []string) (problems []string) {
		for _, f := range defined {
			if !slices.Contains(documented, f) {
				problems = append(problems, "serve defines -"+f+", which README's table lacks")
			}
		}
		for _, f := range documented {
			if !slices.Contains(defined, f) {
				problems = append(problems, "README's table documents -"+f+", which serve does not define")
			}
		}
		return problems
	}
	if len(defined) == 0 || len(documented) == 0 {
		t.Fatalf("read %d flags from serve -h and %d from README", len(defined), len(documented))
	}
	found := drift(defined, documented)
	if p := drift(append(defined, "planted"), documented); len(p) != len(found)+1 {
		t.Fatalf("a planted undocumented flag was not caught: %q", p)
	}
	if p := drift(defined, append(documented, "ghost")); len(p) != len(found)+1 {
		t.Fatalf("a planted documented flag was not caught: %q", p)
	}
	if len(found) > 0 {
		t.Errorf("serve's flags and README disagree:\n%s", strings.Join(found, "\n"))
	}
}
