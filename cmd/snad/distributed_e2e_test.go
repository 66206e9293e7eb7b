package main

// Distributed-analysis acceptance test: a coordinator snad process with a
// fleet of three worker snad processes, one of which is SIGKILLed while
// an iterate job's fixpoint is in flight. The run must always terminate with a sound
// report — byte-identical to the single-process oracle when the shards
// were re-hosted in time, or carrying explicit degradation records when
// they were abandoned — and the CLI exit code must tell the two apart.

import (
	"context"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

func TestDistributedIterateSurvivesWorkerSIGKILL(t *testing.T) {
	ctx := context.Background()

	// Three worker processes; the coordinator registers them at boot.
	var urls []string
	var kill func() // SIGKILLs worker 1
	for i := 0; i < 3; i++ {
		cmd, base := startChild(t, t.TempDir(), childFaults{})
		urls = append(urls, base)
		if i == 1 {
			proc, wait := cmd.Process, cmd.Wait
			kill = func() {
				proc.Signal(syscall.SIGKILL)
				wait()
			}
		}
	}
	_, coordBase := startChild(t, t.TempDir(), childFaults{}, "-workers", strings.Join(urls, ","))

	c := client.New(coordBase, client.RetryPolicy{MaxAttempts: 1})
	netPath, spefPath, winPath := writeBus(t, t.TempDir(), 16)
	mustRead := func(p string) string {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if _, err := c.CreateSession(ctx, &server.CreateSessionRequest{
		Name: "bus", Netlist: mustRead(netPath), SPEF: mustRead(spefPath), Timing: mustRead(winPath),
	}); err != nil {
		t.Fatal(err)
	}

	// The oracle, and the exit code a healthy run earns.
	var oracleOut, oracleErr strings.Builder
	oracleCode := run(ctx, []string{"submit", "-server", coordBase, "-name", "bus", "-type", "iterate", "-delay", "-local", "-wait"}, &oracleOut, &oracleErr)
	if oracleCode != exitClean && oracleCode != exitViolations {
		t.Fatalf("local oracle failed: exit %d\n%s%s", oracleCode, oracleOut.String(), oracleErr.String())
	}

	// Fire the distributed iterate job through the real CLI and SIGKILL
	// worker 1 while it runs. The kill races the run on purpose: landing
	// before, during, or after, the invariant is the same — a sound
	// terminating report, never a failure.
	var out, errb strings.Builder
	var code int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		code = run(ctx, []string{"submit", "-server", coordBase, "-name", "bus", "-type", "iterate", "-delay", "-shards", "3", "-wait"}, &out, &errb)
	}()
	time.Sleep(20 * time.Millisecond)
	kill()
	wg.Wait()

	if code == exitUsage || code == exitFail {
		t.Fatalf("distributed iterate failed outright: exit %d\n%s%s", code, out.String(), errb.String())
	}
	if code != oracleCode && code != exitDegraded {
		t.Fatalf("exit %d, want the oracle's %d (full recovery) or %d (degraded-clean)\n%s%s",
			code, oracleCode, exitDegraded, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "distributed over 3 worker(s)") {
		t.Fatalf("run did not go distributed:\n%s%s", out.String(), errb.String())
	}
	if strings.Contains(out.String(), "degraded to conservative full-rail") && code == exitClean {
		// Abandonment must be loud and must not report clean.
		t.Fatalf("abandoned shards but exit 0:\n%s", out.String())
	}

	// The fleet endpoint must answer regardless of the dead worker.
	var wout, werrb strings.Builder
	if wcode := run(ctx, []string{"workers", "-server", coordBase}, &wout, &werrb); wcode != exitClean {
		t.Fatalf("workers subcommand: exit %d: %s%s", wcode, wout.String(), werrb.String())
	}
	if got := strings.Count(wout.String(), "\n"); got != 3 {
		t.Fatalf("workers listed %d entries, want 3:\n%s", got, wout.String())
	}
}
