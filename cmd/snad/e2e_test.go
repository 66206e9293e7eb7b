package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/units"
)

// TestMain lets this test binary double as the snad executable: with
// SNAD_E2E_CHILD=1 in the environment it runs the real entry point, signal
// handling included, on its own arguments instead of the test suite. The
// SIGKILL recovery e2e uses this to kill a genuinely separate server
// process mid-traffic — an in-process server can't be SIGKILLed without
// killing the test — and the overload contract to SIGTERM one. A child
// installs the fault hooks its childFaults name before it starts.
func TestMain(m *testing.M) {
	if os.Getenv("SNAD_E2E_CHILD") == "1" {
		f, err := serverFaults(os.Getenv("SNAD_E2E_SESSION_FAULTS"), os.Getenv("SNAD_E2E_JOB_FAULTS"))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(exitUsage)
		}
		faults = f
		main()
	}
	os.Exit(m.Run())
}

// childFaults are the fault hooks a child server installs: a
// chaos.SessionFaults spec and a chaos.JobFaults spec. A restarted child
// gets its hooks from its own childFaults; nothing of them is journaled.
type childFaults struct{ sessions, jobs string }

// startChild execs this test binary as `snad serve -data-dir dir` in a
// separate process and returns the process and its base URL. extra args
// are appended to the serve command line (e.g. -workers for a
// coordinator).
func startChild(t *testing.T, dir string, cf childFaults, extra ...string) (*exec.Cmd, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"serve", "-listen", "127.0.0.1:0", "-data-dir", dir, "-quiet"}, extra...)
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "SNAD_E2E_CHILD=1",
		"SNAD_E2E_SESSION_FAULTS="+cf.sessions, "SNAD_E2E_JOB_FAULTS="+cf.jobs)
	out := &safeBuffer{}
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	var base string
	deadline := time.Now().Add(20 * time.Second)
	for {
		if m := listenRe.FindStringSubmatch(out.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("child server never reported its address\noutput: %s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	wctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := waitReady(wctx, base); err != nil {
		t.Fatalf("child server never became ready: %v\noutput: %s", err, out.String())
	}
	return cmd, base
}

// TestServeSIGKILLRecovery is the end-to-end crash-recovery acceptance
// test: a separate server process is SIGKILLed — no drain, no Close —
// while creates and analyses are in flight, and a restart over the same
// data directory must serve every session the clients were told exists,
// with the same analysis results and cumulative padding.
func TestServeSIGKILLRecovery(t *testing.T) {
	dir := t.TempDir()
	child, base := startChild(t, dir, childFaults{})
	ctx := context.Background()
	c := client.New(base, client.RetryPolicy{MaxAttempts: 1})

	netPath, spefPath, winPath := writeBus(t, t.TempDir(), 4)
	mustRead := func(p string) string {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	netSrc, spefSrc, winSrc := mustRead(netPath), mustRead(spefPath), mustRead(winPath)

	if _, err := c.CreateSession(ctx, &server.CreateSessionRequest{
		Name: "bus", Netlist: netSrc, SPEF: spefSrc, Timing: winSrc,
	}); err != nil {
		t.Fatal(err)
	}
	pad := map[string]float64{"b1": 5 * units.Pico}
	padded, err := c.Reanalyze(ctx, "bus", &server.ReanalyzeRequest{Padding: pad}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if padded.ChangedNets == 0 {
		t.Fatal("padding changed nothing; the survival check below would be vacuous")
	}

	// Churn traffic until the kill: one goroutine creates sessions (and
	// records which creates were acknowledged — an acknowledged create is
	// journaled and fsynced, so it MUST survive), another keeps analyses
	// in flight by replaying the same idempotent padding.
	var mu sync.Mutex
	var acked []string
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("churn%03d", i)
			if _, err := c.CreateSession(ctx, &server.CreateSessionRequest{
				Name: name, Netlist: netSrc, SPEF: spefSrc, Timing: winSrc,
			}); err != nil {
				return // the kill won the race
			}
			mu.Lock()
			acked = append(acked, name)
			mu.Unlock()
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Reanalyze(ctx, "bus", &server.ReanalyzeRequest{Padding: pad}, 0); err != nil {
				return
			}
		}
	}()

	time.Sleep(150 * time.Millisecond)
	if err := child.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	child.Wait()
	close(stop)
	wg.Wait()
	mu.Lock()
	survivors := append([]string{"bus"}, acked...)
	mu.Unlock()
	if len(survivors) < 2 {
		t.Log("no churn create was acknowledged before the kill; still checking the base session")
	}

	// Restart over the same directory. Retries are fine here; the fault
	// is behind us.
	_, base2 := startChild(t, dir, childFaults{})
	c2 := client.New(base2, client.RetryPolicy{})
	list, err := c2.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[string]server.SessionInfo, len(list))
	for _, info := range list {
		have[info.Name] = info
	}
	for _, name := range survivors {
		info, ok := have[name]
		if !ok {
			t.Fatalf("acknowledged session %q lost by the crash (restored: %v)", name, keys(have))
		}
		if !info.Persisted {
			t.Fatalf("restored session %q not marked persisted: %+v", name, info)
		}
	}

	// The acknowledged padding survived: replaying it changes nothing,
	// and the analysis matches the pre-kill result.
	replayed, err := c2.Reanalyze(ctx, "bus", &server.ReanalyzeRequest{Padding: pad}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.ChangedNets != 0 {
		t.Fatalf("padding did not survive the SIGKILL: %d nets changed on replay", replayed.ChangedNets)
	}
	if replayed.Noise.Stats.Victims != padded.Noise.Stats.Victims {
		t.Fatalf("victims %d -> %d across the crash", padded.Noise.Stats.Victims, replayed.Noise.Stats.Victims)
	}

	// A SIGKILL's worst on-disk signature is a torn journal tail, which
	// recovery discards silently — nothing should be quarantined.
	rec, err := c2.Recovery(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Quarantined) != 0 {
		t.Fatalf("SIGKILL produced quarantined state: %+v", rec.Quarantined)
	}

	// The operator view of the same story.
	var out, errb strings.Builder
	if code := run(ctx, []string{"recovery", "-server", base2}, &out, &errb); code != exitClean {
		t.Fatalf("recovery subcommand: exit %d: %s%s", code, out.String(), errb.String())
	}
	for _, want := range []string{"restored bus\n", "no records quarantined\n"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("recovery output lacks %q:\n%s", want, out.String())
		}
	}
}

func keys(m map[string]server.SessionInfo) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
