package main

// Async-job crash-recovery acceptance test: an iterate job's server
// process is SIGKILLed mid-run — after at least one round's state landed
// in the job journal — and a restart over the same data directory must
// re-enqueue the acknowledged job, resume it from that round, and finish
// with noise and delay sections byte-identical to an uninterrupted run. The same restarted server then quarantines a
// panic-injected poison job while staying fully available.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/server"
)

func TestJobsSIGKILLResumeAndQuarantine(t *testing.T) {
	dir := t.TempDir()
	slow := childFaults{sessions: "bus=sleep:*"}
	child, base := startChild(t, dir, slow)
	ctx := context.Background()
	c := client.New(base, client.RetryPolicy{MaxAttempts: 1})

	// A 10-bit bus with 10ms per-net sleeps makes each fixpoint round slow
	// enough to SIGKILL between a round's state landing and the job
	// finishing.
	netPath, spefPath, winPath := writeBus(t, t.TempDir(), 10)
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

	snap, err := c.SubmitJob(ctx, &jobs.Spec{Session: "bus", Type: "iterate", Delay: true})
	if err != nil {
		t.Fatal(err)
	}

	// Kill the instant the job journal holds the first round's state. If
	// the job ever finishes before one is observed, the fixture is too fast
	// to prove anything — fail loudly rather than pass vacuously.
	journal := filepath.Join(dir, "jobs", "jobs.wal")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if data, _ := os.ReadFile(journal); bytes.Contains(data, []byte(`"type":"progress"`)) {
			break
		}
		if js, err := c.JobStatus(ctx, snap.ID); err == nil && js.Terminal() {
			t.Fatalf("job reached %s before any round state was journaled; grow the fixture", js.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("no round state was ever journaled")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := child.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	child.Wait()

	// Restart over the same directory, with the session's sleeps again and
	// poison-job injection armed for the quarantine half below (it targets
	// analyze jobs only; the iterate resume is untouched).
	slow.jobs = "panic:analyze:*"
	_, base2 := startChild(t, dir, slow)
	c2 := client.New(base2, client.RetryPolicy{})

	final, err := c2.WaitJob(ctx, snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != string(jobs.StateDone) {
		t.Fatalf("resumed job ended %s (quarantined=%v, diags=%+v, err=%s)",
			final.State, final.Quarantined, final.Diags, final.Error)
	}
	// The killed attempt was journaled before it ran, so it still counts:
	// the resume is attempt 2, and the crash left an interrupted diag.
	if final.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (killed attempt + resume)", final.Attempts)
	}
	if len(final.Diags) != 1 || final.Diags[0].Stage != "interrupted" {
		t.Fatalf("diags = %+v, want one interrupted record", final.Diags)
	}
	var resumed server.AnalyzeResponse
	if err := json.Unmarshal(final.Result, &resumed); err != nil {
		t.Fatal(err)
	}
	if resumed.Iterate == nil || !resumed.Iterate.Resumed {
		t.Fatalf("iterate metadata = %+v, want Resumed", resumed.Iterate)
	}

	// Byte-identical to an uninterrupted run: an oracle job on the same
	// restarted server (iterate always starts from the session's design,
	// so a fresh run is the uninterrupted answer).
	oracleSnap, err := c2.SubmitJob(ctx, &jobs.Spec{Session: "bus", Type: "iterate", Delay: true})
	if err != nil {
		t.Fatal(err)
	}
	oracleFinal, err := c2.WaitJob(ctx, oracleSnap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if oracleFinal.State != string(jobs.StateDone) {
		t.Fatalf("oracle job ended %s: %+v", oracleFinal.State, oracleFinal.Diags)
	}
	var oracle server.AnalyzeResponse
	if err := json.Unmarshal(oracleFinal.Result, &oracle); err != nil {
		t.Fatal(err)
	}
	if oracle.Iterate.Resumed {
		t.Fatal("oracle run claims to be resumed; it must start from round 1")
	}
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// Byte-identical analysis content. Execution statistics are exempt,
	// per the resume contract (see shard.TestCheckpointResume):
	// a resumed run's fresh engines re-evaluate more than the oracle's
	// persistent ones, so counters like Iterations legitimately differ.
	resumed.Noise.Stats = core.Stats{}
	oracle.Noise.Stats = core.Stats{}
	if !bytes.Equal(mustJSON(resumed.Noise), mustJSON(oracle.Noise)) {
		t.Fatal("resumed noise section differs from the uninterrupted run")
	}
	if !bytes.Equal(mustJSON(resumed.Delay), mustJSON(oracle.Delay)) {
		t.Fatal("resumed delay section differs from the uninterrupted run")
	}
	if resumed.Iterate.Rounds != oracle.Iterate.Rounds || resumed.Iterate.Converged != oracle.Iterate.Converged {
		t.Fatalf("resumed loop (%d,%v) vs oracle (%d,%v)",
			resumed.Iterate.Rounds, resumed.Iterate.Converged, oracle.Iterate.Rounds, oracle.Iterate.Converged)
	}
	// Round state lives in the journals: the data dir holds nothing else.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name := e.Name(); name != "sessions.wal" && name != "quarantine" && name != "jobs" {
			t.Errorf("the data dir holds %s beside the journals", name)
		}
	}

	// Poison half: the injected panic kills every analyze-job attempt, so
	// the job lands in quarantine with per-attempt evidence...
	poisonSnap, err := c2.SubmitJob(ctx, &jobs.Spec{Session: "bus", Type: "analyze", MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	poison, err := c2.WaitJob(ctx, poisonSnap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if poison.State != string(jobs.StateFailed) || !poison.Quarantined {
		t.Fatalf("poison job = %+v, want failed+quarantined", poison)
	}
	if len(poison.Diags) != 2 || poison.Diags[0].Stage != "panic" {
		t.Fatalf("poison diags = %+v, want 2 panic records", poison.Diags)
	}
	// ...while the server keeps serving interactive work on the same
	// session, and the CLI surfaces the whole story.
	if _, err := c2.Analyze(ctx, "bus", nil, 0); err != nil {
		t.Fatalf("interactive analyze after quarantine: %v", err)
	}
	var out, errb strings.Builder
	if code := run(ctx, []string{"job", "-server", base2, "-id", poisonSnap.ID}, &out, &errb); code != exitFail {
		t.Fatalf("job subcommand on a quarantined job: exit %d: %s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "QUARANTINED") {
		t.Fatalf("job output: %s", out.String())
	}
	out.Reset()
	errb.Reset()
	if code := run(ctx, []string{"jobs", "-server", base2}, &out, &errb); code != exitClean {
		t.Fatalf("jobs subcommand: exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "[quarantined]") || !strings.Contains(out.String(), snap.ID) {
		t.Fatalf("jobs listing: %s", out.String())
	}
}

// TestJobsCLISubmitWait drives the job subcommands end to end against an
// in-process server: submit -wait maps a done analyze job onto the same
// exit discipline as a synchronous analyze, and cancel answers on a
// queued job.
func TestJobsCLISubmitWait(t *testing.T) {
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

	code, out, errOut = runCmd("submit", "-server", base, "-name", "bus", "-type", "analyze", "-delay", "-wait")
	if code != exitClean && code != exitViolations {
		t.Fatalf("submit -wait: exit %d: %s%s", code, out, errOut)
	}
	if !strings.Contains(out, "accepted") || !strings.Contains(out, "victims") {
		t.Fatalf("submit -wait output: %s", out)
	}

	code, out, errOut = runCmd("submit", "-server", base, "-name", "bus", "-type", "sweep",
		"-sweep", "noise:0.02,all:0.05", "-wait")
	if code != exitClean {
		t.Fatalf("submit sweep: exit %d: %s%s", code, out, errOut)
	}
	if strings.Count(out, "threshold=") != 2 {
		t.Fatalf("sweep output: %s", out)
	}

	// Usage errors stay structured.
	if code, _, _ := runCmd("submit", "-server", base, "-type", "analyze"); code != exitUsage {
		t.Fatalf("submit without -name: exit %d", code)
	}
	if code, _, _ := runCmd("job", "-server", base); code != exitUsage {
		t.Fatalf("job without -id: exit %d", code)
	}
	if code, _, _ := runCmd("submit", "-server", base, "-name", "bus", "-type", "sweep", "-sweep", "noise:bad"); code != exitUsage {
		t.Fatalf("bad sweep spec: exit %d", code)
	}

	// Cancel on a job that no longer exists is a structured failure.
	code, _, errOut = runCmd("cancel", "-server", base, "-id", "job-999999")
	if code != exitFail || !strings.Contains(errOut, "not_found") {
		t.Fatalf("cancel missing job: exit %d: %s", code, errOut)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := <-exit; code != exitClean {
		t.Fatalf("idle drain exit = %d", code)
	}
}
