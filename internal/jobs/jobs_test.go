package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/fairq"
	"repro/internal/report"
	"repro/internal/wal"
)

// okExec is an executor that immediately succeeds with a canned result.
func okExec(calls *atomic.Int64) Executor {
	return func(ctx context.Context, id string, spec *Spec, _ *Progress) (json.RawMessage, bool, error) {
		if calls != nil {
			calls.Add(1)
		}
		return json.RawMessage(`{"ok":true}`), false, nil
	}
}

func openManager(t *testing.T, dir string, exec Executor, mutate ...func(*Config)) *Manager {
	t.Helper()
	cfg := Config{
		Dir:     dir,
		Slots:   fairq.NewPool(3, 0),
		backoff: time.Millisecond,
		Exec:    exec,
		Logf:    t.Logf,
	}
	for _, fn := range mutate {
		fn(&cfg)
	}
	m, _, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { m.Close(2 * time.Second) })
	return m
}

// compact forces a journal rewrite, which production code leaves to the
// log's size rule.
func compact(m *Manager) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.compactLocked(true)
}

// writeJournal hand-writes dir's job journal: one record per payload,
// stamped and framed by the log itself.
func writeJournal(t *testing.T, dir string, records ...*record) {
	t.Helper()
	log, _, err := wal.OpenLog(filepath.Join(dir, journalFile), "jobs", wal.Hooks{}, t.Logf, func([]byte, time.Time) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for _, rec := range records {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
}

func submit(t *testing.T, m *Manager, spec *Spec) string {
	t.Helper()
	snap, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return snap.ID
}

// waitState polls until the job reaches state (or any terminal state if
// state is empty), failing the test after a generous deadline.
func waitState(t *testing.T, m *Manager, id string, state State) *report.JobJSON {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if (state == "" && snap.Terminal()) || snap.State == string(state) {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (want %s): %+v", id, snap.State, state, snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSubmitRunsToDone(t *testing.T) {
	var calls atomic.Int64
	m := openManager(t, t.TempDir(), okExec(&calls))
	id := submit(t, m, &Spec{Session: "s1", Type: "analyze"})
	if id != "job-000001" {
		t.Fatalf("first job ID = %q", id)
	}
	snap := waitState(t, m, id, StateDone)
	if calls.Load() != 1 || snap.Attempts != 1 || string(snap.Result) != `{"ok":true}` {
		t.Fatalf("done snapshot = %+v (calls %d)", snap, calls.Load())
	}
	if snap.SubmittedAt == "" || snap.StartedAt == "" || snap.FinishedAt == "" {
		t.Fatalf("missing lifecycle timestamps: %+v", snap)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []*Spec{
		{Type: "analyze"},                                 // no session
		{Session: "s", Type: "bogus"},                     // unknown type
		{Session: "s", Type: "reanalyze"},                 // no padding
		{Session: "s", Type: "sweep"},                     // no points
		{Session: "s", Type: "analyze", Deadline: "soon"}, // bad duration
		{Session: "s", Type: "analyze", Deadline: "-5s"},  // negative
		{Session: "s", Type: "analyze", MaxAttempts: -1},  // negative
		{Session: "s", Type: "reanalyze", Padding: map[string]float64{"b1": -1}},
		{Session: "s", Type: "reanalyze", Padding: map[string]float64{"b1": math.Inf(1)}},
		{Session: "s", Type: "sweep", Sweep: []SweepPoint{{Threshold: math.NaN()}}},
		{Session: "s", Type: "sweep", Sweep: []SweepPoint{{Threshold: math.Inf(1)}}},
		{Session: "s", Type: "sweep", Sweep: []SweepPoint{{Mode: "noise"}, {Mode: "bogus"}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d unexpectedly valid: %+v", i, s)
		}
	}
	for _, good := range []*Spec{
		{Session: "s", Type: "iterate", MaxRounds: 5, Deadline: "90s", MaxAttempts: 2},
		{Session: "s", Type: "sweep", Sweep: []SweepPoint{{Mode: "all"}, {Mode: "timing"}, {Mode: "noise"}, {Threshold: 0.1}}},
	} {
		if err := good.Validate(); err != nil {
			t.Fatalf("good spec %+v rejected: %v", good, err)
		}
	}
}

func TestQueueFullSheds(t *testing.T) {
	release := make(chan struct{})
	m := openManager(t, t.TempDir(), func(ctx context.Context, id string, spec *Spec, _ *Progress) (json.RawMessage, bool, error) {
		<-release
		return nil, false, nil
	}, func(c *Config) { c.Slots = fairq.NewPool(2, 0); c.MaxQueued = 2 })
	defer close(release)

	first := submit(t, m, &Spec{Session: "s", Type: "analyze"})
	waitState(t, m, first, StateRunning)
	submit(t, m, &Spec{Session: "s", Type: "analyze"})
	submit(t, m, &Spec{Session: "s", Type: "analyze"})
	if _, err := m.Submit(&Spec{Session: "s", Type: "analyze"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("4th submit: want ErrQueueFull, got %v", err)
	}
}

// TestRetryBackoffHoldsNoSlot: a job waiting out its retry backoff holds
// no engine slot, so with one batch slot another tenant's job runs and
// finishes before the failing job's next attempt.
func TestRetryBackoffHoldsNoSlot(t *testing.T) {
	exec := func(ctx context.Context, id string, spec *Spec, _ *Progress) (json.RawMessage, bool, error) {
		if spec.Tenant == "A" {
			return nil, false, errors.New("transient")
		}
		return json.RawMessage(`{}`), false, nil
	}
	m := openManager(t, t.TempDir(), exec, func(c *Config) { c.Slots = fairq.NewPool(2, 0); c.backoff = time.Minute })
	a := submit(t, m, &Spec{Session: "s", Type: "analyze", Tenant: "A"})
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if snap, _ := m.Get(a); len(snap.Diags) == 1 && snap.State == string(StateQueued) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job A never failed its first attempt")
		}
	}
	b := submit(t, m, &Spec{Session: "s", Type: "analyze", Tenant: "B"})
	waitState(t, m, b, StateDone)
	if snap, _ := m.Get(a); snap.Attempts != 1 || snap.State != string(StateQueued) {
		t.Fatalf("job A = %+v, want still backing off after one attempt", snap)
	}
}

func TestRetryThenSuccess(t *testing.T) {
	var calls atomic.Int64
	m := openManager(t, t.TempDir(), func(ctx context.Context, id string, spec *Spec, _ *Progress) (json.RawMessage, bool, error) {
		if calls.Add(1) == 1 {
			return nil, false, fmt.Errorf("transient wobble")
		}
		return json.RawMessage(`{"ok":true}`), false, nil
	})
	id := submit(t, m, &Spec{Session: "s", Type: "analyze"})
	snap := waitState(t, m, id, StateDone)
	if snap.Attempts != 2 || len(snap.Diags) != 1 || snap.Diags[0].Stage != "error" {
		t.Fatalf("retried snapshot = %+v", snap)
	}
}

func TestPermanentErrorFailsFast(t *testing.T) {
	m := openManager(t, t.TempDir(), func(ctx context.Context, id string, spec *Spec, _ *Progress) (json.RawMessage, bool, error) {
		return nil, false, Permanent(fmt.Errorf("no such session"))
	})
	id := submit(t, m, &Spec{Session: "ghost", Type: "analyze"})
	snap := waitState(t, m, id, StateFailed)
	if snap.Attempts != 1 || snap.Quarantined || !strings.Contains(snap.Error, "no such session") {
		t.Fatalf("permanent failure snapshot = %+v", snap)
	}
}

// A job that panics every attempt must land in quarantine with per-attempt
// Diags — and the manager must go on to run the next job.
func TestPanicPoisonQuarantine(t *testing.T) {
	m := openManager(t, t.TempDir(), func(ctx context.Context, id string, spec *Spec, _ *Progress) (json.RawMessage, bool, error) {
		if spec.Session == "poison" {
			panic("boom " + id)
		}
		return json.RawMessage(`{}`), false, nil
	})
	id := submit(t, m, &Spec{Session: "poison", Type: "analyze", MaxAttempts: 2})
	snap := waitState(t, m, id, StateFailed)
	if !snap.Quarantined || len(snap.Diags) != 2 {
		t.Fatalf("poison snapshot = %+v", snap)
	}
	for i, d := range snap.Diags {
		if d.Stage != "panic" || !strings.Contains(d.Error, "boom") {
			t.Fatalf("diag %d = %+v", i, d)
		}
	}
	// The pool survived the panics.
	good := submit(t, m, &Spec{Session: "fine", Type: "analyze"})
	waitState(t, m, good, StateDone)
	mm := m.MetricsSnapshot()
	if mm.Quarantined != 1 || mm.Failed != 1 || mm.Done != 1 {
		t.Fatalf("metrics = %+v", mm)
	}
}

// Degrade-every-attempt jobs quarantine too, keeping the last degraded
// result as evidence.
func TestDegradedPoisonQuarantine(t *testing.T) {
	m := openManager(t, t.TempDir(), func(ctx context.Context, id string, spec *Spec, _ *Progress) (json.RawMessage, bool, error) {
		return json.RawMessage(`{"degraded":true}`), true, nil
	})
	id := submit(t, m, &Spec{Session: "s", Type: "analyze", MaxAttempts: 2})
	snap := waitState(t, m, id, StateFailed)
	if !snap.Quarantined || string(snap.Result) != `{"degraded":true}` {
		t.Fatalf("degraded snapshot = %+v", snap)
	}
	if snap.Diags[len(snap.Diags)-1].Stage != "degraded" {
		t.Fatalf("diags = %+v", snap.Diags)
	}
}

func TestAttemptDeadline(t *testing.T) {
	m := openManager(t, t.TempDir(), func(ctx context.Context, id string, spec *Spec, _ *Progress) (json.RawMessage, bool, error) {
		<-ctx.Done()
		return nil, false, ctx.Err()
	})
	id := submit(t, m, &Spec{Session: "s", Type: "analyze", Deadline: "20ms", MaxAttempts: 1})
	snap := waitState(t, m, id, StateFailed)
	if snap.Quarantined || snap.Diags[0].Stage != "deadline" {
		t.Fatalf("deadline snapshot = %+v", snap)
	}
}

// TestSpecLowersNeverRaisesTheBudget: a spec's maxAttempts and deadline
// may tighten the server's 3 attempts and 5 m, never widen them, the way
// ?timeout= works for a request.
func TestSpecLowersNeverRaisesTheBudget(t *testing.T) {
	m := openManager(t, t.TempDir(), okExec(nil))
	for _, tc := range []struct {
		spec     Spec
		attempts int
		deadline string
	}{
		{Spec{Deadline: "1000h", MaxAttempts: 1000000}, 3, "5m0s"},
		{Spec{Deadline: "90s", MaxAttempts: 2}, 2, "1m30s"},
		{Spec{}, 3, "5m0s"},
	} {
		spec := tc.spec
		spec.Session, spec.Type = "s", "analyze"
		snap, err := m.Submit(&spec)
		if err != nil {
			t.Fatal(err)
		}
		if snap.MaxAttempts != tc.attempts || snap.Deadline != tc.deadline {
			t.Errorf("spec %+v: budget %d attempts of %s, want %d of %s", tc.spec, snap.MaxAttempts, snap.Deadline, tc.attempts, tc.deadline)
		}
	}
}

func TestCancelQueuedAndTerminal(t *testing.T) {
	release := make(chan struct{})
	m := openManager(t, t.TempDir(), func(ctx context.Context, id string, spec *Spec, _ *Progress) (json.RawMessage, bool, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return json.RawMessage(`{}`), false, nil
	}, func(c *Config) { c.Slots = fairq.NewPool(2, 0) })

	runner := submit(t, m, &Spec{Session: "s", Type: "analyze"})
	waitState(t, m, runner, StateRunning)
	queued := submit(t, m, &Spec{Session: "s", Type: "analyze"})

	snap, err := m.Cancel(queued)
	if err != nil || snap.State != string(StateCanceled) {
		t.Fatalf("cancel queued: %+v, %v", snap, err)
	}
	if _, err := m.Cancel(queued); err != nil {
		t.Fatalf("re-cancel canceled job not idempotent: %v", err)
	}
	close(release)
	waitState(t, m, runner, StateDone)
	if _, err := m.Cancel(runner); !errors.Is(err, ErrTerminal) {
		t.Fatalf("cancel done job: want ErrTerminal, got %v", err)
	}
	if _, err := m.Cancel("job-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown job: want ErrNotFound, got %v", err)
	}
}

func TestCancelRunning(t *testing.T) {
	m := openManager(t, t.TempDir(), func(ctx context.Context, id string, spec *Spec, _ *Progress) (json.RawMessage, bool, error) {
		<-ctx.Done()
		return nil, false, ctx.Err()
	})
	id := submit(t, m, &Spec{Session: "s", Type: "analyze"})
	waitState(t, m, id, StateRunning)
	snap, err := m.Cancel(id)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if snap.State == string(StateRunning) && !snap.CancelRequested {
		t.Fatalf("cancel ack lacks cancelRequested: %+v", snap)
	}
	snap = waitState(t, m, id, StateCanceled)
	if snap.Quarantined || snap.Error != "" {
		t.Fatalf("canceled snapshot = %+v", snap)
	}
}

// crash abandons a manager without the graceful drain: the journal fd is
// left open on an inode the next Open orphans (its boot compaction
// atomically replaces the file), so the zombie's late appends can never
// corrupt the successor's journal — the same isolation a SIGKILL'd
// process gets for free.
func crash(t *testing.T, m *Manager) {
	t.Helper()
	t.Cleanup(func() { m.Close(2 * time.Second) })
}

func TestRestartResumesInFlightJob(t *testing.T) {
	dir := t.TempDir()
	hold := make(chan struct{})
	defer close(hold)
	m1 := openManager(t, dir, func(ctx context.Context, id string, spec *Spec, _ *Progress) (json.RawMessage, bool, error) {
		<-hold
		return nil, false, fmt.Errorf("abandoned")
	})
	id := submit(t, m1, &Spec{Session: "s", Type: "iterate"})
	waitState(t, m1, id, StateRunning)
	crash(t, m1)

	var calls atomic.Int64
	m2 := openManager(t, dir, okExec(&calls))
	snap := waitState(t, m2, id, StateDone)
	// The interrupted attempt was journaled before it ran, so it counts;
	// the boot replay records what happened to it.
	if snap.Attempts != 2 || len(snap.Diags) != 1 || snap.Diags[0].Stage != "interrupted" {
		t.Fatalf("resumed snapshot = %+v", snap)
	}
}

// A job whose every budgeted attempt dies with the process is the poison
// signature no recover barrier can catch: boot replay quarantines it
// instead of re-running it forever.
func TestRestartQuarantinesCrashLoopJob(t *testing.T) {
	dir := t.TempDir()
	hold := make(chan struct{})
	defer close(hold)
	m1 := openManager(t, dir, func(ctx context.Context, id string, spec *Spec, _ *Progress) (json.RawMessage, bool, error) {
		<-hold
		return nil, false, fmt.Errorf("abandoned")
	})
	id := submit(t, m1, &Spec{Session: "s", Type: "analyze", MaxAttempts: 1})
	waitState(t, m1, id, StateRunning)
	crash(t, m1)

	m2 := openManager(t, dir, okExec(nil))
	snap := waitState(t, m2, id, StateFailed)
	if !snap.Quarantined || !strings.Contains(snap.Error, "interrupted by process exit") {
		t.Fatalf("crash-loop snapshot = %+v", snap)
	}
	if snap.Diags[0].Stage != "interrupted" {
		t.Fatalf("diags = %+v", snap.Diags)
	}
}

// A graceful drain refunds the interrupted attempt (requeue record), so
// clean restarts never burn retry budget.
func TestGracefulDrainRefundsAttempt(t *testing.T) {
	dir := t.TempDir()
	m1 := openManager(t, dir, func(ctx context.Context, id string, spec *Spec, _ *Progress) (json.RawMessage, bool, error) {
		<-ctx.Done()
		return nil, false, ctx.Err()
	})
	id := submit(t, m1, &Spec{Session: "s", Type: "iterate"})
	waitState(t, m1, id, StateRunning)
	m1.Close(2 * time.Second)

	m2 := openManager(t, dir, okExec(nil))
	snap := waitState(t, m2, id, StateDone)
	if snap.Attempts != 1 || len(snap.Diags) != 0 {
		t.Fatalf("drained-and-resumed snapshot = %+v (want the attempt refunded)", snap)
	}
}

func TestCancelIntentSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	hold := make(chan struct{})
	defer close(hold)
	// The executor ignores its context — a worst-case stuck job.
	m1 := openManager(t, dir, func(ctx context.Context, id string, spec *Spec, _ *Progress) (json.RawMessage, bool, error) {
		<-hold
		return nil, false, fmt.Errorf("abandoned")
	})
	id := submit(t, m1, &Spec{Session: "s", Type: "analyze"})
	waitState(t, m1, id, StateRunning)
	if _, err := m1.Cancel(id); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	crash(t, m1)

	m2 := openManager(t, dir, okExec(nil))
	snap := waitState(t, m2, id, StateCanceled)
	if snap.State != string(StateCanceled) {
		t.Fatalf("snapshot after restart = %+v", snap)
	}
}

// Completed jobs replay as completed: the executor must not run again
// for a job whose done record is journaled — no duplicate side effects.
func TestRestartDoesNotRerunCompletedJobs(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	m1 := openManager(t, dir, okExec(&calls))
	id := submit(t, m1, &Spec{Session: "s", Type: "analyze"})
	waitState(t, m1, id, StateDone)
	m1.Close(2 * time.Second)

	m2 := openManager(t, dir, okExec(&calls))
	snap, err := m2.Get(id)
	if err != nil || snap.State != string(StateDone) || string(snap.Result) != `{"ok":true}` {
		t.Fatalf("replayed done job = %+v, %v", snap, err)
	}
	time.Sleep(20 * time.Millisecond)
	if calls.Load() != 1 {
		t.Fatalf("executor ran %d times; completed job was re-executed", calls.Load())
	}
}

func TestCompactionPrunesTerminalKeepsIDs(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, okExec(nil))
	for i := 0; i < keepDone+2; i++ {
		id := submit(t, m, &Spec{Session: "s", Type: "analyze"})
		waitState(t, m, id, StateDone)
	}
	// After keepDone+2 done jobs a compaction keeps only the newest
	// keepDone terminal jobs, but IDs never rewind.
	compact(m)
	if n := len(m.List()); n != keepDone {
		t.Fatalf("%d job(s) retained past keepDone %d", n, keepDone)
	}
	id := submit(t, m, &Spec{Session: "s", Type: "analyze"})
	if want := fmt.Sprintf("job-%06d", keepDone+3); id != want {
		t.Fatalf("ID after pruning = %q, want %q (terminal pruning must not recycle IDs)", id, want)
	}
	waitState(t, m, id, StateDone)
	m.Close(2 * time.Second)

	m2 := openManager(t, dir, okExec(nil))
	if id, want := submit(t, m2, &Spec{Session: "s", Type: "analyze"}), fmt.Sprintf("job-%06d", keepDone+4); id != want {
		t.Fatalf("ID after reopen = %q, want %q", id, want)
	}
}

// --- satellite: job journal under the full StoreFaults chaos matrix ---

func chaosHooks(t *testing.T, spec string) wal.Hooks {
	t.Helper()
	sf, err := chaos.ParseStoreFaults(spec)
	if err != nil {
		t.Fatalf("ParseStoreFaults(%q): %v", spec, err)
	}
	return wal.Hooks{BeforeWrite: sf.BeforeWrite, BeforeSync: sf.BeforeSync, BeforeRename: sf.BeforeRename}
}

// Every append-path fault must refuse the ack (StorageError) and leave
// no phantom job — the no-lost-acks invariant: what was acknowledged
// survives, what wasn't acknowledged never half-exists.
func TestChaosSubmitAppendFaults(t *testing.T) {
	for _, kind := range []string{"torn", "enospc", "syncerr"} {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			m := openManager(t, dir, okExec(nil), func(c *Config) {
				c.Hooks = chaosHooks(t, kind+":append:1")
			})
			_, err := m.Submit(&Spec{Session: "s", Type: "analyze"})
			var se *StorageError
			if !errors.As(err, &se) {
				t.Fatalf("submit under %s fault: want StorageError, got %v", kind, err)
			}
			if n := len(m.List()); n != 0 {
				t.Fatalf("refused submit left %d phantom job(s)", n)
			}
			// The disk recovered (rule consumed): the next submit is acked
			// and fully durable, even right after a torn append.
			id := submit(t, m, &Spec{Session: "s", Type: "analyze"})
			waitState(t, m, id, StateDone)
			m.Close(2 * time.Second)

			m2 := openManager(t, dir, okExec(nil))
			snap, gerr := m2.Get(id)
			if gerr != nil || snap.State != string(StateDone) {
				t.Fatalf("acked job lost across restart: %+v, %v", snap, gerr)
			}
		})
	}
}

// A crash during compaction's atomic replace must leave the previous
// journal authoritative: acked state intact after reopen.
func TestChaosCompactionCrashRename(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, okExec(nil), func(c *Config) {
		c.Hooks = chaosHooks(t, "crashrename:write:*")
	})
	id := submit(t, m, &Spec{Session: "s", Type: "analyze"})
	compact(m)
	snap := waitState(t, m, id, StateDone)
	if string(snap.Result) != `{"ok":true}` {
		t.Fatalf("done snapshot = %+v", snap)
	}
	compact(m)
	m.Close(2 * time.Second)

	// Reopen without faults: replay sees the append-only journal (every
	// compaction failed), plus possibly a stranded .tmp — state intact.
	m2 := openManager(t, dir, okExec(nil))
	got, err := m2.Get(id)
	if err != nil || got.State != string(StateDone) || string(got.Result) != `{"ok":true}` {
		t.Fatalf("acked job lost after compaction crashes: %+v, %v", got, err)
	}
}

// A failed compaction must not reset the journal's sequence space: the
// old file — whose tail holds sequence numbers past the unwritten
// snapshot's — stays authoritative, so records fsync-acked AFTER the
// failure (here: a whole second job) still replay in order after a
// restart. Under the old reset-on-failure behavior the second job's
// submit record landed with a seq at or below the file's last one and
// boot replay quarantined it — a lost ack.
func TestChaosFailedCompactionDoesNotLoseLaterAcks(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, okExec(nil), func(c *Config) {
		c.Hooks = chaosHooks(t, "crashrename:write:*")
	})
	first := submit(t, m, &Spec{Session: "s", Type: "analyze"})
	compact(m)
	waitState(t, m, first, StateDone)
	compact(m)
	// Two compactions have failed by now; the next ack must land past
	// the journal's existing tail.
	second := submit(t, m, &Spec{Session: "s", Type: "analyze"})
	waitState(t, m, second, StateDone)
	m.Close(2 * time.Second)

	m2, replay, err := Open(Config{Dir: dir, Exec: okExec(nil), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(2 * time.Second)
	for _, id := range []string{first, second} {
		snap, err := m2.Get(id)
		if err != nil || snap.State != string(StateDone) {
			t.Fatalf("job %s lost after failed compactions: %+v, %v", id, snap, err)
		}
	}
	if len(replay.Quarantined) != 0 {
		t.Fatalf("replay quarantined %+v from a journal that should be monotonic", replay.Quarantined)
	}
}

// A journaled spec that no longer validates must quarantine with a
// reason sidecar, not retry forever — and the rest of the journal still
// replays.
func TestChaosUnreplayableSpecQuarantined(t *testing.T) {
	dir := t.TempDir()
	// Hand-write a journal: one poison submit (bad type), one good one.
	writeJournal(t, dir,
		&record{Type: recSubmit, ID: "job-000001", Spec: &Spec{Session: "s", Type: "time-travel"}},
		&record{Type: recSubmit, ID: "job-000002", Spec: &Spec{Session: "s", Type: "analyze"}})

	m := openManager(t, dir, okExec(nil))
	if _, err := m.Get("job-000001"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unreplayable job resurrected: %v", err)
	}
	waitState(t, m, "job-000002", StateDone)
	matches, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*.reason.json"))
	if len(matches) == 0 {
		t.Fatal("no quarantine reason sidecar written for the unreplayable spec")
	}
	// IDs never collide with the quarantined record's.
	if id := submit(t, m, &Spec{Session: "s", Type: "analyze"}); id != "job-000003" {
		t.Fatalf("next ID = %q", id)
	}
}

// Quarantine evidence is never overwritten: compaction renumbers the
// journal, so two boots can each find their bad record at frame 0, and
// each must leave its own record file and sidecar.
func TestQuarantineEvidenceSurvivesLaterBoots(t *testing.T) {
	dir := t.TempDir()
	for boot := 1; boot <= 2; boot++ {
		writeJournal(t, dir, &record{Type: recSubmit, ID: fmt.Sprintf("job-%06d", boot), Spec: &Spec{Session: "s", Type: "time-travel"}})
		m, replay, err := Open(Config{Dir: dir, Exec: okExec(nil), Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		if len(replay.Quarantined) != 1 || replay.Quarantined[0].Source != "jobs" {
			t.Fatalf("boot %d: quarantine = %+v", boot, replay.Quarantined)
		}
		// The boot compaction dropped the bad record; empty the journal so
		// the next boot's bad record is frame 0 again.
		m.Close(time.Second)
		if err := os.Remove(filepath.Join(dir, journalFile)); err != nil {
			t.Fatal(err)
		}
		recs, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*.rec"))
		sidecars, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*.reason.json"))
		if len(recs) != boot || len(sidecars) != boot {
			t.Fatalf("boot %d: %d record file(s) and %d sidecar(s) in quarantine, want %d each", boot, len(recs), len(sidecars), boot)
		}
	}
}

// The injected job-fault hook exercises the same quarantine machinery
// end to end: panic:N drives the recover barrier; hang drives deadlines.
func TestJobFaultInjectorIntegration(t *testing.T) {
	faults, err := chaos.ParseJobFaults("panic:analyze:*,hang:iterate")
	if err != nil {
		t.Fatal(err)
	}
	m := openManager(t, t.TempDir(), okExec(nil), func(c *Config) {
		c.Fault = faults.Fire
	})
	poison := submit(t, m, &Spec{Session: "s", Type: "analyze", MaxAttempts: 2})
	snap := waitState(t, m, poison, StateFailed)
	if !snap.Quarantined || len(snap.Diags) != 2 || snap.Diags[0].Stage != "panic" {
		t.Fatalf("injected-panic snapshot = %+v", snap)
	}
	hung := submit(t, m, &Spec{Session: "s", Type: "iterate", Deadline: "20ms", MaxAttempts: 1})
	snap = waitState(t, m, hung, StateFailed)
	if snap.Diags[0].Stage != "deadline" {
		t.Fatalf("injected-hang snapshot = %+v", snap)
	}
}

func TestMemoryOnlyManager(t *testing.T) {
	m := openManager(t, "", okExec(nil))
	id := submit(t, m, &Spec{Session: "s", Type: "analyze"})
	snap := waitState(t, m, id, StateDone)
	if snap.State != string(StateDone) {
		t.Fatalf("memory-only job = %+v", snap)
	}
}

// TestCancelQueuedJournalsOnce: cancelling a queued job appends its terminal
// record once — one fsync before the acknowledgement, not a second behind
// it — and a replay of that journal finds the job canceled.
func TestCancelQueuedJournalsOnce(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	defer close(release)
	m := openManager(t, dir, func(ctx context.Context, id string, spec *Spec, _ *Progress) (json.RawMessage, bool, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, false, ctx.Err()
	}, func(c *Config) { c.Slots = fairq.NewPool(2, 0) })
	runner := submit(t, m, &Spec{Session: "s", Type: "analyze"})
	waitState(t, m, runner, StateRunning)
	queued := submit(t, m, &Spec{Session: "s", Type: "analyze"})
	if snap, err := m.Cancel(queued); err != nil || snap.State != string(StateCanceled) {
		t.Fatalf("cancel queued: %+v, %v", snap, err)
	}
	crash(t, m)

	byType := map[string]int{}
	log, _, err := wal.OpenLog(filepath.Join(dir, journalFile), "jobs", wal.Hooks{}, t.Logf, func(payload []byte, _ time.Time) error {
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		if rec.ID == queued {
			byType[rec.Type]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	if len(byType) != 2 || byType[recSubmit] != 1 || byType[recCanceled] != 1 {
		t.Fatalf("journal records of the canceled job: %v, want one submit and one canceled", byType)
	}

	var calls atomic.Int64
	m2 := openManager(t, dir, okExec(&calls))
	if snap, err := m2.Get(queued); err != nil || snap.State != string(StateCanceled) || snap.Attempts != 0 {
		t.Fatalf("replayed canceled job: %+v, %v", snap, err)
	}
}
