package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fairq"
)

// TestResultJournaledAsStored: a job's result is journaled as the bytes the
// executor returned, not as encoding/json would re-encode them, on append
// (the done record) and on rewrite (the job snapshot), and replays to the
// same bytes after either.
func TestResultJournaledAsStored(t *testing.T) {
	// Valid JSON that encoding/json's compaction would rewrite: insignificant
	// spaces and an unescaped '<'.
	stored := json.RawMessage(`{"a": [1, 2], "s": "<é"}`)
	dir := t.TempDir()
	m := openManager(t, dir, func(ctx context.Context, id string, spec *Spec, _ *Progress) (json.RawMessage, bool, error) {
		return stored, false, nil
	})
	id := submit(t, m, &Spec{Session: "s1", Type: "analyze"})
	waitState(t, m, id, StateDone)
	m.Close(2 * time.Second)

	for _, step := range []string{"the done record", "the compacted snapshot"} {
		m = openManager(t, dir, okExec(nil))
		snap, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if string(snap.Result) != string(stored) {
			t.Fatalf("replayed from %s, the result is %s, want %s", step, snap.Result, stored)
		}
		compact(m)
		m.Close(2 * time.Second)
	}
}

// TestProgressOutlivesAttemptsNotTheJob: the progress an attempt saves is
// handed, as the bytes it was saved as, to the job's next attempt — after a
// crash, through the replayed record and through a compacted snapshot, and
// after a failed attempt in the same process — and the job's terminal
// record drops it: a done job replays without progress, and a compaction
// writes none.
func TestProgressOutlivesAttemptsNotTheJob(t *testing.T) {
	dir := t.TempDir()
	p1, p2 := json.RawMessage(`{"round": 1}`), json.RawMessage(`{"round": 2}`)
	hold := make(chan struct{})
	defer close(hold)
	saved := make(chan struct{})
	m1 := openManager(t, dir, func(ctx context.Context, id string, spec *Spec, p *Progress) (json.RawMessage, bool, error) {
		if p.Last != nil {
			return nil, false, fmt.Errorf("first attempt handed progress %s", p.Last)
		}
		if err := p.Save(p1); err != nil {
			return nil, false, err
		}
		close(saved)
		<-hold
		return nil, false, fmt.Errorf("abandoned")
	})
	id := submit(t, m1, &Spec{Session: "s", Type: "iterate"})
	<-saved
	crash(t, m1)

	// Each restart replays the progress record; the second one after a
	// compaction wrote it into the job's snapshot. The attempts these
	// restarts run save nothing and are refunded by the drain that ends
	// them, so the job keeps its budget of 3 for the run below.
	held := func(ctx context.Context, id string, spec *Spec, p *Progress) (json.RawMessage, bool, error) {
		<-ctx.Done()
		return nil, false, ctx.Err()
	}
	for _, step := range []string{"the progress record", "the compacted snapshot"} {
		m := openManager(t, dir, held)
		m.mu.Lock()
		got := m.jobs[id].Progress
		m.mu.Unlock()
		if string(got) != string(p1) {
			t.Fatalf("replayed from %s, the progress is %s, want %s", step, got, p1)
		}
		compact(m)
		m.Close(2 * time.Second)
	}

	var seen []string
	m2 := openManager(t, dir, func(ctx context.Context, id string, spec *Spec, p *Progress) (json.RawMessage, bool, error) {
		seen = append(seen, string(p.Last))
		if len(seen) == 1 {
			if err := p.Save(p2); err != nil {
				return nil, false, err
			}
			return nil, false, fmt.Errorf("transient")
		}
		return json.RawMessage(`{}`), false, nil
	}, func(c *Config) { c.Slots = fairq.NewPool(2, 0) })
	waitState(t, m2, id, StateDone)
	if len(seen) != 2 || seen[0] != string(p1) || seen[1] != string(p2) {
		t.Fatalf("attempts were handed %q, want %q then %q", seen, p1, p2)
	}
	m2.Close(2 * time.Second)

	m3 := openManager(t, dir, okExec(nil))
	m3.mu.Lock()
	left := m3.jobs[id].Progress
	m3.mu.Unlock()
	if left != nil {
		t.Fatalf("a done job replays with progress %s", left)
	}
	compact(m3)
	m3.Close(2 * time.Second)
	data, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"progress"`)) {
		t.Fatalf("the compacted journal still holds progress: %q", data)
	}
}
