package jobs

import (
	"context"
	"encoding/json"
	"testing"
	"time"
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
	m := openManager(t, dir, func(ctx context.Context, id string, spec *Spec, attempt int) (json.RawMessage, bool, error) {
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
