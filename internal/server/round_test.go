package server

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/shard"
	"repro/internal/wal"
)

// writeSessionJournal hand-writes dir's session journal, one record per
// payload, stamped and framed by the log itself.
func writeSessionJournal(t *testing.T, dir string, payloads ...[]byte) {
	t.Helper()
	log, _, err := wal.OpenLog(filepath.Join(dir, journalName), "journal", wal.Hooks{}, t.Logf, func([]byte, time.Time) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for _, p := range payloads {
		if err := log.Append(p); err != nil {
			t.Fatal(err)
		}
	}
}

// wantOnlyJournals fails unless dir holds the two journals and their
// quarantine directories, and nothing else.
func wantOnlyJournals(t *testing.T, dir string) {
	t.Helper()
	var got []string
	err := filepath.WalkDir(dir, func(path string, _ fs.DirEntry, err error) error {
		if err == nil && path != dir {
			rel, _ := filepath.Rel(dir, path)
			got = append(got, filepath.ToSlash(rel))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"jobs", "jobs/jobs.wal", "jobs/quarantine", "quarantine", "sessions.wal"}
	if !slices.Equal(got, want) {
		t.Fatalf("the data dir holds %q, want %q", got, want)
	}
}

// sameAnalysis fails unless two iterate replies carry the same rounds,
// noise section and delay section. The noise section's execution
// statistics are exempt: a resumed run's fresh engines re-evaluate more
// than an uninterrupted run's persistent ones.
func sameAnalysis(t *testing.T, got, want AnalyzeResponse) {
	t.Helper()
	if got.Iterate.Rounds != want.Iterate.Rounds || got.Iterate.Converged != want.Iterate.Converged {
		t.Fatalf("the run ended (%d,%v), an uninterrupted one (%d,%v)",
			got.Iterate.Rounds, got.Iterate.Converged, want.Iterate.Rounds, want.Iterate.Converged)
	}
	got.Noise.Stats, want.Noise.Stats = core.Stats{}, core.Stats{}
	for _, sec := range []struct {
		name      string
		got, want any
	}{{"noise", got.Noise, want.Noise}, {"delay", got.Delay, want.Delay}} {
		g, _ := json.Marshal(sec.got)
		w, _ := json.Marshal(sec.want)
		if !bytes.Equal(g, w) {
			t.Errorf("%s section differs from an uninterrupted run's", sec.name)
		}
	}
}

// TestGoldenRoundRecordReplays replays a session journal an older build
// wrote, whose interactive iterate kept its round state in it: the create
// of testdata/create_record.golden.json as that build's compaction wrote
// it, carrying a "round" field, then the round record it journaled after
// round 1, checked in as it was written. Iterate runs only as a job now, so
// both restore nothing of a run and quarantine nothing: the session boots,
// and an iterate job over it answers what one over a fresh create does.
func TestGoldenRoundRecordReplays(t *testing.T) {
	var payloads [][]byte
	for _, f := range []string{"create_record", "round_record"} {
		p, err := os.ReadFile("testdata/" + f + ".golden.json")
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, bytes.TrimSuffix(p, []byte("\n")))
	}
	var create record
	var round struct{ Round json.RawMessage }
	if json.Unmarshal(payloads[0], &create) != nil || json.Unmarshal(payloads[1], &round) != nil {
		t.Fatal("unreadable golden records")
	}
	compacted := append(bytes.TrimSuffix(payloads[0], []byte("}")), `,"round":`...)
	dir := t.TempDir()
	writeSessionJournal(t, dir, append(append(compacted, round.Round...), '}'), payloads[1])
	s, replayed := newTestServer(t, Config{DataDir: dir})
	if rec := s.recovery; len(rec.Quarantined) != 0 || !slices.Equal(rec.Restored, []string{"legacy"}) {
		t.Fatalf("the golden journal restored %q and quarantined %+v", rec.Restored, rec.Quarantined)
	}

	_, fresh := newTestServer(t, Config{})
	if resp, data := do(t, "POST", fresh.URL+"/v1/sessions", create.Create); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d: %s", resp.StatusCode, data)
	}
	spec := jobs.Spec{Session: "legacy", Type: "iterate", Delay: true}
	got := jobAnalysis(t, replayed.URL, submitJob(t, replayed.URL, spec).ID)
	want := jobAnalysis(t, fresh.URL, submitJob(t, fresh.URL, spec).ID)
	if got.Iterate.Resumed || want.Iterate.Resumed {
		t.Fatalf("resumed=%v over the golden journal, %v fresh", got.Iterate.Resumed, want.Iterate.Resumed)
	}
	sameAnalysis(t, got, want)
}

// cutOffJob submits an iterate job on the slowed session "s" and closes
// the server once the job's journal holds its round state: the drain
// cancels the attempt and requeues the job, progress kept.
func cutOffJob(t *testing.T, s *Server, base, dir string) string {
	t.Helper()
	ack := submitJob(t, base, jobs.Spec{Session: "s", Type: "iterate", Local: true, Delay: true})
	waitFor(t, func() bool {
		data, _ := os.ReadFile(filepath.Join(dir, "jobs", "jobs.wal"))
		return bytes.Contains(data, []byte(`"type":"progress"`))
	})
	s.Close()
	return ack.ID
}

// jobAnalysis decodes a done job's result.
func jobAnalysis(t *testing.T, base, id string) AnalyzeResponse {
	t.Helper()
	done := waitJobHTTP(t, base, id, "done")
	var ar AnalyzeResponse
	if err := json.Unmarshal(done.Result, &ar); err != nil || ar.Iterate == nil {
		t.Fatalf("iterate job result: %v: %s", err, done.Result)
	}
	return ar
}

// TestDataDirHoldsOnlyTheJournals: a session created, an iterate job cut
// off mid-fixpoint, the job resumed and finished after a restart, the
// session deleted, and another restart leave the data dir holding the two
// journals and their quarantine directories, nothing else.
func TestDataDirHoldsOnlyTheJournals(t *testing.T) {
	dir := t.TempDir()
	slow := chaos.SessionFaults{"s": {Sleep: []string{"*"}}}
	s1, ts1 := newTestServer(t, Config{DataDir: dir, Faults: &Faults{Prepare: slow.Prepare}})
	if resp, data := do(t, "POST", ts1.URL+"/v1/sessions", busPayload(t, "s", 6, shard.OptionsSpec{})); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d: %s", resp.StatusCode, data)
	}
	id := cutOffJob(t, s1, ts1.URL, dir)
	ts1.Close()
	wantOnlyJournals(t, dir)

	s2, ts2 := newTestServer(t, Config{DataDir: dir})
	if got := jobAnalysis(t, ts2.URL, id); !got.Iterate.Resumed {
		t.Error("the restarted job did not resume from its journaled round state")
	}
	waitFor(t, func() bool {
		resp, _ := do(t, "DELETE", ts2.URL+"/v1/sessions/s", nil)
		return resp.StatusCode == http.StatusNoContent
	})
	ts2.Close()
	s2.Close()
	newTestServer(t, Config{DataDir: dir})
	wantOnlyJournals(t, dir)
}

// TestJobRetryOverRecreatedSessionStartsFresh: an iterate job cut off
// mid-fixpoint whose session is deleted and re-created on other sources
// before its retry runs does not resume the round state it journaled
// over the old sources, and answers what a fresh job over the new ones
// does.
func TestJobRetryOverRecreatedSessionStartsFresh(t *testing.T) {
	dir := t.TempDir()
	slow := chaos.SessionFaults{"s": {Sleep: []string{"*"}}}
	s1, ts1 := newTestServer(t, Config{DataDir: dir, Faults: &Faults{Prepare: slow.Prepare}})
	if resp, data := do(t, "POST", ts1.URL+"/v1/sessions", busPayload(t, "s", 6, shard.OptionsSpec{})); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d: %s", resp.StatusCode, data)
	}
	id := cutOffJob(t, s1, ts1.URL, dir)
	ts1.Close()

	other := busPayload(t, "s", 4, shard.OptionsSpec{})
	st, _, err := OpenStore(dir, wal.Hooks{}, nil, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("s"); err != nil {
		t.Fatal(err)
	}
	if err := st.Create(&other, keysOf(other.design())); err != nil {
		t.Fatal(err)
	}
	st.Close()

	_, ts2 := newTestServer(t, Config{DataDir: dir})
	got := jobAnalysis(t, ts2.URL, id)
	_, fresh := newTestServer(t, Config{})
	if resp, data := do(t, "POST", fresh.URL+"/v1/sessions", other); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d: %s", resp.StatusCode, data)
	}
	want := jobAnalysis(t, fresh.URL, submitJob(t, fresh.URL, jobs.Spec{Session: "s", Type: "iterate", Local: true, Delay: true}).ID)
	if got.Iterate.Resumed {
		t.Fatal("the retry resumed round state journaled over the session's old sources")
	}
	sameAnalysis(t, got, want)
}
