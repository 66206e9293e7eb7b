package server

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
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

// TestRoundStateDiesWithItsSession cuts the session journal of
// create→round→round→delete→create at each record boundary: every replay,
// and every compaction of it, holds the round state of the last round
// record, and none after the delete.
func TestRoundStateDiesWithItsSession(t *testing.T) {
	create := busPayload(t, "s", 4, shard.OptionsSpec{})
	rs1 := &roundState{Token: "iterate-s-00", Round: 1, Padding: map[string]float64{"b1": 2e-12}, PrevGrowth: 2e-12}
	rs2 := &roundState{Token: "iterate-s-00", Round: 2, Padding: map[string]float64{"b1": 3e-12, "b2": 1e-12}, PrevGrowth: 1e-12}
	var payloads [][]byte
	for _, rec := range []*record{
		{Type: "create", Name: "s", Create: &create},
		{Type: "round", Name: "s", Round: rs1},
		{Type: "round", Name: "s", Round: rs2},
		{Type: "delete", Name: "s"},
		{Type: "create", Name: "s", Create: &create},
	} {
		p, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	// After k records: whether the session exists, and its round state.
	live := []bool{false, true, true, true, false, true}
	want := []*roundState{nil, nil, rs1, rs2, nil, nil}
	for k := range live {
		dir := t.TempDir()
		writeSessionJournal(t, dir, payloads[:k]...)
		for _, step := range []string{"replay", "compacted replay"} {
			st, _, err := OpenStore(dir, wal.Hooks{}, nil, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			sp := st.Spec("s")
			if (sp != nil) != live[k] {
				t.Fatalf("after %d record(s), %s: session present=%v, want %v", k, step, sp != nil, live[k])
			}
			if sp != nil && !reflect.DeepEqual(sp.Round, want[k]) {
				t.Errorf("after %d record(s), %s: round state %+v, want %+v", k, step, sp.Round, want[k])
			}
			st.mu.Lock()
			st.compactLocked(true)
			st.mu.Unlock()
			st.Close()
		}
	}
}

// TestGoldenRoundRecordResumes replays a round record written after round
// 1 of the fixpoint of the session testdata/create_record.golden.json
// creates, checked in as it was written: the record is an interface to
// every run a restart picks up, so a change of the types behind it must
// still read it. The session resumes from it, and a completed run
// journals that it holds no round state any more.
func TestGoldenRoundRecordResumes(t *testing.T) {
	var payloads [][]byte
	for _, f := range []string{"create_record", "round_record"} {
		p, err := os.ReadFile("testdata/" + f + ".golden.json")
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, bytes.TrimSuffix(p, []byte("\n")))
	}
	var create record
	if err := json.Unmarshal(payloads[0], &create); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeSessionJournal(t, dir, payloads...)
	s, replayed := newTestServer(t, Config{DataDir: dir})
	if rs := s.store.Spec("legacy").Round; rs == nil || rs.Round != 1 {
		t.Fatalf("the golden round record replays to %+v", rs)
	}

	_, fresh := newTestServer(t, Config{})
	if resp, data := do(t, "POST", fresh.URL+"/v1/sessions", create.Create); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d: %s", resp.StatusCode, data)
	}
	got := analyzeOK(t, replayed.URL, "legacy", "iterate", IterateRequest{Delay: true})
	want := analyzeOK(t, fresh.URL, "legacy", "iterate", IterateRequest{Delay: true})
	if !got.Iterate.Resumed || want.Iterate.Resumed {
		t.Fatalf("resumed=%v from the golden record, %v fresh", got.Iterate.Resumed, want.Iterate.Resumed)
	}
	sameAnalysis(t, got, want)
	if rs := s.store.Spec("legacy").Round; rs != nil {
		t.Errorf("the completed run left round state %+v", rs)
	}
}

// TestIterateResumesAfterRestart: an interactive iterate cut off after a
// journaled round resumes from that round on the next server over the data
// directory, and lands on what an uninterrupted run answers.
func TestIterateResumesAfterRestart(t *testing.T) {
	dir := t.TempDir()
	slow := chaos.SessionFaults{"s": {Sleep: []string{"*"}}}
	s1, ts1 := newTestServer(t, Config{DataDir: dir, Faults: &Faults{Prepare: slow.Prepare}})
	p := busPayload(t, "s", 6, shard.OptionsSpec{})
	if resp, data := do(t, "POST", ts1.URL+"/v1/sessions", p); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d: %s", resp.StatusCode, data)
	}
	cutOffIterate(t, s1, ts1.URL, "s")
	ts1.Close()
	s1.Close()

	s2, ts2 := newTestServer(t, Config{DataDir: dir})
	_, fresh := newTestServer(t, Config{})
	if resp, data := do(t, "POST", fresh.URL+"/v1/sessions", p); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d: %s", resp.StatusCode, data)
	}
	got := analyzeOK(t, ts2.URL, "s", "iterate", IterateRequest{Local: true, Delay: true})
	want := analyzeOK(t, fresh.URL, "s", "iterate", IterateRequest{Local: true, Delay: true})
	if !got.Iterate.Resumed {
		t.Fatal("the restarted server did not resume the cut-off iterate")
	}
	sameAnalysis(t, got, want)
	if rs := s2.store.Spec("s").Round; rs != nil {
		t.Errorf("the completed run left round state %+v", rs)
	}
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

// TestDataDirHoldsOnlyTheJournals: a session created, an interactive
// iterate and an iterate job cut off mid-fixpoint, the job resumed and
// finished after a restart, the session deleted, and another restart
// leave the data dir holding the two journals and their quarantine
// directories, nothing else.
func TestDataDirHoldsOnlyTheJournals(t *testing.T) {
	dir := t.TempDir()
	slow := chaos.SessionFaults{"s": {Sleep: []string{"*"}}}
	s1, ts1 := newTestServer(t, Config{DataDir: dir, Faults: &Faults{Prepare: slow.Prepare}})
	if resp, data := do(t, "POST", ts1.URL+"/v1/sessions", busPayload(t, "s", 6, shard.OptionsSpec{})); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d: %s", resp.StatusCode, data)
	}
	cutOffIterate(t, s1, ts1.URL, "s")
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
