package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/shard"
	"repro/internal/units"
	"repro/internal/wal"
)

// analyzeOK runs an analyze (or reanalyze) and decodes the response.
func analyzeOK(t *testing.T, base, name, endpoint string, body any) AnalyzeResponse {
	t.Helper()
	resp, data := do(t, "POST", base+"/v1/sessions/"+name+"/"+endpoint, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", endpoint, name, resp.StatusCode, data)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		t.Fatal(err)
	}
	return ar
}

// TestServerRestartRestoresSessions is the tentpole acceptance test at
// the handler level: sessions created and padded before a restart are
// served identically after it — same names, same analysis results, same
// cumulative padding.
func TestServerRestartRestoresSessions(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir})
	createSession(t, ts.URL, "alpha", shard.OptionsSpec{})
	createSession(t, ts.URL, "beta", shard.OptionsSpec{})
	before := analyzeOK(t, ts.URL, "alpha", "analyze", nil)
	padded := analyzeOK(t, ts.URL, "alpha", "reanalyze",
		ReanalyzeRequest{Padding: map[string]float64{"b1": 5 * units.Pico}})
	if padded.ChangedNets == 0 {
		t.Fatal("padding changed nothing; the survival check below would be vacuous")
	}
	ts.Close()

	// "Restart": a fresh server over the same directory. (The SIGKILL
	// variant, with no orderly close at all, lives in cmd/snad's e2e.)
	_, ts2 := newTestServer(t, Config{DataDir: dir})
	resp, data := do(t, "GET", ts2.URL+"/v1/sessions", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d", resp.StatusCode)
	}
	var list []SessionInfo
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Name != "alpha" || list[1].Name != "beta" {
		t.Fatalf("list = %+v", list)
	}
	for _, info := range list {
		if !info.Persisted || !info.Restored || info.RecoveredAt == "" {
			t.Fatalf("restored session info = %+v", info)
		}
	}

	// The report cache is warm state: gone, with an explanation.
	resp, data = do(t, "GET", ts2.URL+"/v1/sessions/alpha/report", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("report after restart: %d", resp.StatusCode)
	}
	ei := wantErrKind(t, data, "not_found")
	if ei.Message == "no session \"alpha\"" {
		t.Fatalf("restored session reported as nonexistent: %q", ei.Message)
	}

	// Replaying the same padding changes nothing — the cumulative padding
	// survived the restart and re-seeded the engine.
	replayed := analyzeOK(t, ts2.URL, "alpha", "reanalyze",
		ReanalyzeRequest{Padding: map[string]float64{"b1": 5 * units.Pico}})
	if replayed.ChangedNets != 0 {
		t.Fatalf("padding did not survive the restart: %d nets changed on replay", replayed.ChangedNets)
	}
	// Iteration count is a property of the computation path (the warm
	// incremental pass converges faster than the rebuilt engine's full
	// fixpoint), not of the result; normalize it before comparing.
	padded.Noise.Stats.Iterations = 0
	replayed.Noise.Stats.Iterations = 0
	wantJSON, _ := json.Marshal(padded.Noise)
	gotJSON, _ := json.Marshal(replayed.Noise)
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("restored session's analysis differs from the pre-restart result\nwant: %s\ngot:  %s", wantJSON, gotJSON)
	}
	if before.Noise.Stats.Victims != replayed.Noise.Stats.Victims {
		t.Fatalf("victims %d -> %d across restart", before.Noise.Stats.Victims, replayed.Noise.Stats.Victims)
	}
}

// TestReanalyzePaddingEdge pins padding where it enters by name: a net the
// design lacks is accepted, counted and journaled like any other; a value
// already applied changes nothing and leaves the reply's analysis bytes as
// they were; and a journal replay lands on the same state, the unknown
// name included.
func TestReanalyzePaddingEdge(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir})
	createSession(t, ts.URL, "alpha", shard.OptionsSpec{})
	// reanalyze answers the reply's changedNets and its analysis, as bytes.
	reanalyze := func(base string, pad map[string]float64) (int, string) {
		t.Helper()
		resp, data := do(t, "POST", base+"/v1/sessions/alpha/reanalyze", ReanalyzeRequest{Padding: pad, Delay: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reanalyze %v: status %d: %s", pad, resp.StatusCode, data)
		}
		var reply struct {
			ChangedNets  int
			Noise, Delay json.RawMessage
		}
		if err := json.Unmarshal(data, &reply); err != nil {
			t.Fatal(err)
		}
		return reply.ChangedNets, string(reply.Noise) + string(reply.Delay)
	}
	both := map[string]float64{"b1": 5 * units.Pico, "ghost": 3 * units.Pico}
	n, padded := reanalyze(ts.URL, both)
	if n != 2 {
		t.Fatalf("padding a known and an unknown net: changedNets %d, want 2", n)
	}
	for _, pad := range []map[string]float64{both, {"ghost": 3 * units.Pico}, {"ghost": 1 * units.Pico, "b1": 2 * units.Pico}} {
		if n, got := reanalyze(ts.URL, pad); n != 0 || got != padded {
			t.Fatalf("re-applying %v: changedNets %d (want 0), analysis changed: %t", pad, n, got != padded)
		}
	}
	// A grown unknown name is a change like any other: counted, journaled,
	// and it moves no net.
	n, grown := reanalyze(ts.URL, map[string]float64{"ghost": 4 * units.Pico})
	if n != 1 || grown != padded {
		t.Fatalf("growing the unknown net: changedNets %d (want 1), analysis changed: %t", n, grown != padded)
	}
	ts.Close()

	_, ts2 := newTestServer(t, Config{DataDir: dir})
	n, replayed := reanalyze(ts2.URL, map[string]float64{"b1": 5 * units.Pico, "ghost": 4 * units.Pico})
	if n != 0 {
		t.Fatalf("after the journal replay: changedNets %d, want 0 (the unknown name's padding is state too)", n)
	}
	// The replayed engine is a rebuild: its fixpoint counts its own
	// passes. Everything else is the same bytes.
	iterations := regexp.MustCompile(`"Iterations":\d+`)
	padded = iterations.ReplaceAllString(padded, `"Iterations":0`)
	if iterations.ReplaceAllString(replayed, `"Iterations":0`) != padded {
		t.Fatal("the replayed session's analysis differs from the one before the restart")
	}
	if n, again := reanalyze(ts2.URL, map[string]float64{"ghost": 4 * units.Pico}); n != 0 || iterations.ReplaceAllString(again, `"Iterations":0`) != padded {
		t.Fatalf("after the replay, the unknown name again: changedNets %d (want 0)", n)
	}
	// Growing only a name the design lacks is counted and journaled, and
	// runs no round: the analysis is the replayed one, its pass count
	// included.
	if n, grown := reanalyze(ts2.URL, map[string]float64{"ghost": 5 * units.Pico}); n != 1 || grown != replayed {
		t.Fatalf("after the replay, growing the unknown net: changedNets %d (want 1), analysis changed: %t", n, grown != replayed)
	}
}

// TestSessionModeSurvivesRestart: a session's mode travels by name, in the
// create record, so a journal written under each mode — "" being the
// engine's zero value, noise windows — replays to sessions whose reports
// keep their modes, byte for byte.
func TestSessionModeSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir})
	modes := []struct{ option, name, report string }{
		{"all", "m-all", "all-aggressors"},
		{"timing", "m-timing", "timing-windows"},
		{"noise", "m-noise", "noise-windows"},
		{"", "m-unnamed", "noise-windows"},
	}
	report := func(base, name string) []byte {
		t.Helper()
		analyzeOK(t, base, name, "analyze", AnalyzeRequest{Delay: true})
		resp, data := do(t, "GET", base+"/v1/sessions/"+name+"/report", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("report %s: status %d: %s", name, resp.StatusCode, data)
		}
		return data
	}
	before := make(map[string][]byte)
	for _, m := range modes {
		createSession(t, ts.URL, m.name, shard.OptionsSpec{Mode: m.option})
		before[m.name] = report(ts.URL, m.name)
	}
	ts.Close()

	_, ts2 := newTestServer(t, Config{DataDir: dir})
	for _, m := range modes {
		after := report(ts2.URL, m.name)
		var got struct {
			Noise, Delay struct{ Mode string }
		}
		if err := json.Unmarshal(after, &got); err != nil {
			t.Fatal(err)
		}
		if got.Noise.Mode != m.report || got.Delay.Mode != m.report {
			t.Errorf("mode %q after the restart: noise %q, delay %q, want %q", m.option, got.Noise.Mode, got.Delay.Mode, m.report)
		}
		if !bytes.Equal(after, before[m.name]) {
			t.Errorf("mode %q: the report differs across the restart", m.option)
		}
	}
}

// TestServerCreateJournaledBefore201: a create whose journal append fails
// is refused with a retryable 503 and leaves no trace — not in memory,
// not on disk, not after a restart.
func TestServerCreateJournaledBefore201(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir, Faults: testFaults(t, "torn:append:1", "")})
	resp, data := do(t, "POST", ts.URL+"/v1/sessions", busPayload(t, "doomed", 4, shard.OptionsSpec{}))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unjournaled create: status %d: %s", resp.StatusCode, data)
	}
	wantErrKind(t, data, "storage")
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("storage failure without a Retry-After hint")
	}
	resp, _ = do(t, "GET", ts.URL+"/v1/sessions/doomed", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("refused create still visible: %d", resp.StatusCode)
	}
	// The fault was one-shot: a retry of the same create succeeds.
	createSession(t, ts.URL, "doomed", shard.OptionsSpec{})
	ts.Close()

	_, ts2 := newTestServer(t, Config{DataDir: dir})
	resp, _ = do(t, "GET", ts2.URL+"/v1/sessions/doomed", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("acknowledged create lost across restart: %d", resp.StatusCode)
	}
}

// TestServerDeleteJournaledBefore204 is the satellite regression test: a
// DELETE whose tombstone cannot be journaled is refused, the session
// stays fully served, and only a journaled delete survives a restart.
func TestServerDeleteJournaledBefore204(t *testing.T) {
	dir := t.TempDir()
	// Append #1 is the create; #2 the delete's tombstone.
	_, ts := newTestServer(t, Config{DataDir: dir, Faults: testFaults(t, "torn:append:2", "")})
	createSession(t, ts.URL, "keep", shard.OptionsSpec{})

	resp, data := do(t, "DELETE", ts.URL+"/v1/sessions/keep", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unjournaled delete: status %d: %s", resp.StatusCode, data)
	}
	wantErrKind(t, data, "storage")
	// The refused delete left the session fully alive.
	resp, _ = do(t, "GET", ts.URL+"/v1/sessions/keep", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session gone after refused delete: %d", resp.StatusCode)
	}
	analyzeOK(t, ts.URL, "keep", "analyze", nil)

	// Retrying the delete succeeds (the fault was one-shot)...
	resp, _ = do(t, "DELETE", ts.URL+"/v1/sessions/keep", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("retried delete: %d", resp.StatusCode)
	}
	ts.Close()

	// ...and the tombstone holds across the restart.
	_, ts2 := newTestServer(t, Config{DataDir: dir})
	resp, _ = do(t, "GET", ts2.URL+"/v1/sessions/keep", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session resurrected: %d", resp.StatusCode)
	}
}

// TestServerEvictedSessionRematerializes is the satellite eviction test:
// LRU-evicting a persisted session only unloads it; the next request
// transparently reloads it from disk with its padding intact.
func TestServerEvictedSessionRematerializes(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()
	cfg := Config{DataDir: dir, MaxSessions: 1, now: clock.now}
	_, ts := newTestServer(t, cfg)
	createSession(t, ts.URL, "first", shard.OptionsSpec{})
	padded := analyzeOK(t, ts.URL, "first", "reanalyze",
		ReanalyzeRequest{Padding: map[string]float64{"b1": 5 * units.Pico}})
	if padded.ChangedNets == 0 {
		t.Fatal("padding changed nothing")
	}

	// Creating "second" evicts "first" from memory — but not from disk.
	createSession(t, ts.URL, "second", shard.OptionsSpec{})
	resp, data := do(t, "GET", ts.URL+"/v1/sessions", nil)
	var list []SessionInfo
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("list after eviction = %+v", list)
	}
	for _, info := range list {
		if info.Name == "first" && info.Loaded {
			t.Fatalf("evicted session still loaded: %+v", info)
		}
	}

	// GET transparently re-materializes it (evicting "second" in turn),
	// with the padding state intact.
	resp, data = do(t, "GET", ts.URL+"/v1/sessions/first", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evicted session GET: %d: %s", resp.StatusCode, data)
	}
	var info SessionInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if !info.Loaded || !info.Restored {
		t.Fatalf("re-materialized info = %+v", info)
	}
	replayed := analyzeOK(t, ts.URL, "first", "reanalyze",
		ReanalyzeRequest{Padding: map[string]float64{"b1": 5 * units.Pico}})
	if replayed.ChangedNets != 0 {
		t.Fatalf("padding lost across eviction: %d nets changed on replay", replayed.ChangedNets)
	}

	// The evicted name is still taken.
	resp, data = do(t, "POST", ts.URL+"/v1/sessions", busPayload(t, "second", 4, shard.OptionsSpec{}))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("recreate of evicted persisted session: %d: %s", resp.StatusCode, data)
	}
	wantErrKind(t, data, "conflict")
}

// TestServerRecoveryEndpoint pins /v1/recovery: 404 memory-only, and the
// structured boot report — restored names, quarantine entries — when
// durable.
func TestServerRecoveryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := do(t, "GET", ts.URL+"/v1/recovery", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("memory-only recovery: %d", resp.StatusCode)
	}
	wantErrKind(t, data, "not_found")

	dir := t.TempDir()
	_, ts2 := newTestServer(t, Config{DataDir: dir})
	createSession(t, ts2.URL, "bus", shard.OptionsSpec{})
	ts2.Close()

	_, ts3 := newTestServer(t, Config{DataDir: dir})
	resp, data = do(t, "GET", ts3.URL+"/v1/recovery", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovery: %d: %s", resp.StatusCode, data)
	}
	var rec report.RecoveryJSON
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	// A clean restart replays the journal as it is: nothing to repair,
	// nothing outgrown, so no boot rewrite.
	if len(rec.Restored) != 1 || rec.Restored[0] != "bus" || rec.Records != 1 || rec.Compacted || rec.RecoveredAt == "" {
		t.Fatalf("recovery = %+v", rec)
	}
}

// TestServerRecoveryCoversBothJournals: what either journal's replay
// quarantined is in the one report /v1/recovery serves — a bad job
// record is no longer visible only in a log line.
func TestServerRecoveryCoversBothJournals(t *testing.T) {
	dir := t.TempDir()
	// CRC-valid frames neither owner can decode, written through the log
	// itself so they carry proper envelopes.
	for _, j := range []struct{ path, source string }{
		{filepath.Join(dir, journalName), "journal"},
		{filepath.Join(dir, "jobs", "jobs.wal"), "jobs"},
	} {
		if err := os.MkdirAll(filepath.Dir(j.path), 0o755); err != nil {
			t.Fatal(err)
		}
		log, _, err := wal.OpenLog(j.path, j.source, wal.Hooks{}, t.Logf, func([]byte, time.Time) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Append([]byte("not json")); err != nil {
			t.Fatal(err)
		}
		log.Close()
	}

	_, ts := newTestServer(t, Config{DataDir: dir})
	resp, data := do(t, "GET", ts.URL+"/v1/recovery", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovery: %d: %s", resp.StatusCode, data)
	}
	var rec report.RecoveryJSON
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	bySource := map[string]report.QuarantineJSON{}
	for _, q := range rec.Quarantined {
		bySource[q.Source] = q
	}
	if len(rec.Quarantined) != 2 || bySource["journal"].File == "" || bySource["jobs"].File == "" {
		t.Fatalf("quarantined = %+v, want one entry per journal", rec.Quarantined)
	}
	for _, q := range rec.Quarantined {
		if !strings.Contains(q.Reason, "undecodable") {
			t.Fatalf("reason = %q", q.Reason)
		}
		// File is relative to the data directory for both journals.
		for _, name := range []string{q.File, q.File + ".reason.json"} {
			if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
				t.Fatalf("%s evidence missing: %v", q.Source, err)
			}
		}
	}
	if !strings.HasPrefix(bySource["jobs"].File, filepath.Join("jobs", "quarantine")) {
		t.Fatalf("job-journal entry at %q", bySource["jobs"].File)
	}
}

// TestServerUnreplayableSpecQuarantined: a persisted spec whose sources
// no longer build (CRC-valid bytes, broken content) is quarantined at
// boot with a tombstone — the server still comes up, the healthy session
// still serves, and the next boot is clean.
func TestServerUnreplayableSpecQuarantined(t *testing.T) {
	dir := t.TempDir()
	// Seed the store directly: the store journals payloads verbatim, so a
	// create whose netlist no longer parses models on-disk format skew.
	st, _, err := OpenStore(dir, wal.Hooks{}, nil, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Create(&CreateSessionRequest{Name: "skewed", Netlist: "not a netlist\n"}, specKeys{}); err != nil {
		t.Fatal(err)
	}
	good := busPayload(t, "good", 4, shard.OptionsSpec{})
	if err := st.Create(&good, specKeys{}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	_, ts := newTestServer(t, Config{DataDir: dir})
	resp, _ := do(t, "GET", ts.URL+"/v1/sessions/good", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy session did not survive its neighbor's rot: %d", resp.StatusCode)
	}
	resp, _ = do(t, "GET", ts.URL+"/v1/sessions/skewed", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unreplayable session still served: %d", resp.StatusCode)
	}
	resp, data := do(t, "GET", ts.URL+"/v1/recovery", nil)
	var rec report.RecoveryJSON
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, q := range rec.Quarantined {
		if q.Session == "skewed" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no quarantine entry for the unreplayable spec: %+v", rec.Quarantined)
	}
	for _, name := range rec.Restored {
		if name == "skewed" {
			t.Fatal("quarantined session listed as restored")
		}
	}
	ts.Close()

	_, ts2 := newTestServer(t, Config{DataDir: dir})
	resp, data = do(t, "GET", ts2.URL+"/v1/recovery", nil)
	var rec2 report.RecoveryJSON
	if err := json.Unmarshal(data, &rec2); err != nil {
		t.Fatal(err)
	}
	if len(rec2.Quarantined) != 0 {
		t.Fatalf("quarantined spec resurfaced on the next boot: %+v", rec2.Quarantined)
	}
}

// TestReplayIgnoresJournaledInjectFault: a create record journaled the
// way earlier versions wrote it, carrying options.injectFault, replays as
// a healthy session. The field names nothing any more: the session is not
// quarantined, nothing in it is degraded, and its analysis equals a fresh
// create's.
func TestReplayIgnoresJournaledInjectFault(t *testing.T) {
	dir := t.TempDir()
	req := busPayload(t, "legacy", 4, shard.OptionsSpec{})
	payload, err := json.Marshal(&record{Type: "create", Name: req.Name, Create: &req})
	if err != nil {
		t.Fatal(err)
	}
	payload = bytes.Replace(payload, []byte(`"options":{`), []byte(`"options":{"injectFault":"panic:*"`), 1)
	if !bytes.Contains(payload, []byte(`"options":{"injectFault":"panic:*"}`)) {
		t.Fatalf("the record does not carry the fault the way it was journaled: %s", payload)
	}
	st, _, err := OpenStore(dir, wal.Hooks{}, nil, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.log.Append(payload); err != nil {
		t.Fatal(err)
	}
	st.Close()

	_, ts := newTestServer(t, Config{DataDir: dir})
	resp, data := do(t, "GET", ts.URL+"/v1/recovery", nil)
	var rec report.RecoveryJSON
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Quarantined) != 0 || len(rec.Restored) != 1 || rec.Restored[0] != "legacy" {
		t.Fatalf("recovery = %d %s: quarantined %+v, restored %v", resp.StatusCode, data, rec.Quarantined, rec.Restored)
	}
	got := analyzeOK(t, ts.URL, "legacy", "analyze", nil)
	if got.Noise.Stats.DegradedNets != 0 {
		t.Fatalf("replayed session degraded %d net(s): the journaled fault fired", got.Noise.Stats.DegradedNets)
	}

	_, fresh := newTestServer(t, Config{})
	createSession(t, fresh.URL, "legacy", shard.OptionsSpec{})
	want := analyzeOK(t, fresh.URL, "legacy", "analyze", nil)
	g, _ := json.Marshal(got.Noise)
	w, _ := json.Marshal(want.Noise)
	if !bytes.Equal(g, w) {
		t.Fatalf("replayed session's analysis differs from a fresh create's\ngot:  %s\nwant: %s", g, w)
	}
}

// TestServerBootBeyondSessionCap: persisted sessions past MaxSessions
// stay on disk at boot and reload lazily.
func TestServerBootBeyondSessionCap(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir})
	for _, name := range []string{"s1", "s2", "s3"} {
		createSession(t, ts.URL, name, shard.OptionsSpec{})
	}
	ts.Close()

	clock := newTestClock()
	_, ts2 := newTestServer(t, Config{DataDir: dir, MaxSessions: 2, now: clock.now})
	resp, data := do(t, "GET", ts2.URL+"/v1/sessions", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d", resp.StatusCode)
	}
	var list []SessionInfo
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("list = %+v", list)
	}
	unloaded := 0
	for _, info := range list {
		if !info.Loaded {
			unloaded++
		}
	}
	if unloaded != 1 {
		t.Fatalf("%d sessions unloaded at boot, want 1 (%+v)", unloaded, list)
	}
	// Every one of them serves, loaded or not.
	for _, name := range []string{"s1", "s2", "s3"} {
		analyzeOK(t, ts2.URL, name, "analyze", nil)
	}
}

// TestServerStorageDegradedSurfaced: a storage failure flips the readyz
// diagnostic without killing the server.
func TestServerStorageDegradedSurfaced(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir, Faults: testFaults(t, "enospc:append:1", "")})
	ready := func() ReadyResponse {
		resp, data := do(t, "GET", ts.URL+"/readyz", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("readyz: %d", resp.StatusCode)
		}
		var rr ReadyResponse
		if err := json.Unmarshal(data, &rr); err != nil {
			t.Fatal(err)
		}
		return rr
	}
	if rr := ready(); !rr.Durable || rr.StorageDegraded {
		t.Fatalf("fresh readyz = %+v", rr)
	}
	resp, _ := do(t, "POST", ts.URL+"/v1/sessions", busPayload(t, "x", 4, shard.OptionsSpec{}))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create under enospc: %d", resp.StatusCode)
	}
	if rr := ready(); !rr.StorageDegraded {
		t.Fatalf("storage failure not surfaced: %+v", rr)
	}
}

// testClock hands out strictly increasing times under a lock so LRU
// ordering is deterministic even with concurrent requests.
type testClock struct {
	mu   sync.Mutex
	base time.Time
	n    int64
}

func newTestClock() *testClock { return &testClock{base: time.Now()} }

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return c.base.Add(time.Duration(c.n) * time.Second)
}
