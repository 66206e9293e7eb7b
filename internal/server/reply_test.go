package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/liberty"
	"repro/internal/report"
	"repro/internal/shard"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestAnswerEncodesAsAnalyzeResponse holds the reply encoder to the schema
// it writes: json.Marshal over the AnalyzeResponse the answer stands for,
// byte for byte, for every optional member and a hostile session name.
func TestAnswerEncodesAsAnalyzeResponse(t *testing.T) {
	g, err := workload.Bus(workload.BusSpec{Bits: 6, Segs: 2, CoupleC: 30 * units.Femto, GroundC: 1 * units.Femto})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Bind(liberty.Generic())
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions(), FailSoft: true}
	clean, err := core.NewSession(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.PrepareHook = chaos.RuntimeFaults{Panic: []string{"b1"}}.Hook()
	degraded, err := core.NewSession(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Noise().Violations) == 0 || degraded.Noise().Stats.DegradedNets == 0 {
		t.Fatal("fixtures lost coverage: want violations on one session and a degraded net on the other")
	}
	iterate := &IterateInfo{
		Rounds: 3, Diverging: true, DivergeReason: "slack <grew> & shrank", Distributed: true, Workers: 2, Shards: 3,
		Reassigns: 1, AbandonedShards: []int{2}, Resumed: true,
		Dispatches: map[string]shard.OpStat{"round": {Dispatches: 6, Seconds: 0.25}, "init": {Dispatches: 3, Seconds: 1e-7}},
	}
	for _, name := range []string{"bus", "<&>\u2028\u2029\"x\""} {
		for sname, sess := range map[string]*core.Session{"clean": clean, "degraded": degraded} {
			for _, delay := range []bool{false, true} {
				for _, a := range []answer{{}, {changedNets: 2}, {rebuilt: true}, {changedNets: 1, rebuilt: true}, {iterate: iterate}} {
					a.noise = sess.Noise()
					want := AnalyzeResponse{Session: name, Noise: report.BuildJSON(a.noise), ChangedNets: a.changedNets, Rebuilt: a.rebuilt, Iterate: a.iterate}
					if delay {
						a.delay = sess.Delay()
						want.Delay = report.BuildDelayJSON(a.delay)
					}
					what := fmt.Sprintf("%q/%s/delay=%v/changed=%d/rebuilt=%v/iterate=%v", name, sname, delay, a.changedNets, a.rebuilt, a.iterate != nil)
					wantB, err := json.Marshal(want)
					if err != nil {
						t.Fatal(err)
					}
					got, err := a.encode([]byte("head"), name)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if !bytes.Equal(got, append([]byte("head"), wantB...)) {
						t.Fatalf("%s: reply differs from json.Marshal(AnalyzeResponse)\n got: %.300s\nwant: head%.300s", what, got, wantB)
					}
				}
			}
		}
	}
}

// fetch sends a request from any goroutine and returns the 200 body.
func fetch(method, url string, body any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, data)
	}
	return data, err
}

// TestConcurrentRepliesMatchSerialOracle is the encode-under-the-slot
// contract. A reply reads the engine's own result, whose member lists the
// next reanalyze rewrites in place; encoded after the busy slot is released
// it races that rewrite (the race detector reports it) and can mix two
// states. Two writers pad one session, each its own net, while a reader
// polls GET report: every body must be, byte for byte, the reply a serial
// run gives at that padding, and a writer's reply must carry its own
// latest padding.
func TestConcurrentRepliesMatchSerialOracle(t *testing.T) {
	const steps = 6
	nets := [2]string{"b1", "b2"}
	pad := func(k int) float64 { return float64(k) * 3 * units.Pico }

	// The serial oracle, on its own server: state (i, j) is b1 padded to
	// step i and b2 to step j; (0, 0) is the first analyze.
	type state struct{ i, j int }
	oracle := map[string]state{}
	_, ots := newTestServer(t, Config{})
	for i := 0; i <= steps; i++ {
		for j := 0; j <= steps; j++ {
			createSession(t, ots.URL, "s", shard.OptionsSpec{})
			body, err := fetch("POST", ots.URL+"/v1/sessions/s/analyze", nil)
			for g, k := range []int{i, j} {
				if err == nil && k > 0 {
					body, err = fetch("POST", ots.URL+"/v1/sessions/s/reanalyze", ReanalyzeRequest{Padding: map[string]float64{nets[g]: pad(k)}})
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			oracle[string(body)] = state{i, j}
			if resp, data := do(t, "DELETE", ots.URL+"/v1/sessions/s", nil); resp.StatusCode != http.StatusNoContent {
				t.Fatalf("delete: %d: %s", resp.StatusCode, data)
			}
		}
	}
	if len(oracle) != (steps+1)*(steps+1) {
		t.Fatalf("%d distinct oracle replies for %d states: the paddings must all differ", len(oracle), (steps+1)*(steps+1))
	}

	_, ts := newTestServer(t, Config{})
	createSession(t, ts.URL, "s", shard.OptionsSpec{})
	if _, err := fetch("POST", ts.URL+"/v1/sessions/s/analyze", nil); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2*steps+1)
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	for g := range nets {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for k := 1; k <= steps; k++ {
				body, err := fetch("POST", ts.URL+"/v1/sessions/s/reanalyze", ReanalyzeRequest{Padding: map[string]float64{nets[g]: pad(k)}})
				st, ok := oracle[string(body)]
				switch {
				case err != nil:
				case !ok:
					err = fmt.Errorf("%s step %d: reply is no serial run's (%d bytes)", nets[g], k, len(body))
				case []int{st.i, st.j}[g] != k:
					err = fmt.Errorf("%s step %d: reply is the serial run at state %v", nets[g], k, st)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			body, err := fetch("GET", ts.URL+"/v1/sessions/s/report", nil)
			if _, ok := oracle[string(body)]; err == nil && !ok {
				err = fmt.Errorf("GET report is no serial run's reply (%d bytes)", len(body))
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// jobResult fetches a job twice, alone and in the listing, and returns the
// raw bytes of its result member in each reply with the single-job body.
func jobResult(t *testing.T, base, id string) (one, listed, body []byte) {
	t.Helper()
	_, body = do(t, "GET", base+"/v1/jobs/"+id, nil)
	var j struct{ Result json.RawMessage }
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	_, list := do(t, "GET", base+"/v1/jobs", nil)
	var l struct {
		Jobs []struct {
			ID     string
			Result json.RawMessage
		}
	}
	if err := json.Unmarshal(list, &l); err != nil {
		t.Fatal(err)
	}
	for _, lj := range l.Jobs {
		if lj.ID == id {
			listed = lj.Result
		}
	}
	return j.Result, listed, body
}

// TestJobResultServedAsStored: a done job's result is the bytes its
// analysis encoded, which are also GET report's and a later analyze's, in
// both job endpoints and after a restart replays the journal. Only those
// bytes differ from what writeJSON wrote (it re-indented them): the replies
// decode to the same JobJSON values, and `snad job` prints the same text.
func TestJobResultServedAsStored(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{DataDir: dir})
	createSession(t, ts1.URL, "bus", shard.OptionsSpec{})
	analyzeOK(t, ts1.URL, "bus", "analyze", AnalyzeRequest{Delay: true}) // the job's analysis is then no rebuild
	ack := submitJob(t, ts1.URL, jobs.Spec{Session: "bus", Type: "analyze", Delay: true})
	waitJobHTTP(t, ts1.URL, ack.ID, "done")

	stored, listed, body := jobResult(t, ts1.URL, ack.ID)
	_, rep := do(t, "GET", ts1.URL+"/v1/sessions/bus/report", nil)
	again, err := fetch("POST", ts1.URL+"/v1/sessions/bus/analyze", AnalyzeRequest{Delay: true})
	if err != nil {
		t.Fatal(err)
	}
	for what, b := range map[string][]byte{"GET /v1/jobs": listed, "GET report": rep, "the next analyze": again} {
		if !bytes.Equal(stored, b) {
			t.Fatalf("job result (%d bytes) is not %s's bytes (%d)", len(stored), what, len(b))
		}
	}

	// What writeJSON wrote over the same snapshots.
	snap, err := s1.jobs.Get(ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	for what, v := range map[string]any{"/v1/jobs/" + ack.ID: snap, "/v1/jobs": JobsResponse{Jobs: s1.jobs.List()}} {
		rec := httptest.NewRecorder()
		s1.writeJSON(rec, http.StatusOK, v)
		_, got := do(t, "GET", ts1.URL+what, nil)
		var reindented bytes.Buffer
		if err := json.Indent(&reindented, got, "", "  "); err != nil {
			t.Fatal(err)
		}
		if strings.TrimSpace(reindented.String()) != strings.TrimSpace(rec.Body.String()) {
			t.Fatalf("GET %s differs from writeJSON's reply beyond the result's whitespace", what)
		}
	}
	var ours, theirs report.JobJSON
	rec := httptest.NewRecorder()
	s1.writeJSON(rec, http.StatusOK, snap)
	if err := json.Unmarshal(body, &ours); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &theirs); err != nil {
		t.Fatal(err)
	}
	var textOurs, textTheirs strings.Builder
	report.JobText(&textOurs, &ours)
	report.JobText(&textTheirs, &theirs)
	if textOurs.String() != textTheirs.String() {
		t.Fatalf("snad job text changed:\n%s\nwant:\n%s", textOurs.String(), textTheirs.String())
	}
	var compacted bytes.Buffer
	json.Compact(&compacted, theirs.Result)
	theirs.Result = compacted.Bytes()
	if a, b := fmt.Sprintf("%+v", ours), fmt.Sprintf("%+v", theirs); a != b {
		t.Fatalf("decoded job differs:\n%s\nwant:\n%s", a, b)
	}

	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Config{DataDir: dir})
	replayed, listed, _ := jobResult(t, ts2.URL, ack.ID)
	if !bytes.Equal(replayed, stored) || !bytes.Equal(listed, stored) {
		t.Fatalf("after a restart the job's result is %d and %d bytes, not the %d it was", len(replayed), len(listed), len(stored))
	}
}
