package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/shard"
	"repro/internal/wal"
)

// resultNeutral are the options that do not affect a result, so the run key
// leaves them out: serial and parallel runs are byte-identical by contract.
// Every other field of shard.OptionsSpec must move the run key.
var resultNeutral = map[string]bool{"Workers": true}

// TestRunKeyPolicy classifies every option by reflection: changing a keyed
// one changes the run key, changing a result-neutral one does not, and
// neither touches the design key, which the sources alone decide. An option
// added to shard.OptionsSpec fails here until keysOf encodes it or
// resultNeutral lists it.
func TestRunKeyPolicy(t *testing.T) {
	base := shard.DesignSpec{Netlist: "netlist", SPEF: "spef", Timing: "timing"}
	k0 := keysOf(&base)
	typ := reflect.TypeOf(base.Options)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		spec := base
		f := reflect.ValueOf(&spec.Options).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString("all")
		case reflect.Float64:
			f.SetFloat(0.25)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(4)
		default:
			t.Fatalf("OptionsSpec.%s is a %s; teach this test to change it", name, f.Kind())
		}
		k := keysOf(&spec)
		if k.design != k0.design {
			t.Errorf("OptionsSpec.%s changes the design key; options must not split the design cache", name)
		}
		switch moved := k.run != k0.run; {
		case resultNeutral[name] && moved:
			t.Errorf("OptionsSpec.%s is result-neutral but changes the run key", name)
		case !resultNeutral[name] && !moved:
			t.Errorf("OptionsSpec.%s does not change the run key: encode it in keysOf, or list it in resultNeutral if no result depends on it", name)
		}
	}

	// Every source is in both keys, and the framing keeps a byte moved
	// from one source to the next from colliding.
	for i, edit := range []func(*shard.DesignSpec){
		func(d *shard.DesignSpec) { d.Netlist += "x" },
		func(d *shard.DesignSpec) { d.Verilog += "x" },
		func(d *shard.DesignSpec) { d.SPEF += "x" },
		func(d *shard.DesignSpec) { d.Liberty += "x" },
		func(d *shard.DesignSpec) { d.Timing += "x" },
		func(d *shard.DesignSpec) { d.Netlist, d.Verilog = "netlis", "t" },
	} {
		spec := base
		edit(&spec)
		if k := keysOf(&spec); k.design == k0.design || k.run == k0.run {
			t.Errorf("source edit %d leaves a key unchanged", i)
		}
	}
}

// TestCreateSchemaPinned: moving the options onto shard.OptionsSpec keeps
// the create body byte for byte. The golden file is what the
// earlier schema, whose options were a server type of their own,
// marshalled a fully populated request to.
func TestCreateSchemaPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/create_request.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	full := CreateSessionRequest{
		Name: "full", Netlist: "netlist text\n", Verilog: "module m;\nendmodule\n", SPEF: "*SPEF\n",
		Liberty: "library (l) {}\n", Timing: "in0 0 1e-10\n",
		Options: shard.OptionsSpec{Mode: "all", Threshold: 0.25, NoPropagation: true, LogicCorrelation: true, Workers: 3, FailFast: true},
	}
	for _, v := range []reflect.Value{reflect.ValueOf(full), reflect.ValueOf(full.Options)} {
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).IsZero() {
				t.Fatalf("%s.%s is unset: the pinned request must populate every field", v.Type().Name(), v.Type().Field(i).Name)
			}
		}
	}
	got, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), want) {
		t.Errorf("create body changed:\n got %s\nwant %s", got, want)
	}
	var back CreateSessionRequest
	if err := json.Unmarshal(want, &back); err != nil || back != full {
		t.Errorf("the pinned body decodes to %+v (%v), want %+v", back, err, full)
	}
}

// TestLegacyCreateRecordReplays: a create journal record written by the
// earlier schema, every option set, replays into a session
// keyed and configured as a create of the same request, which answers
// analyze and iterate with the bytes a freshly created session does.
func TestLegacyCreateRecordReplays(t *testing.T) {
	payload, err := os.ReadFile("testdata/create_record.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	payload = bytes.TrimSuffix(payload, []byte("\n"))
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		t.Fatal(err)
	}
	wantOpts := shard.OptionsSpec{Mode: "all", Threshold: 0.05, NoPropagation: true, LogicCorrelation: true, Workers: 2, FailFast: true}
	if rec.Create.Options != wantOpts {
		t.Fatalf("golden record decodes options %+v, want %+v", rec.Create.Options, wantOpts)
	}
	dir := t.TempDir()
	log, _, err := wal.OpenLog(filepath.Join(dir, journalName), "journal", wal.Hooks{}, t.Logf, func([]byte, time.Time) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(payload); err != nil {
		t.Fatal(err)
	}
	log.Close()

	s, replayed := newTestServer(t, Config{DataDir: dir})
	sp := s.store.Spec("legacy")
	if sp == nil {
		t.Fatal("the legacy create record did not replay")
	}
	if want := keysOf(rec.Create.design()); sp.keys != want {
		t.Errorf("replayed keys differ from a create's of the same request")
	}
	ss := s.lookup("legacy")
	if ss == nil {
		t.Fatal("the replayed session is not loaded")
	}
	if o := ss.opts; o.Mode != core.ModeAllAggressors || o.FilterThreshold != 0.05 || !o.NoPropagation || !o.LogicCorrelation || o.Workers != 2 || o.FailSoft {
		t.Errorf("replayed engine options %+v do not carry the record's", o)
	}
	if *ss.design != *rec.Create.design() || ss.keys != sp.keys {
		t.Errorf("the replayed session does not keep the record's design and keys")
	}

	_, fresh := newTestServer(t, Config{})
	if resp, data := do(t, "POST", fresh.URL+"/v1/sessions", rec.Create); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d: %s", resp.StatusCode, data)
	}
	r1, got := do(t, "POST", replayed.URL+"/v1/sessions/legacy/analyze", AnalyzeRequest{Delay: true})
	r2, want := do(t, "POST", fresh.URL+"/v1/sessions/legacy/analyze", AnalyzeRequest{Delay: true})
	if r1.StatusCode != http.StatusOK || r2.StatusCode != http.StatusOK {
		t.Fatalf("analyze: status %d replayed, %d fresh: %s", r1.StatusCode, r2.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("analyze: the replayed session answers\n%s\na fresh create answers\n%s", got, want)
	}
	iterate := jobs.Spec{Session: "legacy", Type: "iterate", Delay: true}
	got = waitJobHTTP(t, replayed.URL, submitJob(t, replayed.URL, iterate).ID, "done").Result
	want = waitJobHTTP(t, fresh.URL, submitJob(t, fresh.URL, iterate).ID, "done").Result
	if !bytes.Equal(got, want) {
		t.Errorf("iterate job: the replayed session answers\n%s\na fresh create answers\n%s", got, want)
	}
}
