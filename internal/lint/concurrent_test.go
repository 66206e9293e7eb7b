package lint

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/liberty"
	"repro/internal/workload"
)

// runSerial is Run as it was before the rules ran concurrently: one
// shared result appended to in rule-ID order, then the stable sort. It is
// the oracle for TestRunMatchesSerial.
func runSerial(in *Input, cfg Config) *Result {
	res := &Result{}
	for _, rule := range Rules() {
		if cfg.Suppress[rule.ID()] {
			continue
		}
		rule.Check(in, &Reporter{rule: rule.ID(), sev: rule.Severity(), cfg: &cfg, out: res})
	}
	sort.SliceStable(res.Diags, func(i, j int) bool {
		a, b := res.Diags[i], res.Diags[j]
		if a.Sev != b.Sev {
			return a.Sev > b.Sev
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Msg < b.Msg
	})
	return res
}

// TestRunMatchesSerial: the concurrent Run reports exactly the serial
// run's diagnostics, in its order, on the clean bus and on every defect
// fixture (alone and stacked), under the plain and the policy-laden
// configurations.
func TestRunMatchesSerial(t *testing.T) {
	specs := append([]string{"", "all"}, workload.DefectNames()...)
	cfgs := []Config{
		{},
		{Werror: true, Suppress: map[string]bool{"SPF002": true}},
	}
	for _, spec := range specs {
		g, err := workload.Bus(workload.BusSpec{Bits: 48, Segs: 3})
		if err != nil {
			t.Fatal(err)
		}
		if spec != "" {
			d, err := workload.ParseDefects(spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Inject(d); err != nil {
				t.Fatal(err)
			}
		}
		in := &Input{Design: g.Design, Lib: liberty.Generic(), Paras: g.Paras, Inputs: g.Inputs}
		for i, cfg := range cfgs {
			want := runSerial(in, cfg)
			for rep := 0; rep < 3; rep++ {
				if got := Run(in, cfg); !reflect.DeepEqual(got.Diags, want.Diags) {
					t.Fatalf("defects %q, config %d: concurrent run differs from serial\n got %+v\nwant %+v", spec, i, got.Diags, want.Diags)
				}
			}
		}
	}
}

// A rule that panics must do so on Run's caller, where a server handler's
// recover can see it, not on a goroutine nobody can recover.
func TestRunRepanicsOnCaller(t *testing.T) {
	saved := registry
	defer func() { registry = saved }()
	registry = append([]Rule(nil), saved...)
	Register(&rule{id: "ZZZ999", title: "panics", sev: Info, check: func(*Input, *Reporter) { panic("boom") }})
	g, err := workload.Bus(workload.BusSpec{Bits: 4, Segs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the rule's panic", r)
		}
	}()
	Run(&Input{Design: g.Design, Lib: liberty.Generic(), Paras: g.Paras, Inputs: g.Inputs}, Config{})
	t.Fatal("Run returned past a panicking rule")
}
