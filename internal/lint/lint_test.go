package lint_test

import (
	"strings"
	"testing"

	"repro/internal/interval"
	"repro/internal/liberty"
	"repro/internal/lint"
	"repro/internal/netlist"
	"repro/internal/units"
	"repro/internal/workload"
)

// required lists the rule IDs the pass must ship with.
var required = []string{
	"NL001", "NL002", "NL003",
	"LIB001", "LIB002", "BND001",
	"SPF001", "SPF002", "RC001",
	"STA001",
}

func TestRegistryComplete(t *testing.T) {
	have := make(map[string]lint.Rule)
	prev := ""
	for _, r := range lint.Rules() {
		have[r.ID()] = r
		if r.ID() <= prev {
			t.Fatalf("rules not sorted: %q after %q", r.ID(), prev)
		}
		prev = r.ID()
		if r.Title() == "" {
			t.Fatalf("rule %s has no title", r.ID())
		}
	}
	for _, id := range required {
		if have[id] == nil {
			t.Fatalf("rule %s not registered", id)
		}
	}
}

func genBus(t *testing.T) *workload.Generated {
	t.Helper()
	g, err := workload.Bus(workload.BusSpec{Bits: 4, Segs: 2})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func lintWorkload(t *testing.T, g *workload.Generated, lib *liberty.Library, cfg lint.Config) *lint.Result {
	t.Helper()
	if lib == nil {
		lib = liberty.Generic()
	}
	return lint.Run(&lint.Input{
		Design: g.Design,
		Lib:    lib,
		Paras:  g.Paras,
		Inputs: g.Inputs,
	}, cfg)
}

// TestCleanWorkloads is the negative test for every rule: freshly
// generated designs must produce zero error-severity diagnostics.
func TestCleanWorkloads(t *testing.T) {
	cases := map[string]func() (*workload.Generated, error){
		"bus": func() (*workload.Generated, error) {
			return workload.Bus(workload.BusSpec{Bits: 4, Segs: 2})
		},
		"fabric": func() (*workload.Generated, error) {
			return workload.Fabric(workload.FabricSpec{Width: 4, Levels: 3, Seed: 7})
		},
		"chain": func() (*workload.Generated, error) {
			return workload.Chain(workload.ChainSpec{Depth: 3})
		},
		"star": func() (*workload.Generated, error) {
			return workload.Star(workload.StarSpec{
				Windows: []interval.Window{
					interval.New(0, 100*units.Pico),
					interval.New(50*units.Pico, 150*units.Pico),
				},
			})
		},
	}
	for name, gen := range cases {
		t.Run(name, func(t *testing.T) {
			g, err := gen()
			if err != nil {
				t.Fatal(err)
			}
			res := lintWorkload(t, g, nil, lint.Config{})
			if res.HasErrors() {
				t.Fatalf("clean %s design has lint errors:\n%+v", name, res.Diags)
			}
		})
	}
}

// TestInjectedDefects is the positive test for every rule: each injection
// knob must light up exactly its target rule at the expected severity.
func TestInjectedDefects(t *testing.T) {
	cases := []struct {
		spec    string
		rule    string
		sev     lint.Severity
		objWant string
	}{
		{"multi-driven", "NL001", lint.Error, "net b0"},
		{"floating-input", "NL002", lint.Error, "net defect_float"},
		{"self-loop", "NL003", lint.Warn, "design bus4"},
		{"stray-spef", "SPF001", lint.Error, "spef net defect_ghost"},
		{"dangling-cap", "SPF002", lint.Error, "spef net b0"},
		{"negative-cap", "SPF002", lint.Error, "spef net b0"},
		{"orphan-node", "RC001", lint.Error, "spef net b0"},
		{"quiet-input", "STA001", lint.Warn, "input in0"},
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			g := genBus(t)
			d, err := workload.ParseDefects(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Inject(d); err != nil {
				t.Fatal(err)
			}
			res := lintWorkload(t, g, nil, lint.Config{})
			diags := res.ByRule(tc.rule)
			if len(diags) == 0 {
				t.Fatalf("defect %s produced no %s diagnostic:\n%+v", tc.spec, tc.rule, res.Diags)
			}
			found := false
			for _, dg := range diags {
				if dg.Sev == tc.sev && strings.Contains(dg.Object, tc.objWant) {
					found = true
				}
				if dg.Hint == "" {
					t.Errorf("%s diagnostic has no fix hint: %+v", tc.rule, dg)
				}
			}
			if !found {
				t.Fatalf("no %s diagnostic at %v mentioning %q:\n%+v",
					tc.rule, tc.sev, tc.objWant, diags)
			}
		})
	}
}

// TestInjectAll stacks every netlist/parasitic defect at once; each rule
// still isolates its own finding.
func TestInjectAll(t *testing.T) {
	g := genBus(t)
	d, err := workload.ParseDefects("all")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Any() {
		t.Fatal("ParseDefects(all) set no knobs")
	}
	if err := g.Inject(d); err != nil {
		t.Fatal(err)
	}
	res := lintWorkload(t, g, nil, lint.Config{})
	for _, id := range []string{"NL001", "NL002", "NL003", "SPF001", "SPF002", "RC001", "STA001"} {
		if len(res.ByRule(id)) == 0 {
			t.Errorf("rule %s silent on the all-defects design", id)
		}
	}
}

func TestParseDefectsRejectsUnknown(t *testing.T) {
	if _, err := workload.ParseDefects("multi-driven,bogus"); err == nil {
		t.Fatal("unknown defect name accepted")
	}
}

func TestBrokenLibrary(t *testing.T) {
	cases := []struct {
		defect workload.LibraryDefect
		rule   string
		sev    lint.Severity
	}{
		{workload.NonMonotoneTable, "LIB001", lint.Error},
		{workload.NonMonotoneImmunity, "LIB001", lint.Error},
		{workload.MissingTransfer, "LIB002", lint.Warn},
	}
	for _, tc := range cases {
		t.Run(string(tc.defect), func(t *testing.T) {
			g := genBus(t)
			lib, err := workload.BreakLibrary(liberty.Generic(), tc.defect)
			if err != nil {
				t.Fatal(err)
			}
			res := lintWorkload(t, g, lib, lint.Config{})
			diags := res.ByRule(tc.rule)
			if len(diags) == 0 {
				t.Fatalf("library defect %s produced no %s diagnostic:\n%+v",
					tc.defect, tc.rule, res.Diags)
			}
			if diags[0].Sev != tc.sev {
				t.Fatalf("%s severity = %v, want %v", tc.rule, diags[0].Sev, tc.sev)
			}
			// The pristine library must stay clean after BreakLibrary's copy.
			if res := lintWorkload(t, genBus(t), liberty.Generic(), lint.Config{}); len(res.ByRule(tc.rule)) > 0 && tc.rule == "LIB001" {
				t.Fatalf("BreakLibrary mutated the source library: %+v", res.ByRule(tc.rule))
			}
		})
	}
}

func TestBindingRule(t *testing.T) {
	g := genBus(t)
	// Point one instance at a cell the library does not have.
	var text strings.Builder
	if err := netlist.Write(&text, g.Design); err != nil {
		t.Fatal(err)
	}
	old := "inst d0 " + g.Design.CellName(g.Design.FindInst("d0")) + "\n"
	d, err := netlist.Parse(strings.NewReader(strings.Replace(text.String(), old, "inst d0 MYSTERY_X9\n", 1)))
	if err != nil {
		t.Fatal(err)
	}
	g.Design = d
	res := lintWorkload(t, g, nil, lint.Config{})
	diags := res.ByRule("BND001")
	if len(diags) == 0 || !strings.Contains(diags[0].Msg, "MYSTERY_X9") {
		t.Fatalf("unknown cell not reported: %+v", diags)
	}
}

func TestSuppression(t *testing.T) {
	g := genBus(t)
	d, _ := workload.ParseDefects("multi-driven")
	if err := g.Inject(d); err != nil {
		t.Fatal(err)
	}
	res := lintWorkload(t, g, nil, lint.Config{Suppress: map[string]bool{"NL001": true}})
	if len(res.ByRule("NL001")) > 0 {
		t.Fatalf("suppressed rule still reported: %+v", res.ByRule("NL001"))
	}
}

func TestWerror(t *testing.T) {
	g := genBus(t)
	d, _ := workload.ParseDefects("quiet-input")
	if err := g.Inject(d); err != nil {
		t.Fatal(err)
	}
	if res := lintWorkload(t, g, nil, lint.Config{}); res.HasErrors() {
		t.Fatalf("quiet input is an error without werror: %+v", res.Diags)
	}
	res := lintWorkload(t, g, nil, lint.Config{Werror: true})
	if !res.HasErrors() {
		t.Fatalf("werror did not escalate the warning: %+v", res.Diags)
	}
	if got := res.ByRule("STA001"); len(got) == 0 || got[0].Sev != lint.Error {
		t.Fatalf("STA001 under werror = %+v, want error", got)
	}
}

func TestResultSorted(t *testing.T) {
	g := genBus(t)
	d, _ := workload.ParseDefects("all")
	if err := g.Inject(d); err != nil {
		t.Fatal(err)
	}
	res := lintWorkload(t, g, nil, lint.Config{})
	for i := 1; i < len(res.Diags); i++ {
		a, b := res.Diags[i-1], res.Diags[i]
		if a.Sev < b.Sev {
			t.Fatalf("diag %d (%v) sorted after lower-severity %v", i, b.Sev, a.Sev)
		}
		if a.Sev == b.Sev && a.Rule > b.Rule {
			t.Fatalf("diag %d rule %s sorted after %s", i, b.Rule, a.Rule)
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate rule registration did not panic")
		}
	}()
	lint.Register(lint.Rules()[0])
}

func TestSeverityString(t *testing.T) {
	for sev, want := range map[lint.Severity]string{
		lint.Info: "info", lint.Warn: "warn", lint.Error: "error",
	} {
		if got := sev.String(); got != want {
			t.Fatalf("Severity(%d).String() = %q, want %q", sev, got, want)
		}
	}
}
