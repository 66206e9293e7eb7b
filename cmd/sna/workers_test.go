package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/units"
	"repro/internal/vlog"
	"repro/internal/workload"
)

// TestWorkersIdentity pins what -workers promises now that it covers the
// timing pass too: stdout, stderr, the exit code and the JSON report are
// byte-identical for any worker count. The fixtures are wide enough (levels
// of 200+ instances, 1200+ nets) that -workers 2 and 8 really fan the
// timing levels out: the bus, read as Verilog and as .net (the two must
// agree as well), the hot fabric with propagation and the delay pass, a
// design with a combinational loop (serial feedback fixpoint after
// parallel levels), and a fail-soft run with an injected per-net fault.
func TestWorkersIdentity(t *testing.T) {
	bus := func(t *testing.T, defects string) *workload.Generated {
		g, err := workload.Bus(workload.BusSpec{Bits: 300, Segs: 2, WindowSep: 25 * units.Pico, WindowWidth: 100 * units.Pico})
		if err != nil {
			t.Fatal(err)
		}
		if defects != "" {
			d, err := workload.ParseDefects(defects)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Inject(d); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	for _, tc := range []struct {
		name    string
		gen     func(t *testing.T) *workload.Generated
		verilog bool
		args    []string
		faults  string // a chaos.RuntimeFaults spec
	}{
		{name: "verilog-bus", gen: func(t *testing.T) *workload.Generated { return bus(t, "") }, verilog: true},
		{name: "hot-fabric", gen: func(t *testing.T) *workload.Generated {
			g, err := workload.Fabric(workload.FabricSpec{
				Width: 200, Levels: 6, CouplingDensity: 3,
				CoupleC: 12 * units.Femto, GroundC: 4 * units.Femto, SegRes: 60, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}, args: []string{"-delay"}},
		{name: "combinational-loop", gen: func(t *testing.T) *workload.Generated { return bus(t, "self-loop") }},
		{name: "inject-fault", gen: func(t *testing.T) *workload.Generated { return bus(t, "") },
			faults: "error:b7,panic:b250"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			n, s, w := writeDesign(t, dir, tc.gen(t))
			nets := []string{n}
			if tc.verilog {
				// Format identity too: the two readers build the design in
				// different orders, and nothing downstream may notice.
				g := tc.gen(t)
				v := filepath.Join(dir, "bus.v")
				writeTo(t, v, func(f *os.File) error { return vlog.Write(f, g.Design) })
				nets = []string{v, n}
			}
			var refCode int
			var refOut, refErr string
			var refJSON []byte
			for _, n := range nets {
				for _, workers := range []int{0, 1, 2, 8} {
					jsonPath := filepath.Join(dir, "out"+strconv.Itoa(workers)+".json")
					args := append([]string{"-net", n, "-spef", s, "-win", w, "-workers", strconv.Itoa(workers), "-json", jsonPath}, tc.args...)
					code, stdout, stderr := runSnaFaults(t, tc.faults, args...)
					if code == exitFail || code == exitUsage || code == exitLint {
						t.Fatalf("%s -workers %d: exit %d\nstderr: %s", filepath.Base(n), workers, code, stderr)
					}
					doc, err := os.ReadFile(jsonPath)
					if err != nil {
						t.Fatal(err)
					}
					if refJSON == nil {
						refCode, refOut, refErr, refJSON = code, stdout, stderr, doc
						continue
					}
					if code != refCode || stdout != refOut || stderr != refErr {
						t.Fatalf("%s -workers %d differs from %s -workers 0: exit %d vs %d\n--- stdout ---\n%s\n--- want ---\n%s", filepath.Base(n), workers, filepath.Base(nets[0]), code, refCode, stdout, refOut)
					}
					if string(doc) != string(refJSON) {
						t.Fatalf("%s -workers %d: JSON report differs from %s -workers 0", filepath.Base(n), workers, filepath.Base(nets[0]))
					}
				}
			}
			if tc.name == "combinational-loop" && !strings.Contains(refErr, "NL003") {
				t.Fatalf("fixture has no combinational loop; stderr:\n%s", refErr)
			}
		})
	}
}

// TestLoadErrorPrecedence pins the concurrent loader to the serial order
// it replaced: when several inputs are bad, the error text and exit code
// are those of the first in the order netlist, parasitics, timing —
// whichever parser finishes first.
func TestLoadErrorPrecedence(t *testing.T) {
	dir := t.TempDir()
	n, s, w := writeBus(t, dir, workload.BusSpec{WindowSep: 500 * units.Pico}, "")
	write := func(name, text string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	badNet := write("bad.net", "design d\nport p sideways\n")
	badV := write("bad.v", "module m (a;\n")
	badSpef := write("bad.spef", "*D_NET n1 1.0\n*CAP\n1 n1:1 -5\n*END\n")
	badWin := write("bad.win", "in0 rise=oops\n")
	missing := filepath.Join(dir, "missing")

	// The serial order's message for each bad input alone.
	msg := func(args ...string) string {
		t.Helper()
		code, _, stderr := runSna(args...)
		if code != exitFail || stderr == "" {
			t.Fatalf("sna %v: exit %d, stderr %q; want a load failure", args, code, stderr)
		}
		return stderr
	}
	netMsg, vMsg := msg("-net", badNet), msg("-net", badV)
	spefMsg := msg("-net", n, "-spef", badSpef)
	winMsg := msg("-net", n, "-win", badWin)
	noSpefMsg := msg("-net", n, "-spef", missing)

	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"netlist before spef", []string{"-net", badNet, "-spef", badSpef, "-win", w}, netMsg},
		{"verilog before spef and win", []string{"-net", badV, "-spef", badSpef, "-win", badWin}, vMsg},
		{"netlist before unreadable spef", []string{"-net", badNet, "-spef", missing, "-win", w}, netMsg},
		{"spef before win", []string{"-net", n, "-spef", badSpef, "-win", badWin}, spefMsg},
		{"unreadable spef before win", []string{"-net", n, "-spef", missing, "-win", badWin}, noSpefMsg},
		{"win alone", []string{"-net", n, "-spef", s, "-win", badWin}, winMsg},
	} {
		for rep := 0; rep < 5; rep++ {
			code, _, stderr := runSna(tc.args...)
			if code != exitFail || stderr != tc.want {
				t.Fatalf("%s: exit %d, stderr %q; want exit %d, stderr %q", tc.name, code, stderr, exitFail, tc.want)
			}
		}
	}
}
