package vlog

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/liberty"
	"repro/internal/netlist"
)

// designsEqual fails the test unless the two designs are structurally
// identical, including connection creation order on every net — the
// equivalence bar for the streaming parser.
func designsEqual(t *testing.T, got, want *netlist.Design) {
	t.Helper()
	if got.Name != want.Name {
		t.Fatalf("design name %q != %q", got.Name, want.Name)
	}
	if got.NumNets() != want.NumNets() || got.NumInsts() != want.NumInsts() ||
		len(got.Ports()) != len(want.Ports()) || got.NumConns() != want.NumConns() {
		t.Fatalf("counts differ: nets %d/%d insts %d/%d ports %d/%d conns %d/%d",
			got.NumNets(), want.NumNets(), got.NumInsts(), want.NumInsts(),
			len(got.Ports()), len(want.Ports()), got.NumConns(), want.NumConns())
	}
	var gw, ww bytes.Buffer
	if err := netlist.Write(&gw, got); err != nil {
		t.Fatal(err)
	}
	if err := netlist.Write(&ww, want); err != nil {
		t.Fatal(err)
	}
	if gw.String() != ww.String() {
		t.Fatalf("netlist text differs:\n--- got ---\n%s\n--- want ---\n%s", gw.String(), ww.String())
	}
	wantNets := want.Nets()
	for i, gn := range got.Nets() {
		wn := wantNets[i]
		if got.NetName(gn) != want.NetName(wn) || gn != wn {
			t.Fatalf("net %d: %q id %d != %q id %d", i, got.NetName(gn), gn, want.NetName(wn), wn)
		}
		gcs, wcs := got.NetConns(gn), want.NetConns(wn)
		if len(gcs) != len(wcs) {
			t.Fatalf("net %q: %d conns != %d", got.NetName(gn), len(gcs), len(wcs))
		}
		for j, gc := range gcs {
			wc := wcs[j]
			if gs, ws := got.ConnName(gc), want.ConnName(wc); gs != ws || got.Conn(gc).Dir != want.Conn(wc).Dir {
				t.Fatalf("net %q conn %d: {%s %v} != {%s %v}", got.NetName(gn), j, gs, got.Conn(gc).Dir, ws, want.Conn(wc).Dir)
			}
		}
		if (got.Driver(gn) < 0) != (want.Driver(wn) < 0) {
			t.Fatalf("net %q: driver presence mismatch", got.NetName(gn))
		}
	}
	wantInsts := want.Insts()
	for i, gi := range got.Insts() {
		wi := wantInsts[i]
		if got.InstName(gi) != want.InstName(wi) || got.CellName(gi) != want.CellName(wi) || gi != wi {
			t.Fatalf("inst %d: %s(%s) id %d != %s(%s) id %d",
				i, got.InstName(gi), got.CellName(gi), gi, want.InstName(wi), want.CellName(wi), wi)
		}
	}
}

// chainSource synthesizes a large valid module so the golden test
// crosses the read window many times.
func chainSource(n int) string {
	var b strings.Builder
	b.WriteString("module chain (a, y);\n  input a;\n  output y;\n")
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&b, "  wire n%d;\n", i)
	}
	prev := "a"
	for i := 0; i < n; i++ {
		out := fmt.Sprintf("n%d", i)
		if i == n-1 {
			out = "y"
		}
		fmt.Fprintf(&b, "  INV_X1 u%d (.A(%s), .Y(%s));\n", i, prev, out)
		prev = out
	}
	b.WriteString("endmodule\n")
	return b.String()
}

// wideSource is a module whose header, input and wire statements each
// list n names.
func wideSource(n int) string {
	names := func(prefix string) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s%d", prefix, i)
		}
		return b.String()
	}
	in := names("in")
	return "module wide (" + in + ");\n  input " + in + ";\n  wire " + names("w") + ";\n" +
		"  INV_X1 u0 (.A(in0), .Y(w0));\nendmodule\n"
}

func TestParseMatchesReference(t *testing.T) {
	bus4, err := os.ReadFile("../../testdata/bus4.v")
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]string{
		"sample":  sample,
		"bus4":    string(bus4),
		"escaped": "module m (\\a$1 );\n  input \\a$1 ;\nendmodule\n",
		"chain":   chainSource(3000),
		// The batch_wide shape: single statements of 30 000 names, each
		// several read windows long.
		"wide": wideSource(30000),
	}
	lib := liberty.Generic()
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			want, err := parseReference(strings.NewReader(src), lib)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Parse(strings.NewReader(src), lib)
			if err != nil {
				t.Fatal(err)
			}
			designsEqual(t, got, want)

			// The splitter must behave identically when reads are
			// fragmented arbitrarily.
			frag, err := Parse(iotest.OneByteReader(strings.NewReader(src)), lib)
			if err != nil {
				t.Fatal(err)
			}
			designsEqual(t, frag, want)
		})
	}
}

// TestParseErrorsMatchReference checks the streaming parser reports the
// same positioned error text as the reference on singly-broken inputs.
func TestParseErrorsMatchReference(t *testing.T) {
	cases := []string{
		"",
		"wire x;\n",
		"module t (a);\n  input a;\n",
		"module t (a);\n  input a;\n  FOO u0 (.A(a));\nendmodule\n",
		"module t (a);\n  input a;\n  INV_X1 u0 (.Q(a), .Y(y));\nendmodule\n",
		"module t (a);\n  input a;\n  INV_X1 u0 (a, y);\nendmodule\n",
		"module t (a, b);\n  input a;\nendmodule\n",
		"module t (a);\n  input a;\n  INV_X1 u0 (.A(a), .Y(y));\n  INV_X1 u0 (.A(a), .Y(z));\nendmodule\n",
		"module t (a);\n  input a, a;\nendmodule\n",
		"module t (a);\n  input (;\nendmodule\n",
		"module t;\nendmodule\n",
		"module t (a);\n  input a;\n  /* no end",
		"module t (a)\n",
		"module\n",
		// The error is where the parser stopped, not where a ';' fell.
		"module;\n00",
		"module;000",
		// A syntax error later in a declaration comes before its
		// duplicate; a lexical error anywhere comes before both.
		"module t (a);\n  input a, a, (;\nendmodule\n",
		"module t (a);\n  input a, a;\nendmodule /",
		"module t ();\nendmodule\n/* open",
	}
	lib := liberty.Generic()
	for i, src := range cases {
		_, wantErr := parseReference(strings.NewReader(src), lib)
		_, gotErr := Parse(strings.NewReader(src), lib)
		if wantErr == nil {
			t.Fatalf("case %d: reference accepted %q", i, src)
		}
		if gotErr == nil {
			t.Fatalf("case %d: streaming parser accepted %q, want error %v", i, src, wantErr)
		}
		if gotErr.Error() != wantErr.Error() {
			t.Errorf("case %d: error mismatch\n  got:  %v\n  want: %v", i, gotErr, wantErr)
		}
	}
}
