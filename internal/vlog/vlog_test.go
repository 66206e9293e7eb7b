package vlog

import (
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/liberty"
	"repro/internal/netlist"
)

const sample = `// a tiny mapped netlist
module top (a, b, y);
  input a, b;
  output y;
  wire n1; /* internal
             node */
  NAND2_X1 u0 (.A(a), .B(b), .Y(n1));
  INV_X1 u1 (.A(n1), .Y(y));
endmodule
`

func TestParseSample(t *testing.T) {
	d, err := Parse(strings.NewReader(sample), liberty.Generic())
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "top" {
		t.Fatalf("name = %q", d.Name)
	}
	if d.NumInsts() != 2 || len(d.Ports()) != 3 {
		t.Fatalf("insts=%d ports=%d", d.NumInsts(), len(d.Ports()))
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	u0 := d.FindInst("u0")
	if u0 < 0 || d.CellName(u0) != "NAND2_X1" {
		t.Fatalf("u0 = %d", u0)
	}
	if got := d.NetName(d.Conn(d.Outputs(u0)[0]).Net); got != "n1" {
		t.Fatalf("u0.Y net = %q", got)
	}
	// Directions resolved from the library.
	if d.DriverInst(d.FindNet("n1")) != u0 {
		t.Fatal("n1 driver wrong")
	}
	if d.Port(d.FindPort("a")).Dir != netlist.In || d.Port(d.FindPort("y")).Dir != netlist.Out {
		t.Fatal("port directions wrong")
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	lib := liberty.Generic()
	d, err := Parse(strings.NewReader(sample), lib)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Write(&sb, d); err != nil {
		t.Fatal(err)
	}
	d2, err := Parse(strings.NewReader(sb.String()), lib)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, sb.String())
	}
	if d2.NumInsts() != d.NumInsts() || d2.NumNets() != d.NumNets() || len(d2.Ports()) != len(d.Ports()) {
		t.Fatalf("round trip changed design:\n%s", sb.String())
	}
	if err := d2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseEscapedIdentifier(t *testing.T) {
	src := "module m (\\a$1 , y);\n input \\a$1 ;\n output y;\n INV_X1 u (.A(\\a$1 ), .Y(y));\nendmodule\n"
	d, err := Parse(strings.NewReader(src), liberty.Generic())
	if err != nil {
		t.Fatal(err)
	}
	if d.FindPort("a$1") < 0 {
		t.Fatalf("escaped port missing; ports = %v", d.Ports())
	}
}

func TestParseErrors(t *testing.T) {
	lib := liberty.Generic()
	cases := []struct{ name, src string }{
		{"no module", "wire x;"},
		{"unterminated comment", "module m (a); /* x"},
		{"unknown cell", "module m (a);\ninput a;\nFOO u (.A(a));\nendmodule"},
		{"bad pin", "module m (a);\ninput a;\nINV_X1 u (.Q(a));\nendmodule"},
		{"positional conn", "module m (a);\ninput a;\nINV_X1 u (a, a);\nendmodule"},
		{"undeclared header port", "module m (a, ghost);\ninput a;\nINV_X1 u (.A(a), .Y(y));\nendmodule"},
		{"missing endmodule", "module m (a);\ninput a;"},
		{"duplicate inst", "module m (a);\ninput a;\nINV_X1 u (.A(a), .Y(x));\nINV_X1 u (.A(a), .Y(z));\nendmodule"},
		{"vector decl", "module m (a);\ninput a;\nwire (x);\nendmodule"},
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c.src), lib); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestLineNumbersInErrors(t *testing.T) {
	src := "module m (a);\ninput a;\nFOO u (.A(a));\nendmodule"
	_, err := Parse(strings.NewReader(src), liberty.Generic())
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("err = %v, want line 3", err)
	}
}

func TestWriteDeterministic(t *testing.T) {
	lib := liberty.Generic()
	d, err := Parse(strings.NewReader(sample), lib)
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	if err := Write(&a, d); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, d); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("nondeterministic output")
	}
}

// TestTokenLongerThanWindow: a name the read window cannot hold grows the
// window, plain or escaped, whatever the read size.
func TestTokenLongerThanWindow(t *testing.T) {
	long := strings.Repeat("x", 200<<10)
	src := "module m (" + long + ", \\" + long + "y );\n input " + long + ";\n input \\" + long + "y ;\nendmodule\n"
	for _, r := range []io.Reader{strings.NewReader(src), iotest.HalfReader(strings.NewReader(src))} {
		d, err := Parse(r, liberty.Generic())
		if err != nil {
			t.Fatal(err)
		}
		if d.FindPort(long) < 0 || d.FindPort(long+"y") < 0 || len(d.Ports()) != 2 {
			t.Fatalf("%d ports, the long names are not among them", len(d.Ports()))
		}
	}
}

// TestReadError: a failing reader is reported as such, ahead of whatever
// parse error the truncated input would have been.
func TestReadError(t *testing.T) {
	r := io.MultiReader(strings.NewReader("module m (a);\n input a"), iotest.ErrReader(io.ErrUnexpectedEOF))
	_, err := Parse(r, liberty.Generic())
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.HasPrefix(err.Error(), "vlog: ") {
		t.Fatalf("err = %v, want the reader's error", err)
	}
}
