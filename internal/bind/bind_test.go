package bind

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/spef"
)

// genericCell resolves a cell from the generic library, failing the test
// when it is missing.
func genericCell(t *testing.T, name string) *liberty.Cell {
	t.Helper()
	c, err := liberty.Generic().ResolveCell("", name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// twoInv builds in -> u0(INV_X1) -> mid -> u1(INV_X2) -> out.
func twoInv(t testing.TB) *netlist.Design {
	t.Helper()
	d := netlist.New("two")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := d.AddPort("in", netlist.In)
	must(err)
	_, err = d.AddPort("out", netlist.Out)
	must(err)
	_, err = d.AddInst("u0", "INV_X1")
	must(err)
	_, err = d.AddInst("u1", "INV_X2")
	must(err)
	must(d.Connect("u0", "A", "in", netlist.In))
	must(d.Connect("u0", "Y", "mid", netlist.Out))
	must(d.Connect("u1", "A", "mid", netlist.In))
	must(d.Connect("u1", "Y", "out", netlist.Out))
	return d
}

const midSpef = `*SPEF "x"
*DESIGN "two"
*D_NET mid 6.0e-15
*CONN
*I u0:Y O
*I u1:A I
*CAP
1 mid:1 3.0e-15
2 mid:1 agg:1 1.0e-15
*RES
1 u0:Y mid:1 120
2 mid:1 u1:A 80
*END
`

func TestBindWithSPEF(t *testing.T) {
	d := twoInv(t)
	lib := liberty.Generic()
	p, err := spef.Parse(strings.NewReader(midSpef))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(d, lib, p)
	if err != nil {
		t.Fatal(err)
	}
	nw := b.NetworkOf(d.FindNet("mid"))
	if a, err := b.AnalysisOf(d.FindNet("mid")); err != nil || a.Elmore(b.NodeOf(d.Driver(d.FindNet("mid")))) != 0 {
		t.Fatalf("driver u0:Y on node %d, error %v", b.NodeOf(d.Driver(d.FindNet("mid"))), err)
	}
	// Load cap = wire 3fF + coupling 1fF + u1 pin cap.
	pinCap := genericCell(t, "INV_X2").Pin("A").Cap
	want := 3e-15 + 1e-15 + pinCap
	got := nw.TotalCap()
	if diff := got - want; diff > 1e-21 || diff < -1e-21 {
		t.Fatalf("TotalCap = %g, want %g", got, want)
	}
	// Wire delay to the receiver pin is positive.
	var loadConn netlist.ConnID
	for _, lc := range d.Loads(d.FindNet("mid")) {
		loadConn = lc
	}
	wd, err := b.WireDelayTo(loadConn)
	if err != nil {
		t.Fatal(err)
	}
	if wd <= 0 {
		t.Fatalf("wire delay = %g", wd)
	}
}

func TestBindLumpedFallback(t *testing.T) {
	d := twoInv(t)
	b, err := New(d, liberty.Generic(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Without SPEF every net is lumped: load = receiver pin caps only.
	got := b.NetworkOf(d.FindNet("mid")).TotalCap()
	pinCap := genericCell(t, "INV_X2").Pin("A").Cap
	if diff := got - pinCap; diff > 1e-21 || diff < -1e-21 {
		t.Fatalf("lumped TotalCap = %g, want %g", got, pinCap)
	}
	if _, err := b.AnalysisOf(d.FindNet("mid")); err != nil {
		t.Fatal(err)
	}
}

func TestBindUnknownCell(t *testing.T) {
	d := netlist.New("bad")
	if _, err := d.AddPort("in", netlist.In); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddInst("u", "MYSTERY_CELL"); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect("u", "A", "in", netlist.In); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect("u", "Y", "y", netlist.Out); err != nil {
		t.Fatal(err)
	}
	if _, err := New(d, liberty.Generic(), nil); err == nil {
		t.Fatal("unknown cell accepted")
	}
}

func TestBindBadPinAndDirection(t *testing.T) {
	d := netlist.New("bad")
	if _, err := d.AddPort("in", netlist.In); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddInst("u", "INV_X1"); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect("u", "Q", "in", netlist.In); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect("u", "Y", "y", netlist.Out); err != nil {
		t.Fatal(err)
	}
	if _, err := New(d, liberty.Generic(), nil); err == nil {
		t.Fatal("bad pin name accepted")
	}

	d2 := netlist.New("bad2")
	if _, err := d2.AddInst("u", "INV_X1"); err != nil {
		t.Fatal(err)
	}
	// A connected as output: direction mismatch. Give Y a driver role on
	// another net so validation passes structurally.
	if err := d2.Connect("u", "A", "x", netlist.Out); err != nil {
		t.Fatal(err)
	}
	if _, err := New(d2, liberty.Generic(), nil); err == nil {
		t.Fatal("direction mismatch accepted")
	}
}

// TestBindPinErrorIsDeterministic: an instance with two bad pins reports
// the one that comes first by pin name, on every run.
func TestBindPinErrorIsDeterministic(t *testing.T) {
	const want = "bind: u.A: direction mismatch with cell INV_X1"
	for run := 0; run < 50; run++ {
		d := netlist.New("bad")
		if _, err := d.AddPort("in", netlist.In); err != nil {
			t.Fatal(err)
		}
		if _, err := d.AddInst("u", "INV_X1"); err != nil {
			t.Fatal(err)
		}
		// Q is no pin of the cell; A is an input connected as a driver.
		if err := d.Connect("u", "Q", "in", netlist.In); err != nil {
			t.Fatal(err)
		}
		if err := d.Connect("u", "A", "x", netlist.Out); err != nil {
			t.Fatal(err)
		}
		if _, err := New(d, liberty.Generic(), nil); err == nil || err.Error() != want {
			t.Fatalf("run %d: error %v, want %s", run, err, want)
		}
	}
}

func TestBindValidatesNetlist(t *testing.T) {
	d := netlist.New("invalid")
	if _, err := d.AddInst("u", "INV_X1"); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect("u", "A", "floating", netlist.In); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect("u", "Y", "y", netlist.Out); err != nil {
		t.Fatal(err)
	}
	if _, err := New(d, liberty.Generic(), nil); err == nil {
		t.Fatal("undriven net accepted")
	}
}

func TestHoldAndDriveRes(t *testing.T) {
	d := twoInv(t)
	lib := liberty.Generic()
	b, err := New(d, lib, nil)
	if err != nil {
		t.Fatal(err)
	}
	mid := d.FindNet("mid")
	if got := b.HoldRes(mid); got != genericCell(t, "INV_X1").HoldRes {
		t.Fatalf("HoldRes = %g", got)
	}
	if got := b.DriveRes(mid); got != genericCell(t, "INV_X1").DriveRes {
		t.Fatalf("DriveRes = %g", got)
	}
	// Port-driven net uses the 50 Ω default.
	in := d.FindNet("in")
	if got := b.HoldRes(in); got != 50 {
		t.Fatalf("port HoldRes = %g", got)
	}
	if got := b.DriveRes(in); got != 50 {
		t.Fatalf("port DriveRes = %g", got)
	}
}

// TestPinNode: a connection lands on the node the extractor named
// "inst:pin" (or, a port, by its bare name) and on nothing that merely
// resembles it — by linear scan on a small net and by hash on a large one —
// and a pin the extractor left out lands nowhere.
func TestPinNode(t *testing.T) {
	for _, pad := range []int{0, 40} {
		d := twoInv(t)
		_, err := d.AddInst("u2", "INV_X1")
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Connect("u2", "A", "mid", netlist.In); err != nil {
			t.Fatal(err)
		}
		if err := d.Connect("u2", "Y", "spare", netlist.Out); err != nil {
			t.Fatal(err)
		}
		names := []string{"u1:AA", "u1A", "u1:", ":A", "u0:Y", "u1:A"}
		for i := 0; i < pad; i++ {
			names = append(names, fmt.Sprintf("mid:%d", i))
		}
		sn := &spef.Net{Name: "mid", Conns: []spef.Conn{{Pin: "u0:Y", Dir: spef.DirOut, Node: "u0:Y"}}}
		for _, name := range names {
			if name != "u0:Y" {
				sn.Ress = append(sn.Ress, spef.ResEntry{A: "u0:Y", B: name, Ohms: 10})
			}
		}
		p := spef.NewParasitics("two")
		if err := p.AddNet(sn); err != nil {
			t.Fatal(err)
		}
		b, err := New(d, liberty.Generic(), p)
		if err != nil {
			t.Fatal(err)
		}
		// Nodes number in order of first mention: u0:Y, then the resistor ends.
		want := map[string]int32{"u0.Y": 0, "u1.A": 5, "u2.A": -1}
		for _, c := range d.NetConns(d.FindNet("mid")) {
			if got := b.NodeOf(c); got != want[d.ConnName(c)] {
				t.Errorf("%d nodes: %s on node %d, want %d", len(names), d.ConnName(c), got, want[d.ConnName(c)])
			}
		}
		if got := b.NodeOf(d.Driver(d.FindNet("in"))); got != 0 {
			t.Errorf("port in on node %d of its lumped net, want the root", got)
		}
	}
}
