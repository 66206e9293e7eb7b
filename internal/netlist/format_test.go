package netlist

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/textio"
)

// sameDesign fails the test unless the two designs are the same database:
// every object under the same creation-order ID, and every net's and
// instance's connections in the same order.
func sameDesign(t testing.TB, got, want *Design) {
	t.Helper()
	if got.Name != want.Name || got.NumNets() != want.NumNets() || got.NumInsts() != want.NumInsts() ||
		got.NumPorts() != want.NumPorts() || got.NumConns() != want.NumConns() {
		t.Fatalf("design %q nets %d insts %d ports %d conns %d, want %q %d %d %d %d",
			got.Name, got.NumNets(), got.NumInsts(), got.NumPorts(), got.NumConns(),
			want.Name, want.NumNets(), want.NumInsts(), want.NumPorts(), want.NumConns())
	}
	sameConns := func(where string, got, want []*Conn) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d connections, want %d", where, len(got), len(want))
		}
		for j, wc := range want {
			if gc := got[j]; gc.ID() != wc.ID() || gc.Name() != wc.Name() || gc.Dir != wc.Dir || gc.Net.Name != wc.Net.Name {
				t.Fatalf("%s connection %d: #%d %s %v on %s, want #%d %s %v on %s", where, j,
					gc.ID(), gc.Name(), gc.Dir, gc.Net.Name, wc.ID(), wc.Name(), wc.Dir, wc.Net.Name)
			}
		}
	}
	for id, wn := range want.nets.all() {
		gn := got.nets.at(id)
		if gn.Name != wn.Name || (gn.Driver() == nil) != (wn.Driver() == nil) {
			t.Fatalf("net %d: %q, want %q (or one of the two has no driver)", id, gn.Name, wn.Name)
		}
		sameConns("net "+wn.Name, gn.Conns, wn.Conns)
		sameConns("net "+wn.Name+" loads", gn.Loads(), wn.Loads())
	}
	for id, wi := range want.insts.all() {
		gi := got.insts.at(id)
		if gi.Name != wi.Name || gi.Cell != wi.Cell {
			t.Fatalf("inst %d: %s (%s), want %s (%s)", id, gi.Name, gi.Cell, wi.Name, wi.Cell)
		}
		sameConns("inst "+wi.Name+" inputs", gi.Inputs(), wi.Inputs())
		sameConns("inst "+wi.Name+" outputs", gi.Outputs(), wi.Outputs())
	}
	for id, wp := range want.ports.all() {
		if gp := got.ports.at(id); gp.Name != wp.Name || gp.Dir != wp.Dir || gp.Conn.ID() != wp.Conn.ID() {
			t.Fatalf("port %d: %s %v, want %s %v", id, gp.Name, gp.Dir, wp.Name, wp.Dir)
		}
	}
}

// chainText is an n-stage inverter chain in .net format.
func chainText(n int) string {
	var b strings.Builder
	b.WriteString("# chain\ndesign chain\nport a in\nport y out\n")
	prev := "a"
	for i := 0; i < n; i++ {
		out := fmt.Sprintf("n%d", i)
		if i == n-1 {
			out = "y"
		}
		fmt.Fprintf(&b, "inst u%d INV_X1\nconn u%d A %s in\nconn u%d Y %s out\n", i, i, prev, i, out)
		prev = out
	}
	return b.String()
}

func TestParseMatchesReference(t *testing.T) {
	bus4, err := os.ReadFile("../../testdata/bus4.net")
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]string{
		"bus4":  string(bus4),
		"chain": chainText(3000),
		"crlf":  strings.ReplaceAll(chainText(20), "\n", "\r\n"),
		// conn lines that do not follow their inst, indented comments,
		// Unicode space between fields, no final newline.
		"loose": "design d\ninst u INV\ninst v INV\n  # note\nconn v A n in\nconn u Y n out\n\nconn v Y m out",
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			want, err := parseReference(strings.NewReader(src))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Parse(strings.NewReader(src))
			if err != nil {
				t.Fatal(err)
			}
			sameDesign(t, got, want)
			frag, err := Parse(iotest.OneByteReader(strings.NewReader(src)))
			if err != nil {
				t.Fatal(err)
			}
			sameDesign(t, frag, want)
		})
	}
}

// FuzzParse holds the .net reader to its reference on any input: the same
// design, or the same error text.
func FuzzParse(f *testing.F) {
	seed, err := os.ReadFile("../../testdata/bus4.net")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(seed))
	f.Add(chainText(3))
	f.Add("design a\r\nport p in\r\n")
	f.Add("design a\nport p in\nport p out\n")                  // duplicate port
	f.Add("design a\ninst i INV\nconn i A n in\nconn i A m in") // pin connected twice
	f.Add("design a\nconn i A n in")                            // unknown instance
	f.Add("port p in")                                          // before design
	f.Add("design a\nport p sideways")
	f.Add("  # only a comment\n\n")
	f.Add("design a b\n")
	f.Add("design \xff\nport  p in\n")
	f.Fuzz(func(t *testing.T, src string) {
		want, wantErr := parseReference(strings.NewReader(src))
		got, err := Parse(strings.NewReader(src))
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("Parse: %v\nreference: %v", err, wantErr)
		}
		if err == nil {
			sameDesign(t, got, want)
		}
	})
}

// TestNameIndex drives the design's name table through several
// doublings: every name stays findable, in its own name space, and a
// view of a reused buffer is copied, not kept.
func TestNameIndex(t *testing.T) {
	d := New("t")
	buf := make([]byte, 0, 16)
	const n = 5000
	for i := 0; i < n; i++ {
		buf = fmt.Appendf(buf[:0], "x%d", i)
		switch name := textio.View(buf); i % 3 {
		case 0:
			d.Net(name)
		case 1:
			if _, err := d.AddInst(name, "INV"); err != nil {
				t.Fatal(err)
			}
		case 2:
			if _, err := d.AddPort(name, In); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("x%d", i)
		net, inst, port := d.FindNet(name) != nil, d.FindInst(name) != nil, d.FindPort(name) != nil
		if net != (i%3 != 1) || inst != (i%3 == 1) || port != (i%3 == 2) {
			t.Fatalf("%s: net %v inst %v port %v", name, net, inst, port)
		}
	}
	if d.FindNet("x") != nil || d.FindNet("") != nil || d.FindInst("x5000") != nil {
		t.Fatal("found a name that was never added")
	}
	if _, err := d.AddPort("x2", Out); err == nil {
		t.Fatal("duplicate port accepted")
	}
	if _, err := d.AddInst("x1", "BUF"); err == nil {
		t.Fatal("duplicate instance accepted")
	}
}

// TestInstPins: Conn finds a pin whatever its direction, and Pins is in
// pin-name order even when that interleaves outputs with inputs.
func TestInstPins(t *testing.T) {
	d := New("t")
	u, err := d.AddInst("u", "CELL")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		pin string
		dir Dir
	}{{"S", In}, {"B", Out}, {"A", In}, {"Z", Out}, {"C", In}} {
		if err := d.ConnectPin(u, c.pin, "n_"+c.pin, c.dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.ConnectPin(u, "B", "other", In); err == nil {
		t.Fatal("pin B connected twice")
	}
	order := func(conns []*Conn) string {
		var pins []string
		for _, c := range conns {
			pins = append(pins, c.Pin)
		}
		return strings.Join(pins, "")
	}
	if in, out, all := order(u.Inputs()), order(u.Outputs()), order(u.Pins()); in != "ACS" || out != "BZ" || all != "ABCSZ" {
		t.Fatalf("inputs %s outputs %s pins %s, want ACS BZ ABCSZ", in, out, all)
	}
	if c := u.Conn("Z"); c == nil || c.Net.Name != "n_Z" || u.Conn("Q") != nil {
		t.Fatalf("Conn(Z) = %v, Conn(Q) = %v", c, u.Conn("Q"))
	}
	if d.insts.at(int(u.ID())) != u || d.NetByID(u.Conn("A").Net.ID()) != d.FindNet("n_A") {
		t.Fatal("an ID does not lead back to its object")
	}
	// After Compact the views are the same and a later connection still
	// lands in its place.
	d.Compact()
	if err := d.ConnectPin(u, "D", "n_D", In); err != nil {
		t.Fatal(err)
	}
	if in, all := order(u.Inputs()), order(u.Pins()); in != "ACDS" || all != "ABCDSZ" {
		t.Fatalf("after Compact: inputs %s pins %s", in, all)
	}
}

// TestMemBytesTracksHeap pins MemBytes, which the server's -mem-budget
// admission charges, to what a loaded design really holds: within 25 % of
// the heap the build left behind.
func TestMemBytesTracksHeap(t *testing.T) {
	var b strings.Builder
	b.WriteString("design bus\n")
	for i := 0; i < 5000; i++ { // 10 000 nets
		fmt.Fprintf(&b, "port in%d in\nport out%d out\ninst buf%d BUF_X1\nconn buf%d A in%d in\nconn buf%d Y out%d out\n",
			i, i, i, i, i, i, i)
	}
	src := b.String()
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	d, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	grew := heap() - before
	if d.NumNets() != 10000 {
		t.Fatalf("%d nets", d.NumNets())
	}
	got := d.MemBytes()
	t.Logf("MemBytes %d, heap grew %d (%.2f)", got, grew, float64(got)/float64(grew))
	if got < grew*3/4 || got > grew*5/4 {
		t.Fatalf("MemBytes %d is not within 25%% of the %d bytes the heap grew", got, grew)
	}
	runtime.KeepAlive(d)
}
