package netlist

import (
	"fmt"
	"os"
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
		got.ports.n != want.ports.n || got.NumConns() != want.NumConns() {
		t.Fatalf("design %q nets %d insts %d ports %d conns %d, want %q %d %d %d %d",
			got.Name, got.NumNets(), got.NumInsts(), got.ports.n, got.NumConns(),
			want.Name, want.NumNets(), want.NumInsts(), want.ports.n, want.NumConns())
	}
	sameConns := func(where string, gotIDs, wantIDs []ConnID) {
		t.Helper()
		if len(gotIDs) != len(wantIDs) {
			t.Fatalf("%s: %d connections, want %d", where, len(gotIDs), len(wantIDs))
		}
		for j, wc := range wantIDs {
			gc := gotIDs[j]
			g, w := got.Conn(gc), want.Conn(wc)
			if gc != wc || got.ConnName(gc) != want.ConnName(wc) || g.Dir != w.Dir || got.NetName(g.Net) != want.NetName(w.Net) {
				t.Fatalf("%s connection %d: #%d %s %v on %s, want #%d %s %v on %s", where, j,
					gc, got.ConnName(gc), g.Dir, got.NetName(g.Net), wc, want.ConnName(wc), w.Dir, want.NetName(w.Net))
			}
		}
	}
	for id := range NetID(want.NumNets()) {
		name := want.NetName(id)
		if got.NetName(id) != name || (got.Driver(id) < 0) != (want.Driver(id) < 0) {
			t.Fatalf("net %d: %q, want %q (or one of the two has no driver)", id, got.NetName(id), name)
		}
		sameConns("net "+name, got.NetConns(id), want.NetConns(id))
		sameConns("net "+name+" loads", got.Loads(id), want.Loads(id))
	}
	for id := range InstID(want.NumInsts()) {
		name := want.InstName(id)
		if got.InstName(id) != name || got.CellName(id) != want.CellName(id) {
			t.Fatalf("inst %d: %s (%s), want %s (%s)", id, got.InstName(id), got.CellName(id), name, want.CellName(id))
		}
		sameConns("inst "+name+" inputs", got.Inputs(id), want.Inputs(id))
		sameConns("inst "+name+" outputs", got.Outputs(id), want.Outputs(id))
	}
	for id := range PortID(want.ports.n) {
		if gp, wp := got.Port(id), want.Port(id); got.PortName(id) != want.PortName(id) || gp.Dir != wp.Dir || gp.Conn != wp.Conn {
			t.Fatalf("port %d: %s %v, want %s %v", id, got.PortName(id), gp.Dir, want.PortName(id), wp.Dir)
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
		net, inst, port := d.FindNet(name) >= 0, d.FindInst(name) >= 0, d.FindPort(name) >= 0
		if net != (i%3 != 1) || inst != (i%3 == 1) || port != (i%3 == 2) {
			t.Fatalf("%s: net %v inst %v port %v", name, net, inst, port)
		}
	}
	if d.FindNet("x") >= 0 || d.FindNet("") >= 0 || d.FindInst("x5000") >= 0 {
		t.Fatal("found a name that was never added")
	}
	if _, err := d.AddPort("x2", Out); err == nil {
		t.Fatal("duplicate port accepted")
	}
	if _, err := d.AddInst("x1", "BUF"); err == nil {
		t.Fatal("duplicate instance accepted")
	}
}

// TestNameArenaGrowth: the name arena's chunks double up to nameChunk and
// stay that size however many there are, so a design's names cost their
// bytes and a few chunk tails; a name longer than a chunk gets its own,
// and every name reads back whole.
func TestNameArenaGrowth(t *testing.T) {
	d := New("t")
	long := strings.Repeat("L", 3*nameChunk)
	total := 0
	for i := 0; total < 80*nameChunk; i++ {
		name := fmt.Sprintf("net_with_a_longish_name_%08d", i)
		if i == 1000 {
			name = long
		}
		d.Net(name)
		total += len(name)
	}
	if limit := 7 + total/nameChunk + 1; len(d.names) > limit {
		t.Fatalf("%d name chunks for %d bytes of names, want at most %d", len(d.names), total, limit)
	}
	if n := d.FindNet(long); n < 0 || d.NetName(n) != long {
		t.Fatal("the long name does not read back")
	}
	if n := d.FindNet("net_with_a_longish_name_00150000"); n < 0 || d.NetName(n) != "net_with_a_longish_name_00150000" {
		t.Fatal("a name in a late chunk does not read back")
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
	order := func(conns []ConnID) string {
		var pins []string
		for _, c := range conns {
			pins = append(pins, d.Pin(c))
		}
		return strings.Join(pins, "")
	}
	if in, out, all := order(d.Inputs(u)), order(d.Outputs(u)), order(d.Pins(u)); in != "ACS" || out != "BZ" || all != "ABCSZ" {
		t.Fatalf("inputs %s outputs %s pins %s, want ACS BZ ABCSZ", in, out, all)
	}
	if c := d.PinConn(u, "Z"); c < 0 || d.NetName(d.Conn(c).Net) != "n_Z" || d.PinConn(u, "Q") >= 0 {
		t.Fatalf("PinConn(Z) = %v, PinConn(Q) = %v", c, d.PinConn(u, "Q"))
	}
	if d.Conn(d.PinConn(u, "A")).Net != d.FindNet("n_A") || d.Conn(d.PinConn(u, "A")).Inst != u {
		t.Fatal("an ID does not lead back to its record")
	}
	// After Compact the views are the same and a later connection still
	// lands in its place.
	d.Compact()
	if err := d.ConnectPin(u, "D", "n_D", In); err != nil {
		t.Fatal(err)
	}
	if in, all := order(d.Inputs(u)), order(d.Pins(u)); in != "ACDS" || all != "ABCDSZ" {
		t.Fatalf("after Compact: inputs %s pins %s", in, all)
	}
}
