package netlist

import (
	"strings"
	"testing"
)

// buildChain constructs in -> u0 -> u1 -> ... -> u(n-1) -> out.
func buildChain(t testing.TB, n int) *Design {
	t.Helper()
	d := New("chain")
	if _, err := d.AddPort("in", In); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPort("out", Out); err != nil {
		t.Fatal(err)
	}
	prev := "in"
	for i := 0; i < n; i++ {
		name := "u" + string(rune('0'+i))
		if _, err := d.AddInst(name, "INV"); err != nil {
			t.Fatal(err)
		}
		next := "n" + string(rune('0'+i))
		if i == n-1 {
			next = "out"
		}
		if err := d.Connect(name, "A", prev, In); err != nil {
			t.Fatal(err)
		}
		if err := d.Connect(name, "Y", next, Out); err != nil {
			t.Fatal(err)
		}
		prev = next
	}
	return d
}

func TestBuilderAndAccessors(t *testing.T) {
	d := buildChain(t, 3)
	if d.NumInsts() != 3 || d.ports.n != 2 || d.NumNets() != 4 {
		t.Fatalf("sizes: insts=%d ports=%d nets=%d", d.NumInsts(), d.ports.n, d.NumNets())
	}
	u1 := d.FindInst("u1")
	if u1 < 0 || d.CellName(u1) != "INV" {
		t.Fatalf("u1 = %d", u1)
	}
	if got := len(d.Inputs(u1)); got != 1 {
		t.Fatalf("u1 inputs = %d", got)
	}
	if got := d.NetName(d.Conn(d.Outputs(u1)[0]).Net); got != "n1" {
		t.Fatalf("u1 output net = %s", got)
	}
	if d.FindPort("in") < 0 || d.FindPort("zz") >= 0 {
		t.Fatal("FindPort misbehaves")
	}
	if d.FindNet("n0") < 0 {
		t.Fatal("FindNet misses n0")
	}
}

func TestDuplicateErrors(t *testing.T) {
	d := New("t")
	if _, err := d.AddPort("p", In); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPort("p", In); err == nil {
		t.Fatal("duplicate port accepted")
	}
	if _, err := d.AddInst("i", "INV"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddInst("i", "INV"); err == nil {
		t.Fatal("duplicate instance accepted")
	}
	if err := d.Connect("i", "A", "p", In); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect("i", "A", "p", In); err == nil {
		t.Fatal("duplicate pin connection accepted")
	}
	if err := d.Connect("nope", "A", "p", In); err == nil {
		t.Fatal("connect to unknown instance accepted")
	}
}

func TestNetDriverAndLoads(t *testing.T) {
	d := buildChain(t, 2)
	n0 := d.FindNet("n0")
	drv := d.Driver(n0)
	if drv < 0 || d.InstName(d.Conn(drv).Inst) != "u0" || d.Pin(drv) != "Y" {
		t.Fatalf("driver = %d", drv)
	}
	loads := d.Loads(n0)
	if len(loads) != 1 || d.InstName(d.Conn(loads[0]).Inst) != "u1" {
		t.Fatalf("loads = %v", loads)
	}
	// Input port drives its net.
	in := d.FindNet("in")
	if got := d.Driver(in); got < 0 || d.Conn(got).Inst >= 0 || d.Pin(got) != "in" {
		t.Fatalf("port driver = %d", got)
	}
	// Output port is a load on its net.
	out := d.FindNet("out")
	if got := d.Driver(out); got < 0 || d.Conn(got).Inst < 0 {
		t.Fatalf("out net driver = %d", got)
	}
}

func TestConnName(t *testing.T) {
	d := buildChain(t, 1)
	if got := d.ConnName(d.Driver(d.FindNet("in"))); got != "port in" {
		t.Fatalf("port conn name = %q", got)
	}
	if got := d.ConnName(d.Driver(d.FindNet("out"))); got != "u0.Y" {
		t.Fatalf("inst conn name = %q", got)
	}
}

func TestValidateClean(t *testing.T) {
	d := buildChain(t, 3)
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateNoDriver(t *testing.T) {
	d := New("t")
	if _, err := d.AddInst("i", "INV"); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect("i", "A", "floating", In); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect("i", "Y", "y", Out); err != nil {
		t.Fatal(err)
	}
	err := d.Validate()
	if err == nil || !strings.Contains(err.Error(), "no driver") {
		t.Fatalf("Validate = %v", err)
	}
}

func TestValidateMultiDriver(t *testing.T) {
	d := New("t")
	for _, n := range []string{"a", "b"} {
		if _, err := d.AddInst(n, "INV"); err != nil {
			t.Fatal(err)
		}
		if err := d.Connect(n, "Y", "shared", Out); err != nil {
			t.Fatal(err)
		}
		if err := d.Connect(n, "A", "in_"+n, In); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.AddPort("in_a", In); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPort("in_b", In); err != nil {
		t.Fatal(err)
	}
	err := d.Validate()
	if err == nil || !strings.Contains(err.Error(), "2 drivers") {
		t.Fatalf("Validate = %v", err)
	}
}

func TestValidateUnconnectedInst(t *testing.T) {
	d := New("t")
	if _, err := d.AddInst("lonely", "INV"); err != nil {
		t.Fatal(err)
	}
	err := d.Validate()
	if err == nil || !strings.Contains(err.Error(), "no connections") {
		t.Fatalf("Validate = %v", err)
	}
}

func TestLevelizeChain(t *testing.T) {
	d := buildChain(t, 4)
	lev := d.Levelize()
	if len(lev.Feedback) != 0 {
		t.Fatalf("feedback = %v", lev.Feedback)
	}
	if len(lev.Levels) != 4 {
		t.Fatalf("levels = %d, want 4", len(lev.Levels))
	}
	for i, want := range []string{"u0", "u1", "u2", "u3"} {
		if first := lev.Levels[i][0]; d.InstName(first) != want || lev.Level(first) != i {
			t.Fatalf("level %d = %v", i, lev.Levels[i][0])
		}
	}
	if len(lev.Ordered()) != 4 {
		t.Fatalf("%d leveled", len(lev.Ordered()))
	}
	if got := lev.Ordered(); len(got) != 4 || d.InstName(got[0]) != "u0" {
		t.Fatalf("Ordered = %v", got)
	}
}

func TestLevelizeDiamond(t *testing.T) {
	// in -> a; a -> b, c; b,c -> d
	d := New("diamond")
	mustPort(t, d, "in", In)
	mustInst(t, d, "a", "INV")
	mustConn(t, d, "a", "A", "in", In)
	mustConn(t, d, "a", "Y", "na", Out)
	for _, n := range []string{"b", "c"} {
		mustInst(t, d, n, "INV")
		mustConn(t, d, n, "A", "na", In)
		mustConn(t, d, n, "Y", "n"+n, Out)
	}
	mustInst(t, d, "d", "NAND2")
	mustConn(t, d, "d", "A", "nb", In)
	mustConn(t, d, "d", "B", "nc", In)
	mustConn(t, d, "d", "Y", "out", Out)
	lev := d.Levelize()
	if len(lev.Levels) != 3 {
		t.Fatalf("levels = %d, want 3", len(lev.Levels))
	}
	if len(lev.Levels[1]) != 2 {
		t.Fatalf("level 1 size = %d", len(lev.Levels[1]))
	}
	if lev.Level(d.FindInst("d")) != 2 {
		t.Fatalf("d level = %d", lev.Level(d.FindInst("d")))
	}
}

func TestLevelizeLoop(t *testing.T) {
	// Cross-coupled pair: a.Y -> b.A, b.Y -> a.A, plus an acyclic tail.
	d := New("loop")
	mustPort(t, d, "in", In)
	mustInst(t, d, "a", "NAND2")
	mustInst(t, d, "b", "NAND2")
	mustConn(t, d, "a", "A", "in", In)
	mustConn(t, d, "a", "B", "q", In)
	mustConn(t, d, "a", "Y", "p", Out)
	mustConn(t, d, "b", "A", "p", In)
	mustConn(t, d, "b", "Y", "q", Out)
	mustInst(t, d, "tail", "INV")
	mustConn(t, d, "tail", "A", "q", In)
	mustConn(t, d, "tail", "Y", "out", Out)
	lev := d.Levelize()
	if len(lev.Feedback) != 3 {
		t.Fatalf("feedback count = %d, want 3 (a, b, and downstream tail)", len(lev.Feedback))
	}
	for _, i := range lev.Feedback {
		if lev.Level(i) != -1 {
			t.Fatalf("feedback inst %s has level %d", d.InstName(i), lev.Level(i))
		}
	}
	// tail reads the loop, so it is blocked too.
	if lev.Level(d.FindInst("tail")) != -1 {
		t.Fatalf("tail level = %d, want -1 (downstream of loop)", lev.Level(d.FindInst("tail")))
	}
}

func TestLevelizeSelfLoop(t *testing.T) {
	// An instance driving its own input is a one-gate combinational cycle:
	// it must land in Feedback, not get a finite level. (A previous version
	// skipped self-edges in the indegree count, which leveled the instance
	// at the depth of its other fanins.) A downstream reader is dragged
	// into Feedback with it; an independent gate still levels normally.
	d := New("self")
	mustPort(t, d, "in", In)
	mustInst(t, d, "a", "BUF")
	mustConn(t, d, "a", "A", "x", In)
	mustConn(t, d, "a", "Y", "x", Out)
	mustInst(t, d, "tail", "INV")
	mustConn(t, d, "tail", "A", "x", In)
	mustConn(t, d, "tail", "Y", "out", Out)
	mustInst(t, d, "free", "INV")
	mustConn(t, d, "free", "A", "in", In)
	mustConn(t, d, "free", "Y", "q", Out)
	lev := d.Levelize()
	if len(lev.Feedback) != 2 {
		t.Fatalf("feedback = %v, want [a tail]", lev.Feedback)
	}
	for _, name := range []string{"a", "tail"} {
		if got := lev.Level(d.FindInst(name)); got != -1 {
			t.Fatalf("%s level = %d, want -1", name, got)
		}
	}
	if got := lev.Level(d.FindInst("free")); got != 0 {
		t.Fatalf("free level = %d, want 0", got)
	}
	if len(lev.Ordered()) != 1 {
		t.Fatalf("%d leveled, want 1", len(lev.Ordered()))
	}
}

func TestLevelizeMultiDriver(t *testing.T) {
	// Two outputs on one net is an NL001 lint error, but Levelize must
	// still terminate and produce a sane order: Net.Driver() returns the
	// first driver connection, so the reader levels after that driver.
	d := New("multidrv")
	mustPort(t, d, "in", In)
	mustInst(t, d, "a", "INV")
	mustConn(t, d, "a", "A", "in", In)
	mustConn(t, d, "a", "Y", "x", Out)
	mustInst(t, d, "b", "INV")
	mustConn(t, d, "b", "A", "in", In)
	mustConn(t, d, "b", "Y", "x", Out)
	mustInst(t, d, "sink", "INV")
	mustConn(t, d, "sink", "A", "x", In)
	mustConn(t, d, "sink", "Y", "out", Out)
	lev := d.Levelize()
	if len(lev.Feedback) != 0 {
		t.Fatalf("feedback = %v, want none", lev.Feedback)
	}
	if got := lev.Level(d.FindInst("sink")); got != 1 {
		t.Fatalf("sink level = %d, want 1", got)
	}
	if lev.Level(d.FindInst("a")) != 0 || lev.Level(d.FindInst("b")) != 0 {
		t.Fatalf("driver levels = %d, %d, want 0, 0",
			lev.Level(d.FindInst("a")), lev.Level(d.FindInst("b")))
	}
}

func TestLevelizeMultiEdge(t *testing.T) {
	// One driver feeding two pins of the same sink contributes two
	// parallel edges; the indegree increments and decrements must agree so
	// the sink levels exactly one step after the driver.
	d := New("multiedge")
	mustPort(t, d, "in", In)
	mustInst(t, d, "a", "INV")
	mustConn(t, d, "a", "A", "in", In)
	mustConn(t, d, "a", "Y", "x", Out)
	mustInst(t, d, "g", "NAND2")
	mustConn(t, d, "g", "A", "x", In)
	mustConn(t, d, "g", "B", "x", In)
	mustConn(t, d, "g", "Y", "out", Out)
	lev := d.Levelize()
	if len(lev.Feedback) != 0 {
		t.Fatalf("feedback = %v, want none", lev.Feedback)
	}
	if got := lev.Level(d.FindInst("g")); got != 1 {
		t.Fatalf("g level = %d, want 1", got)
	}
	if len(lev.Levels) != 2 {
		t.Fatalf("levels = %d, want 2", len(lev.Levels))
	}
}

func mustPort(t *testing.T, d *Design, name string, dir Dir) {
	t.Helper()
	if _, err := d.AddPort(name, dir); err != nil {
		t.Fatal(err)
	}
}

func mustInst(t *testing.T, d *Design, name, cell string) {
	t.Helper()
	if _, err := d.AddInst(name, cell); err != nil {
		t.Fatal(err)
	}
}

func mustConn(t *testing.T, d *Design, inst, pin, net string, dir Dir) {
	t.Helper()
	if err := d.Connect(inst, pin, net, dir); err != nil {
		t.Fatal(err)
	}
}

func TestParseWriteRoundTrip(t *testing.T) {
	src := `# a tiny design
design top
port in in
port out out
inst u0 INV
conn u0 A in in
conn u0 Y mid out
inst u1 BUF
conn u1 A mid in
conn u1 Y out out
`
	d, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "top" || d.NumInsts() != 2 {
		t.Fatalf("parsed: %s insts=%d", d.Name, d.NumInsts())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Write(&sb, d); err != nil {
		t.Fatal(err)
	}
	d2, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, sb.String())
	}
	if d2.NumInsts() != d.NumInsts() || d2.NumNets() != d.NumNets() || d2.ports.n != d.ports.n {
		t.Fatal("round trip changed design size")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"port p in",                        // before design
		"design a\ndesign b",               // duplicate design
		"design a\nport p sideways",        // bad dir
		"design a\nconn i A n in",          // unknown inst
		"design a\nfrobnicate x",           // unknown keyword
		"design a\nport p",                 // arity
		"design a\ninst i",                 // arity
		"design a\ninst i INV\nconn i A n", // arity
		"",                                 // no design
	}
	for _, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func BenchmarkLevelizeChain100(b *testing.B) {
	d := New("chain")
	if _, err := d.AddPort("in", In); err != nil {
		b.Fatal(err)
	}
	prev := "in"
	for i := 0; i < 100; i++ {
		name := "u" + itoa(i)
		if _, err := d.AddInst(name, "INV"); err != nil {
			b.Fatal(err)
		}
		next := "n" + itoa(i)
		if err := d.Connect(name, "A", prev, In); err != nil {
			b.Fatal(err)
		}
		if err := d.Connect(name, "Y", next, Out); err != nil {
			b.Fatal(err)
		}
		prev = next
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Levelize()
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}
