package rc

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// ladder builds root -r1- n1 -r2- n2 with caps c1 at n1, c2 at n2.
func ladder(r1, c1, r2, c2 float64) *Builder {
	n := NewNetwork("lad")
	n.SetRoot(n.Node("root"))
	n.AddRes(n.Node("root"), n.Node("n1"), r1)
	n.AddRes(n.Node("n1"), n.Node("n2"), r2)
	n.AddCap(n.Node("n1"), c1)
	n.AddCap(n.Node("n2"), c2)
	return n
}

func TestElmoreLadder(t *testing.T) {
	// Classic: D(n1) = r1(c1+c2); D(n2) = r1(c1+c2) + r2 c2.
	r1, c1, r2, c2 := 100.0, 1e-15, 200.0, 2e-15
	n := ladder(r1, c1, r2, c2)
	a, err := n.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	d1 := a.Elmore(n.Node("n1"))
	want1 := r1 * (c1 + c2)
	if math.Abs(d1-want1) > 1e-21 {
		t.Fatalf("Elmore(n1) = %g, want %g", d1, want1)
	}
	d2 := a.Elmore(n.Node("n2"))
	want2 := want1 + r2*c2
	if math.Abs(d2-want2) > 1e-21 {
		t.Fatalf("Elmore(n2) = %g, want %g", d2, want2)
	}
	if got := a.MaxElmore(); got != d2 {
		t.Fatalf("MaxElmore = %g, want %g", got, d2)
	}
	d0 := a.Elmore(n.Node("root"))
	if d0 != 0 {
		t.Fatalf("Elmore(root) = %g", d0)
	}
}

func TestResTo(t *testing.T) {
	n := ladder(100, 1e-15, 200, 2e-15)
	a, err := n.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if r := a.Res(n.Node("n2")); r != 300 {
		t.Fatalf("Res(n2) = %g", r)
	}
	if r := a.Res(n.Node("root")); r != 0 {
		t.Fatalf("Res(root) = %g", r)
	}
}

func TestBranchedTreeElmore(t *testing.T) {
	// root -100- a; a -200- b (1fF); a -300- c (2fF); cap at a: 0.5fF.
	n := NewNetwork("tee")
	n.SetRoot(n.Node("root"))
	n.AddRes(n.Node("root"), n.Node("a"), 100)
	n.AddRes(n.Node("a"), n.Node("b"), 200)
	n.AddRes(n.Node("a"), n.Node("c"), 300)
	n.AddCap(n.Node("a"), 0.5e-15)
	n.AddCap(n.Node("b"), 1e-15)
	n.AddCap(n.Node("c"), 2e-15)
	a, err := n.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	// D(b) = 100*(3.5fF) + 200*1fF
	db := a.Elmore(n.Node("b"))
	want := 100*3.5e-15 + 200*1e-15
	if math.Abs(db-want) > 1e-21 {
		t.Fatalf("Elmore(b) = %g, want %g", db, want)
	}
	dc := a.Elmore(n.Node("c"))
	want = 100*3.5e-15 + 300*2e-15
	if math.Abs(dc-want) > 1e-21 {
		t.Fatalf("Elmore(c) = %g, want %g", dc, want)
	}
}

func TestSingleNodeNet(t *testing.T) {
	n := NewNetwork("dot")
	n.SetRoot(n.Node("p"))
	n.AddCap(n.Node("p"), 5e-15)
	a, err := n.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	d := a.Elmore(n.Node("p"))
	if d != 0 {
		t.Fatalf("Elmore = %g", d)
	}
	if a.TotalCap() != 5e-15 || a.NumNodes() != 1 {
		t.Fatalf("TotalCap = %g over %d nodes", a.TotalCap(), a.NumNodes())
	}
}

func TestAnalyzeErrors(t *testing.T) {
	n := NewNetwork("noroot")
	n.AddRes(n.Node("a"), n.Node("b"), 1)
	if _, err := n.Analyze(); err == nil || !strings.Contains(err.Error(), "root not set") {
		t.Fatalf("err = %v", err)
	}

	loop := NewNetwork("loop")
	loop.SetRoot(loop.Node("a"))
	loop.AddRes(loop.Node("a"), loop.Node("b"), 1)
	loop.AddRes(loop.Node("b"), loop.Node("c"), 1)
	loop.AddRes(loop.Node("c"), loop.Node("a"), 1)
	if _, err := loop.Analyze(); err == nil || !strings.Contains(err.Error(), "loop") {
		t.Fatalf("err = %v", err)
	}

	disc := NewNetwork("disc")
	disc.SetRoot(disc.Node("a"))
	disc.AddCap(disc.Node("island"), 1e-15)
	if _, err := disc.Analyze(); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("err = %v", err)
	}

	neg := NewNetwork("neg")
	neg.SetRoot(neg.Node("a"))
	neg.AddRes(neg.Node("a"), neg.Node("b"), -5)
	if _, err := neg.Analyze(); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("err = %v", err)
	}
}

func TestCapAccounting(t *testing.T) {
	n := NewNetwork("caps")
	n.SetRoot(n.Node("r"))
	n.AddRes(n.Node("r"), n.Node("x"), 100)
	n.AddCap(n.Node("x"), 3e-15)
	n.AddLoadCap(n.Node("x"), 2e-15)
	n.AddCoupling(n.Node("x"), "agg", 4e-15)
	n.AddCoupling(n.Node("r"), "agg", 1e-15)
	n.AddCoupling(n.Node("x"), "abel", 1e-15)
	a, err := n.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if ground, load, coupling := a.Caps(); ground != 3e-15 || load != 2e-15 || math.Abs(coupling-6e-15) > 1e-24 {
		t.Fatalf("Caps = %g, %g, %g", ground, load, coupling)
	}
	if got := a.TotalCap(); math.Abs(got-11e-15) > 1e-24 {
		t.Fatalf("TotalCap = %g", got)
	}
	// Groups come in partner-name order, each the sum over its capacitors
	// with the cap-weighted resistance to them.
	groups := a.db.Groups(0)
	if got := n.Partners(); len(groups) != 2 || groups[1].Agg != 1 || got[0] != "abel" || got[1] != "agg" {
		t.Fatalf("groups = %+v toward %v", groups, got)
	}
	if g := groups[1]; math.Abs(g.C-5e-15) > 1e-24 || math.Abs(g.WireRes-80) > 1e-9 {
		t.Fatalf("group agg = %+v, want 5fF behind 4/5 of 100 ohm", g)
	}
	// Coupling counts toward node cap in the analysis.
	d := a.Elmore(n.Node("x"))
	if want := 100 * 10e-15; math.Abs(d-want) > 1e-21 {
		t.Fatalf("Elmore with coupling = %g, want %g", d, want)
	}
}

func TestSecondMomentLadder(t *testing.T) {
	// Single RC: m1 = RC, m2 = m1·RC = R²C² (for one cap).
	n := NewNetwork("single")
	n.SetRoot(n.Node("r"))
	n.AddRes(n.Node("r"), n.Node("x"), 1000)
	n.AddCap(n.Node("x"), 1e-15)
	a, err := n.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	m1 := a.Elmore(n.Node("x"))
	m2 := a.M2(n.Node("x"))
	if math.Abs(m1-1e-12) > 1e-24 {
		t.Fatalf("m1 = %g", m1)
	}
	if math.Abs(m2-1e-24) > 1e-36 {
		t.Fatalf("m2 = %g, want %g", m2, 1e-24)
	}
}

func TestPiSingleRC(t *testing.T) {
	// One R, one C: the π model must reproduce (0, R, C) or an equivalent
	// exact match: y1=C, y2=-RC², y3=R²C³ → Cfar=C, R=R, Cnear=0.
	n := NewNetwork("pi1")
	n.SetRoot(n.Node("r"))
	n.AddRes(n.Node("r"), n.Node("x"), 500)
	n.AddCap(n.Node("x"), 2e-15)
	a, err := n.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	cn, r, cf := a.Pi()
	if math.Abs(cf-2e-15) > 1e-21 || math.Abs(r-500) > 1e-6 || math.Abs(cn) > 1e-21 {
		t.Fatalf("Pi = (%g, %g, %g), want (0, 500, 2e-15)", cn, r, cf)
	}
}

func TestPiPreservesTotalCap(t *testing.T) {
	n := ladder(100, 1e-15, 200, 2e-15)
	a, err := n.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	cn, r, cf := a.Pi()
	if math.Abs(cn+cf-3e-15) > 1e-21 {
		t.Fatalf("Pi total cap = %g, want 3e-15", cn+cf)
	}
	if r <= 0 || cn < 0 || cf < 0 {
		t.Fatalf("unphysical Pi = (%g, %g, %g)", cn, r, cf)
	}
}

func TestPiDegenerateNoRes(t *testing.T) {
	n := NewNetwork("lump")
	n.SetRoot(n.Node("p"))
	n.AddCap(n.Node("p"), 7e-15)
	a, err := n.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	cn, r, cf := a.Pi()
	if cn != 7e-15 || r != 0 || cf != 0 {
		t.Fatalf("degenerate Pi = (%g, %g, %g)", cn, r, cf)
	}
}

func TestSlewDegradation(t *testing.T) {
	n := ladder(100, 1e-15, 200, 2e-15)
	a, err := n.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if s := a.SlewDegradation(n.Node("n2")); s <= 0 {
		t.Fatalf("slew degradation = %g", s)
	}
	if s := a.SlewDegradation(n.Node("root")); s != 0 {
		t.Fatalf("slew degradation at the driver = %g", s)
	}
}

func TestNodeInterning(t *testing.T) {
	n := NewNetwork("x")
	a := n.Node("a")
	if n.Node("a") != a {
		t.Fatal("re-interning changed index")
	}
	if n.Node("b") == a || n.Node("b") != n.Node("b") {
		t.Fatal("a second name shares or changes its index")
	}
	if len(n.names) != 2 || n.names[0] != "a" || n.names[1] != "b" {
		t.Fatalf("names = %v", n.names)
	}
}

func BenchmarkAnalyzeLadder64(b *testing.B) {
	n := NewNetwork("bench")
	n.SetRoot(n.Node(nodeName(0)))
	for i := 0; i < 64; i++ {
		n.AddRes(n.Node(nodeName(i)), n.Node(nodeName(i+1)), 10)
		n.AddCap(n.Node(nodeName(i+1)), 0.5e-15)
	}
	reduceRepeatedly(b, n)
}

func nodeName(i int) string {
	return "n" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// BenchmarkAnalyzeWideNet reduces one 2 000-node net carrying 2 000 coupling
// capacitors toward 40 partners: the shape on which a name lookup per
// coupling per node was quadratic (104 ms an analysis before the database,
// 0.07 ms now).
func BenchmarkAnalyzeWideNet(b *testing.B) {
	n := NewNetwork("wide")
	n.SetRoot(n.Node("w0"))
	for i := 1; i <= 2000; i++ {
		node := fmt.Sprintf("w%d", i)
		n.AddRes(n.Node(fmt.Sprintf("w%d", i/2)), n.Node(node), 10)
		n.AddCap(n.Node(node), 0.5e-15)
		n.AddCoupling(n.Node(node), fmt.Sprintf("agg%d", i%40), 0.1e-15)
	}
	reduceRepeatedly(b, n)
}

// reduceRepeatedly times committing n — the copy into the database and the
// tree reduction — into one database sized for it.
func reduceRepeatedly(b *testing.B, n *Builder) {
	db, err := NewDB([]Sizes{n.Sizes()})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.Commit(db, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// The hand-build entry these tests use: a builder over one net of its
// own, and readers of what the engine reads through the database.

// NewNetwork returns a builder holding an empty net.
func NewNetwork(name string) *Builder { return &Builder{name: name, root: -1} }

// Node returns the index of the named node, adding it when new.
func (b *Builder) Node(name string) int32 {
	if i := Find(b, name); i >= 0 {
		return i
	}
	return b.add(name)
}

// Analyze commits the net to a database of its own and returns its reduced
// view there.
func (b *Builder) Analyze() (Analysis, error) {
	db, err := NewDB([]Sizes{b.Sizes()})
	if err != nil {
		return Analysis{}, err
	}
	return db.Analysis(0), b.Commit(db, 0)
}

// Sizes returns what the net needs of a database.
func (b *Builder) Sizes() Sizes {
	return Sizes{Nodes: len(b.names), Ress: len(b.ohms), Cpls: len(b.cplF), Groups: len(b.Partners())}
}

// NumNodes returns the node count.
func (n *Network) NumNodes() int { return int(n.nodes) }

// Caps returns the net's total grounded wire, attached pin and
// cross-coupling capacitance.
func (n *Network) Caps() (ground, load, coupling float64) { return n.ground, n.load, n.coupling }

// Res returns the path resistance from the driver to a node.
func (a Analysis) Res(node int32) float64 { return a.db.rpath[a.node0+node] }

// Pi returns the O'Brien–Savarino π-model (near cap, resistance, far cap)
// of the driving-point admittance, matched to the net's first three
// moments: Cfar = y2²/y3, R = −y3²/y2³, Cnear = y1 − Cfar, with y1 = ΣC,
// y2 = −ΣC·m1 and y3 = ΣC·m2 over each node's wire, pin and coupling cap.
// A net without resistance or capacitance, or whose match comes out
// unphysical, is a single near capacitor.
func (a Analysis) Pi() (cnear, r, cfar float64) {
	caps := make([]float64, a.nodes)
	for i := range caps {
		caps[i] = a.db.gcap[a.node0+int32(i)] + a.db.load[a.node0+int32(i)]
	}
	for k := a.cpl0; k < a.cpl0+a.cpls; k++ {
		caps[a.db.cplNode[k]] += a.db.cplF[k]
	}
	var y1, y2, y3 float64
	for i, c := range caps {
		y1 += c
		y2 -= c * a.Elmore(int32(i))
		y3 += c * a.M2(int32(i))
	}
	if y2 == 0 || y3 == 0 {
		return y1, 0, 0
	}
	cfar, r = y2*y2/y3, -y3*y3/(y2*y2*y2)
	if cnear = y1 - cfar; cnear < 0 || r < 0 || cfar < 0 {
		return y1, 0, 0
	}
	return cnear, r, cfar
}
