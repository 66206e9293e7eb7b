package rc_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bind"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/noise"
	"repro/internal/spef"
	"repro/internal/units"
	"repro/internal/workload"
)

// randomTrees generates a design of nets nets, each an extracted random RC
// tree with everything the reference handles: nets past the 16-node switch
// to a name index, several caps per node, couplings to nets that exist, to
// the net itself and to nets the netlist lacks, load pins the extractor
// omitted (their cap lumps at the root), nets left unextracted (lumped),
// and — when broken is set — meshes, parallel and self-loop resistors,
// orphan nodes and negative resistors. Values are irregular on purpose, so
// that any change of summation order shows in the last bit.
func randomTrees(seed int64, nets int, broken bool) *workload.Generated {
	r := rand.New(rand.NewSource(seed))
	d := netlist.New(fmt.Sprintf("trees%d", seed))
	p := spef.NewParasitics(d.Name)
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	name := func(i int) string { return fmt.Sprintf("t%d", i) }
	for i := 0; i < nets; i++ {
		net, drv := name(i), fmt.Sprintf("d%d", i)
		_, err := d.AddPort("in_"+net, netlist.In)
		must(err)
		_, err = d.AddInst(drv, "INV_X2")
		must(err)
		must(d.Connect(drv, "A", "in_"+net, netlist.In))
		must(d.Connect(drv, "Y", net, netlist.Out))
		sn := &spef.Net{Name: net, Conns: []spef.Conn{{Pin: drv + ":Y", Dir: spef.DirOut, Node: drv + ":Y"}}}
		nodes := []string{drv + ":Y"}
		grow := func(node string) {
			sn.Ress = append(sn.Ress, spef.ResEntry{A: nodes[r.Intn(len(nodes))], B: node, Ohms: 5 + 200*r.Float64()})
			nodes = append(nodes, node)
		}
		internal := 1 + r.Intn(6)
		if i%5 == 0 {
			internal = 17 + r.Intn(40)
		}
		for k := 0; k < internal; k++ {
			grow(fmt.Sprintf("%s:%d", net, k+1))
		}
		for j, loads := 0, 1+r.Intn(3); j < loads; j++ {
			rcv := fmt.Sprintf("r%d_%d", i, j)
			_, err = d.AddInst(rcv, []string{"INV_X1", "BUF_X1", "NAND2_X1"}[r.Intn(3)])
			must(err)
			must(d.Connect(rcv, "A", net, netlist.In))
			must(d.Connect(rcv, "Y", fmt.Sprintf("q%d_%d", i, j), netlist.Out))
			if r.Intn(4) > 0 { // else the extractor omitted the pin
				sn.Conns = append(sn.Conns, spef.Conn{Pin: rcv + ":A", Dir: spef.DirIn, Node: rcv + ":A"})
				grow(rcv + ":A")
			}
		}
		for k, caps := 0, len(nodes)+r.Intn(2*len(nodes)); k < caps; k++ {
			c := spef.CapEntry{Node: nodes[r.Intn(len(nodes))], F: (0.05 + 3*r.Float64()) * units.Femto}
			switch r.Intn(8) {
			case 0, 1, 2:
				c.Other = fmt.Sprintf("%s:%d", name(r.Intn(nets)), 1+r.Intn(3))
			case 3:
				c.Other = fmt.Sprintf("ghost%d:1", r.Intn(3))
			}
			sn.Caps = append(sn.Caps, c)
		}
		if broken {
			a, b := nodes[r.Intn(len(nodes))], nodes[r.Intn(len(nodes))]
			switch r.Intn(6) {
			case 0: // a mesh, a parallel resistor or a self-loop, as a and b fall
				sn.Ress = append(sn.Ress, spef.ResEntry{A: a, B: b, Ohms: 10})
			case 1:
				sn.Caps = append(sn.Caps, spef.CapEntry{Node: net + ":orphan", F: units.Femto})
			case 2:
				sn.Ress = append(sn.Ress, spef.ResEntry{A: a, B: net + ":spur", Ohms: -3})
			case 3: // an island: two nodes joined to each other only
				sn.Ress = append(sn.Ress, spef.ResEntry{A: net + ":i1", B: net + ":i2", Ohms: 7})
			}
		}
		if i%7 != 3 { // else unextracted: a lumped net
			must(p.AddNet(sn))
		}
	}
	return &workload.Generated{Design: d, Paras: p}
}

// corpus is what the oracle compares on: the generated workloads, one of
// them with the parasitic defects planted, and random trees.
func corpus(t testing.TB) []*workload.Generated {
	t.Helper()
	gen := func(g *workload.Generated, err error) *workload.Generated {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	defective := gen(workload.Bus(workload.BusSpec{Bits: 12, Segs: 3, Seed: 3}))
	if err := defective.Inject(workload.Defects{StraySPEFNet: true, DanglingCoupling: true, NegativeCap: true, OrphanRCNode: true}); err != nil {
		t.Fatal(err)
	}
	return []*workload.Generated{
		gen(workload.Bus(workload.BusSpec{Bits: 40, Segs: 2})),
		gen(workload.Bus(workload.BusSpec{Bits: 9, Segs: 20, ShieldEvery: 4})),
		gen(workload.Fabric(workload.FabricSpec{Width: 12, Levels: 8, CouplingDensity: 3, CoupleC: 12 * units.Femto, Seed: 5})),
		gen(workload.Ladder(workload.LadderSpec{Lines: 8})),
		defective,
		randomTrees(1, 60, false),
		randomTrees(2, 90, true),
		randomTrees(3, 90, true),
	}
}

func bits(x float64) uint64 { return math.Float64bits(x) }

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// compare holds one bound design to the reference, net by net, and returns
// what differs.
func compare(t testing.TB, g *workload.Generated) (diffs []string) {
	t.Helper()
	lib := liberty.Generic()
	b, err := bind.New(g.Design, lib, g.Paras)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Design
	diff := func(net netlist.NetID, format string, args ...any) {
		diffs = append(diffs, fmt.Sprintf("%s net %s: ", d.Name, d.NetName(net))+fmt.Sprintf(format, args...))
	}
	same := func(net netlist.NetID, what string, got, want float64) {
		if bits(got) != bits(want) {
			diff(net, "%s = %v (%#x), reference %v (%#x)", what, got, bits(got), want, bits(want))
		}
	}
	refs := make([]*refNetwork, g.Design.NumNets())
	analyses := make([]*refAnalysis, g.Design.NumNets())
	errs := make([]error, g.Design.NumNets())
	paras := map[string]*spef.Net{}
	if g.Paras != nil {
		for _, sn := range g.Paras.Nets() {
			paras[sn.Name] = sn
		}
	}
	for _, net := range g.Design.Nets() {
		if refs[net], err = refBind(d, net, lib, paras); err != nil {
			t.Fatal(err)
		}
		analyses[net], errs[net] = refs[net].Analyze()
	}
	refAnalyze := func(n netlist.NetID) (*refAnalysis, error) { return analyses[n], errs[n] }
	for _, net := range g.Design.Nets() {
		ref, refA, refErr := refs[net], analyses[net], errs[net]
		nw := b.NetworkOf(net)
		a, err := b.AnalysisOf(net)
		if nw.NumNodes() != ref.NumNodes() {
			diff(net, "%d nodes, reference %d", nw.NumNodes(), ref.NumNodes())
			continue
		}
		ground, load, coupling := nw.Caps()
		same(net, "GroundCap", ground, ref.GroundCap())
		same(net, "LoadCap", load, ref.LoadCap())
		same(net, "CouplingCap", coupling, ref.CouplingCap())
		same(net, "TotalCap", nw.TotalCap(), ref.TotalCap())
		for _, c := range d.NetConns(net) {
			want := int32(-1)
			if i, ok := ref.lookup(refPinNode(d, c)); ok {
				want = int32(i)
			}
			if got := b.NodeOf(c); got != want {
				diff(net, "connection %s on node %d, reference %d", d.ConnName(c), got, want)
			}
		}
		nctx, ctxErr := noise.BuildContext(b, net)
		if errText(err) != errText(refErr) || errText(ctxErr) != errText(refErr) {
			diff(net, "errors %q and %q, reference %q", errText(err), errText(ctxErr), errText(refErr))
		}
		if err != nil || refErr != nil || ctxErr != nil {
			continue
		}
		for i := range ref.names {
			same(net, "Elmore to "+ref.names[i], a.Elmore(int32(i)), refA.elmore[i])
			same(net, "m2 at "+ref.names[i], a.M2(int32(i)), refA.m2[i])
			same(net, "resistance to "+ref.names[i], a.Res(int32(i)), refA.rpath[i])
			sd, _ := refA.SlewDegradation(ref.names[i])
			same(net, "slew degradation at "+ref.names[i], a.SlewDegradation(int32(i)), sd)
		}
		same(net, "MaxElmore", a.MaxElmore(), refA.MaxElmore())
		for _, lc := range d.Loads(net) {
			got, _ := b.WireDelayTo(lc)
			var want float64
			if ref.HasNode(refPinNode(d, lc)) {
				want, _ = refA.ElmoreTo(refPinNode(d, lc))
			}
			same(net, "wire delay to "+d.ConnName(lc), got, want)
		}
		groups, err := refGroups(g.Design, ref, refA, refAnalyze)
		if err != nil {
			t.Fatal(err)
		}
		same(net, "VictimC", nctx.VictimC, ref.TotalCap())
		if len(nctx.Couplings) != len(groups) {
			diff(net, "%d coupling groups, reference %d", len(nctx.Couplings), len(groups))
			continue
		}
		for i, want := range groups {
			got := nctx.Couplings[i]
			if got.Aggressor != want.Aggressor || got.Agg != want.Agg {
				diff(net, "group %d is %s (net %d), reference %s (net %d)", i, got.Aggressor, got.Agg, want.Aggressor, want.Agg)
			}
			same(net, "CoupleC to "+want.Aggressor, got.CoupleC, want.CoupleC)
			same(net, "WireRes to "+want.Aggressor, got.WireRes, want.WireRes)
			same(net, "AggWireDelay of "+want.Aggressor, got.AggWireDelay, want.AggWireDelay)
		}
	}
	return diffs
}

// TestDatabaseMatchesReference: the parasitics database — node numbering,
// capacitances, every node's moments and path resistance, the
// connection-to-node table, the per-aggressor coupling groups as
// noise.BuildContext hands them out, and every failure's text — equals the
// frozen per-net reference bit for bit.
func TestDatabaseMatchesReference(t *testing.T) {
	failed, groups, large := 0, 0, 0
	for _, g := range corpus(t) {
		for i, d := range compare(t, g) {
			if i == 10 {
				t.Errorf("%s: … and %d more", g.Design.Name, len(compare(t, g))-10)
				break
			}
			t.Error(d)
		}
		// What the corpus exercised, so that it cannot quietly stop doing so.
		b, err := bind.New(g.Design, liberty.Generic(), g.Paras)
		if err != nil {
			t.Fatal(err)
		}
		for _, net := range g.Design.Nets() {
			if _, err := b.AnalysisOf(net); err != nil {
				failed++
			}
			groups += len(b.Couplings(net))
			if b.NetworkOf(net).NumNodes() > 16 {
				large++
			}
		}
	}
	if failed < 20 || groups < 500 || large < 20 {
		t.Fatalf("corpus too tame: %d unreducible nets, %d coupling groups, %d nets over 16 nodes", failed, groups, large)
	}
}

// TestOracleCatchesPlantedMutation is the oracle's non-vacuity check: with
// the reference adding pin loads after the coupling caps instead of before
// — same terms, different order — the comparison must report differences.
func TestOracleCatchesPlantedMutation(t *testing.T) {
	plantedMutation = true
	defer func() { plantedMutation = false }()
	n := 0
	for _, g := range corpus(t) {
		n += len(compare(t, g))
	}
	if n == 0 {
		t.Fatal("the reference summed node caps in another order and the oracle saw nothing")
	}
	t.Logf("planted mutation: %d differences", n)
}

// TestFromSPEFNoDriver: an extracted net without a driver connection stops
// New with the reference's error.
func TestFromSPEFNoDriver(t *testing.T) {
	g := randomTrees(4, 5, false)
	// The database keeps no handle to change a net through: rebuild it
	// with t1's driver turned into a load.
	p := spef.NewParasitics(g.Paras.Design)
	var sn *spef.Net
	for _, n := range g.Paras.Nets() {
		if n.Name == "t1" {
			n.Conns[0].Dir, sn = spef.DirIn, n
		}
		if err := p.AddNet(n); err != nil {
			t.Fatal(err)
		}
	}
	g.Paras = p
	_, refErr := refFromSPEF(sn)
	_, err := bind.New(g.Design, liberty.Generic(), g.Paras)
	if err == nil || refErr == nil || err.Error() != refErr.Error() || !strings.Contains(err.Error(), "no driver connection") {
		t.Fatalf("bind: %v, reference: %v", err, refErr)
	}
}

// TestFromSPEF: a parsed SPEF net lands in the database rooted at its
// driver connection, its coupling grouped toward the partner, and its
// Elmore delays those of the extracted tree under the receiver's pin cap.
func TestFromSPEF(t *testing.T) {
	src := `*SPEF "x"
*DESIGN "d"
*D_NET v 3.0e-15
*CONN
*I drv:Y O
*I rcv:A I
*CAP
1 v:1 1.0e-15
2 v:1 a:1 2.0e-15
*RES
1 drv:Y v:1 150
2 v:1 rcv:A 50
*END
`
	p, err := spef.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	d := netlist.New("d")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err = d.AddPort("in", netlist.In)
	must(err)
	_, err = d.AddInst("drv", "INV_X1")
	must(err)
	_, err = d.AddInst("rcv", "INV_X1")
	must(err)
	must(d.Connect("drv", "A", "in", netlist.In))
	must(d.Connect("drv", "Y", "v", netlist.Out))
	must(d.Connect("rcv", "A", "v", netlist.In))
	must(d.Connect("rcv", "Y", "out", netlist.Out))
	lib := liberty.Generic()
	b, err := bind.New(d, lib, p)
	must(err)
	v := d.FindNet("v")
	a, err := b.AnalysisOf(v)
	must(err)
	if a.NumNodes() != 3 || b.NodeOf(d.Driver(v)) != 0 || a.Res(0) != 0 {
		t.Fatalf("%d nodes, driver on node %d", a.NumNodes(), b.NodeOf(d.Driver(v)))
	}
	groups := b.Couplings(v)
	if len(groups) != 1 || groups[0].C != 2e-15 || groups[0].Agg != -1 || b.Stranger(v, 0) != "a" || groups[0].WireRes != 150 {
		t.Fatalf("couplings = %+v toward %q", groups, b.Stranger(v, 0))
	}
	cell, err := lib.ResolveCell("rcv", "INV_X1")
	must(err)
	pin := cell.Pin("A").Cap
	// Elmore to rcv:A = 150·(3 fF + pin) + 50·pin.
	got, err := b.WireDelayTo(d.Loads(v)[0])
	must(err)
	if want := 150*(3e-15+pin) + 50*pin; math.Abs(got-want) > 1e-21 {
		t.Fatalf("Elmore = %g, want %g", got, want)
	}
}
