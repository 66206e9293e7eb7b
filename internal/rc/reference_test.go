package rc_test

// The frozen reference: the per-net Network, its lazy Analyze and capAt,
// bind's network construction and noise.BuildContext's grouping, exactly as
// they stood before the parasitics database replaced them (names, one map
// per large net, one allocation per array). The oracle in oracle_test.go
// holds the database to this code bit for bit. Do not edit it to follow the
// engine: it is the behaviour the engine must keep.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/spef"
)

// plantedMutation adds a node's pin load after its coupling caps instead of
// before them — a change of operand order only. The oracle must notice it
// (TestOracleCatchesPlantedMutation), or it could not notice an engine that
// made the same slip.
var plantedMutation bool

// Coupling is a cross-coupling capacitor from a node of this net to a node
// of another net.
type refCoupling struct {
	Node      string  // node on this net
	OtherNet  string  // the aggressor/victim partner net
	OtherNode string  // node on the partner net
	F         float64 // farads
}

type refEdge struct {
	a, b int
	ohms float64
}

// Network is one net's RC parasitics plus attached pin load capacitances.
type refNetwork struct {
	Name  string
	names []string
	// idx maps node name to index, but only once the net outgrows
	// linear scanning: extracted signal nets overwhelmingly have a
	// handful of nodes, and at million-net scale one map per net is the
	// dominant memory and allocation cost of the parasitics database.
	idx  map[string]int
	root int // -1 until set
	res  []refEdge
	gcap []float64 // grounded wire cap per node
	load []float64 // attached pin load cap per node
	coup []refCoupling
}

// refSmallNodes is the node count up to which lookup stays a linear scan.
const refSmallNodes = 16

// NewNetwork returns an empty network.
func newRefNetwork(name string) *refNetwork {
	return &refNetwork{Name: name, root: -1}
}

// lookup returns the index of a node name, scanning small nets and
// consulting the map on large ones.
func (n *refNetwork) lookup(name string) (int, bool) {
	if n.idx != nil {
		i, ok := n.idx[name]
		return i, ok
	}
	for i, nm := range n.names {
		if nm == name {
			return i, true
		}
	}
	return 0, false
}

// Node interns a node name and returns its index.
func (n *refNetwork) Node(name string) int {
	if i, ok := n.lookup(name); ok {
		return i
	}
	i := len(n.names)
	n.names = append(n.names, name)
	n.gcap = append(n.gcap, 0)
	n.load = append(n.load, 0)
	if n.idx != nil {
		n.idx[name] = i
	} else if len(n.names) > refSmallNodes {
		n.idx = make(map[string]int, 2*refSmallNodes)
		for j, nm := range n.names {
			n.idx[nm] = j
		}
	}
	return i
}

// HasNode reports whether the named node exists.
func (n *refNetwork) HasNode(name string) bool {
	_, ok := n.lookup(name)
	return ok
}

// NumNodes returns the node count.
func (n *refNetwork) NumNodes() int { return len(n.names) }

// NodeNames returns the node names in index order.
func (n *refNetwork) NodeNames() []string { return append([]string(nil), n.names...) }

// SetRoot marks the driver node. FromSPEF does this automatically from the
// *CONN section.
func (n *refNetwork) SetRoot(name string) {
	n.root = n.Node(name)
}

// Root returns the driver node name, or "" if unset.
func (n *refNetwork) Root() string {
	if n.root < 0 {
		return ""
	}
	return n.names[n.root]
}

// AddRes adds a resistor between two nodes (created on demand).
func (n *refNetwork) AddRes(a, b string, ohms float64) {
	n.res = append(n.res, refEdge{a: n.Node(a), b: n.Node(b), ohms: ohms})
}

// AddCap adds grounded wire capacitance at a node.
func (n *refNetwork) AddCap(node string, f float64) {
	n.gcap[n.Node(node)] += f
}

// AddLoadCap attaches pin load capacitance (a receiver input) at a node.
// It is kept separate from wire cap so callers can re-bind libraries.
func (n *refNetwork) AddLoadCap(node string, f float64) {
	n.load[n.Node(node)] += f
}

// AddCoupling adds a cross-coupling capacitor at a node.
func (n *refNetwork) AddCoupling(node, otherNet, otherNode string, f float64) {
	n.Node(node)
	n.coup = append(n.coup, refCoupling{Node: node, OtherNet: otherNet, OtherNode: otherNode, F: f})
}

// Couplings returns a copy of the coupling capacitors. Hot paths should
// use CouplingsView, which does not allocate.
func (n *refNetwork) Couplings() []refCoupling { return append([]refCoupling(nil), n.coup...) }

// CouplingsView returns the coupling capacitors without copying. The
// returned slice is owned by the Network and must not be mutated.
func (n *refNetwork) CouplingsView() []refCoupling { return n.coup }

// GroundCap returns total grounded wire capacitance.
func (n *refNetwork) GroundCap() float64 {
	var s float64
	for _, c := range n.gcap {
		s += c
	}
	return s
}

// LoadCap returns total attached pin capacitance.
func (n *refNetwork) LoadCap() float64 {
	var s float64
	for _, c := range n.load {
		s += c
	}
	return s
}

// CouplingCap returns total cross-coupling capacitance.
func (n *refNetwork) CouplingCap() float64 {
	var s float64
	for _, c := range n.coup {
		s += c.F
	}
	return s
}

// CouplingTo returns the summed coupling capacitance toward one other net.
// Partner counts per net are small, so this scans rather than caching a
// per-net map.
func (n *refNetwork) CouplingTo(other string) float64 {
	var s float64
	for _, x := range n.coup {
		if x.OtherNet == other {
			s += x.F
		}
	}
	return s
}

// TotalCap is the capacitance a quiet victim's driver must hold: grounded
// wire cap + pin loads + coupling caps (a switching-aggressor boundary
// treats Cx as connected to a source, but for time-constant purposes the
// conservative lumping includes it).
func (n *refNetwork) TotalCap() float64 {
	return n.GroundCap() + n.LoadCap() + n.CouplingCap()
}

// capAt returns the effective grounded cap at node i including coupling
// caps lumped to ground and pin loads.
func (n *refNetwork) capAt(i int) float64 {
	c := n.gcap[i] + n.load[i]
	if plantedMutation {
		c = n.gcap[i]
	}
	for _, x := range n.coup {
		if j, ok := n.lookup(x.Node); ok && j == i {
			c += x.F
		}
	}
	if plantedMutation {
		c += n.load[i]
	}
	return c
}

// FromSPEF builds a Network from parsed SPEF, rooting it at the first
// driver (*CONN direction O) entry. Connection nodes are created even when
// no RC entry references them so single-segment nets still resolve.
func refFromSPEF(sn *spef.Net) (*refNetwork, error) {
	n := newRefNetwork(sn.Name)
	for _, c := range sn.Conns {
		n.Node(c.Node)
		if c.Dir == spef.DirOut && n.root < 0 {
			n.SetRoot(c.Node)
		}
	}
	for _, r := range sn.Ress {
		n.AddRes(r.A, r.B, r.Ohms)
	}
	for _, c := range sn.Caps {
		if c.Other == "" {
			n.AddCap(c.Node, c.F)
		} else {
			n.AddCoupling(c.Node, spef.NetOfNode(c.Other), c.Other, c.F)
		}
	}
	if n.root < 0 {
		return nil, fmt.Errorf("rc: net %q has no driver connection", sn.Name)
	}
	return n, nil
}

// Analysis holds the tree-derived quantities for one network.
type refAnalysis struct {
	net *refNetwork
	// per node, by index:
	elmore []float64 // first moment of the step response (Elmore delay)
	m2     []float64 // second moment
	rpath  []float64 // total resistance from root to node
	ctotal float64
}

// Analyze orients the resistive tree from the root and computes Elmore
// delays, second moments, and path resistances to every node. It errors if
// the root is unset, the resistive graph is disconnected from the root, or
// the topology is not a tree.
func (n *refNetwork) Analyze() (*refAnalysis, error) {
	if n.root < 0 {
		return nil, fmt.Errorf("rc: net %q: root not set", n.Name)
	}
	nn := len(n.names)
	adj := make([][]refEdge, nn)
	for _, e := range n.res {
		if e.ohms < 0 {
			return nil, fmt.Errorf("rc: net %q: negative resistance", n.Name)
		}
		adj[e.a] = append(adj[e.a], e)
		adj[e.b] = append(adj[e.b], refEdge{a: e.b, b: e.a, ohms: e.ohms})
	}
	// BFS orientation from root.
	parent := make([]int, nn)
	parentR := make([]float64, nn)
	order := make([]int, 0, nn)
	seen := make([]bool, nn)
	for i := range parent {
		parent[i] = -1
	}
	queue := []int{n.root}
	seen[n.root] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, e := range adj[u] {
			v := e.b
			if v == u {
				continue
			}
			if seen[v] {
				if v != parent[u] {
					return nil, fmt.Errorf("rc: net %q: resistive loop involving node %q", n.Name, n.names[v])
				}
				continue
			}
			seen[v] = true
			parent[v] = u
			parentR[v] = e.ohms
			queue = append(queue, v)
		}
	}
	for i, s := range seen {
		if !s {
			return nil, fmt.Errorf("rc: net %q: node %q unreachable from driver", n.Name, n.names[i])
		}
	}

	a := &refAnalysis{net: n}
	a.rpath = refPathAccumulateConst(order, parent, parentR)
	caps := make([]float64, nn)
	for i := range caps {
		caps[i] = n.capAt(i)
		a.ctotal += caps[i]
	}
	a.elmore = refPathAccumulate(order, parent, parentR, caps)
	// Second moments reuse the same accumulation with weights C_j·m1_j.
	w2 := make([]float64, nn)
	for i := range w2 {
		w2[i] = caps[i] * a.elmore[i]
	}
	a.m2 = refPathAccumulate(order, parent, parentR, w2)
	return a, nil
}

// pathAccumulate computes, for each node v,
//
//	val(v) = Σ_{edges e on path root→v} R_e · (Σ_{j in subtree below e} w_j)
//
// which is the Elmore form for w = node caps and the second-moment form for
// w = C·m1. order must be a BFS/DFS order from the root (parents precede
// children).
func refPathAccumulate(order, parent []int, parentR, w []float64) []float64 {
	nn := len(order)
	sub := append([]float64(nil), w...)
	// Bottom-up subtree sums: reverse BFS order visits children first.
	for i := nn - 1; i >= 1; i-- {
		v := order[i]
		sub[parent[v]] += sub[v]
	}
	val := make([]float64, nn)
	for i := 1; i < nn; i++ {
		v := order[i]
		val[v] = val[parent[v]] + parentR[v]*sub[v]
	}
	return val
}

// pathAccumulateConst computes plain path resistance from root to each
// node.
func refPathAccumulateConst(order, parent []int, parentR []float64) []float64 {
	val := make([]float64, len(order))
	for i := 1; i < len(order); i++ {
		v := order[i]
		val[v] = val[parent[v]] + parentR[v]
	}
	return val
}

// ElmoreTo returns the Elmore delay from the driver to the named node.
func (a *refAnalysis) ElmoreTo(node string) (float64, error) {
	i, ok := a.net.lookup(node)
	if !ok {
		return 0, fmt.Errorf("rc: net %q: unknown node %q", a.net.Name, node)
	}
	return a.elmore[i], nil
}

// M2To returns the second moment of the step response at the named node.
func (a *refAnalysis) M2To(node string) (float64, error) {
	i, ok := a.net.lookup(node)
	if !ok {
		return 0, fmt.Errorf("rc: net %q: unknown node %q", a.net.Name, node)
	}
	return a.m2[i], nil
}

// ResTo returns the path resistance from the driver to the named node.
func (a *refAnalysis) ResTo(node string) (float64, error) {
	i, ok := a.net.lookup(node)
	if !ok {
		return 0, fmt.Errorf("rc: net %q: unknown node %q", a.net.Name, node)
	}
	return a.rpath[i], nil
}

// TotalCap returns the total effective grounded capacitance seen in the
// analysis (wire + load + lumped coupling).
func (a *refAnalysis) TotalCap() float64 { return a.ctotal }

// MaxElmore returns the largest Elmore delay over all nodes — the
// conservative wire-delay number for the net.
func (a *refAnalysis) MaxElmore() float64 {
	var best float64
	for _, d := range a.elmore {
		if d > best {
			best = d
		}
	}
	return best
}

// SlewDegradation estimates the additional output slew introduced by the
// wire at a node using the PERI-style two-moment metric
// sqrt(2·m2 − m1²)·ln(9) when the discriminant is positive, falling back to
// the Elmore delay otherwise.
func (a *refAnalysis) SlewDegradation(node string) (float64, error) {
	i, ok := a.net.lookup(node)
	if !ok {
		return 0, fmt.Errorf("rc: net %q: unknown node %q", a.net.Name, node)
	}
	d := 2*a.m2[i] - a.elmore[i]*a.elmore[i]
	if d <= 0 {
		return a.elmore[i], nil
	}
	return math.Sqrt(d) * math.Log(9), nil
}

// refPinNode returns the RC node name a connection lands on.
func refPinNode(d *netlist.Design, c netlist.ConnID) string {
	if inst := d.Conn(c).Inst; inst >= 0 {
		return d.InstName(inst) + ":" + d.Pin(c)
	}
	return d.Pin(c)
}

// refBind builds one net's network the way bind.New did: from SPEF when
// present, otherwise a lumped stand-in, with receiver pin capacitances
// attached at their nodes. paras holds the SPEF's nets by name.
func refBind(d *netlist.Design, net netlist.NetID, lib *liberty.Library, paras map[string]*spef.Net) (*refNetwork, error) {
	var nw *refNetwork
	if sn := paras[d.NetName(net)]; sn != nil {
		var err error
		if nw, err = refFromSPEF(sn); err != nil {
			return nil, err
		}
	}
	if nw == nil {
		nw = newRefNetwork(d.NetName(net))
		root := "root"
		if drv := d.Driver(net); drv >= 0 {
			root = refPinNode(d, drv)
		}
		nw.SetRoot(root)
		for _, lc := range d.Loads(net) {
			if node := refPinNode(d, lc); node != root {
				nw.AddRes(root, node, 1e-3)
			}
		}
	}
	for _, lc := range d.Loads(net) {
		inst := d.Conn(lc).Inst
		if inst < 0 {
			continue
		}
		cell, err := lib.ResolveCell(d.InstName(inst), d.CellName(inst))
		if err != nil {
			return nil, err
		}
		node := refPinNode(d, lc)
		if !nw.HasNode(node) {
			node = nw.Root()
		}
		nw.AddLoadCap(node, cell.Pin(d.Pin(lc)).Cap)
	}
	return nw, nil
}

// refGroup is one entry of the reference noise context's coupling list.
type refGroup struct {
	Aggressor                      string
	Agg                            netlist.NetID
	CoupleC, WireRes, AggWireDelay float64
}

// refGroups is noise.BuildContext's grouping: couplings summed per partner
// name through a map, partners sorted, each resolved by name.
func refGroups(d *netlist.Design, nw *refNetwork, a *refAnalysis, analyze func(netlist.NetID) (*refAnalysis, error)) ([]refGroup, error) {
	type accum struct{ c, rw float64 }
	groups := make(map[string]*accum)
	for _, x := range nw.coup {
		g := groups[x.OtherNet]
		if g == nil {
			g = &accum{}
			groups[x.OtherNet] = g
		}
		r, err := a.ResTo(x.Node)
		if err != nil {
			return nil, err
		}
		g.c += x.F
		g.rw += x.F * r
	}
	names := make([]string, 0, len(groups))
	for n := range groups {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []refGroup
	for _, n := range names {
		g := groups[n]
		cpl := refGroup{Aggressor: n, Agg: d.FindNet(n), CoupleC: g.c}
		if g.c > 0 {
			cpl.WireRes = g.rw / g.c
		}
		if cpl.Agg >= 0 {
			if aggA, err := analyze(cpl.Agg); err == nil {
				cpl.AggWireDelay = aggA.MaxElmore()
			}
		}
		out = append(out, cpl)
	}
	return out, nil
}
