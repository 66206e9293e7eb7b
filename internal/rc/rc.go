// Package rc is the parasitics database of a bound design: every net's
// distributed RC tree in flat, pointer-free arrays, and the reduced
// quantities delay and noise analysis consume — Elmore delays, second
// moments, path resistances, total and coupling capacitances, and the
// couplings summed per partner net.
//
// A Builder names nodes and partner nets while it assembles one net and
// commits it; in the database they are indexes. Reduction assumes the
// resistive topology is a tree rooted at the driver node (the overwhelmingly
// common case for extracted signal nets) and fails the net otherwise.
package rc

import (
	"fmt"
	"math"
)

// DB holds the RC networks of every net of one design.
type DB struct {
	nets []Network // by net ID
	// Per node, at Network.node0 + the node's index within its net.
	gcap, load        []float64 // grounded wire cap, attached pin cap
	elmore, m2, rpath []float64 // step-response moments, resistance from the root
	// Per resistor, at Network.res0 + i; the ends are nodes within the net.
	resA, resB []int32
	ohms       []float64
	// Per coupling capacitor, at Network.cpl0 + i: its node within the net,
	// the group (of this net) it belongs to, and its farads.
	cplNode, cplGroup []int32
	cplF              []float64
	groups            []Group // at Network.grp0 + i
}

// Group is a net's coupling toward one partner net, summed over the
// coupling capacitors between the two.
type Group struct {
	// Agg identifies the partner the way the builder numbers partners:
	// bind stores the net ID, or -1 for a net the netlist does not have.
	Agg     int32
	C       float64 // total coupling capacitance, farads
	WireRes float64 // cap-weighted resistance from this net's root to the coupling sites
}

// Network is one net's record: where its share of the arrays lies, and the
// scalars reduced from it. The capacitances are valid whether or not the
// tree reduction succeeded; the rest only when it did.
type Network struct {
	node0, res0, cpl0, grp0 int32
	nodes, ress, cpls, grps int32
	reduced                 bool
	ground, load, coupling  float64
	maxElmore               float64
}

// Sizes is what one net needs of the database.
type Sizes struct{ Nodes, Ress, Cpls, Groups int }

// NewDB allocates the database for nets of the given sizes, by net ID.
func NewDB(sizes []Sizes) (*DB, error) {
	db := &DB{nets: make([]Network, len(sizes))}
	var t Sizes
	for i, s := range sizes {
		db.nets[i] = Network{
			node0: int32(t.Nodes), res0: int32(t.Ress), cpl0: int32(t.Cpls), grp0: int32(t.Groups),
			nodes: int32(s.Nodes), ress: int32(s.Ress), cpls: int32(s.Cpls), grps: int32(s.Groups),
		}
		t.Nodes, t.Ress, t.Cpls, t.Groups = t.Nodes+s.Nodes, t.Ress+s.Ress, t.Cpls+s.Cpls, t.Groups+s.Groups
	}
	if max(t.Nodes, t.Ress, t.Cpls) > math.MaxInt32 {
		return nil, fmt.Errorf("rc: parasitics of %d nodes, %d resistors and %d coupling capacitors exceed the database's 2^31 index range", t.Nodes, t.Ress, t.Cpls)
	}
	db.gcap, db.load = make([]float64, t.Nodes), make([]float64, t.Nodes)
	db.elmore, db.m2, db.rpath = make([]float64, t.Nodes), make([]float64, t.Nodes), make([]float64, t.Nodes)
	db.resA, db.resB, db.ohms = make([]int32, t.Ress), make([]int32, t.Ress), make([]float64, t.Ress)
	db.cplNode, db.cplGroup, db.cplF = make([]int32, t.Cpls), make([]int32, t.Cpls), make([]float64, t.Cpls)
	db.groups = make([]Group, t.Groups)
	return db, nil
}

// Net returns the record of net id.
func (db *DB) Net(id int32) *Network { return &db.nets[id] }

// Groups returns net id's couplings per partner, in the builder's order.
func (db *DB) Groups(id int32) []Group {
	n := &db.nets[id]
	return db.groups[n.grp0:][:n.grps]
}

// Reduced reports whether the tree reduction succeeded.
func (n *Network) Reduced() bool { return n.reduced }

// TotalCap is the capacitance a quiet victim's driver must hold: grounded
// wire cap + pin loads + coupling caps (a switching-aggressor boundary
// treats Cx as connected to a source, but for time-constant purposes the
// conservative lumping includes it).
func (n *Network) TotalCap() float64 { return n.ground + n.load + n.coupling }

// MaxElmore returns the largest Elmore delay over all nodes — the
// conservative wire-delay number for the net.
func (n *Network) MaxElmore() float64 { return n.maxElmore }

// Analysis reads the tree-derived quantities of one successfully reduced
// net; nodes are indexes within the net.
type Analysis struct {
	*Network
	db *DB
}

// Analysis returns the reduced view of net id.
func (db *DB) Analysis(id int32) Analysis { return Analysis{&db.nets[id], db} }

// Elmore returns the Elmore delay from the driver to a node.
func (a Analysis) Elmore(node int32) float64 { return a.db.elmore[a.node0+node] }

// M2 returns the second moment of the step response at a node.
func (a Analysis) M2(node int32) float64 { return a.db.m2[a.node0+node] }

// SlewDegradation estimates the additional output slew introduced by the
// wire at a node using the PERI-style two-moment metric
// sqrt(2·m2 − m1²)·ln(9) when the discriminant is positive, falling back to
// the Elmore delay otherwise.
func (a Analysis) SlewDegradation(node int32) float64 {
	m1 := a.Elmore(node)
	d := 2*a.M2(node) - m1*m1
	if d <= 0 {
		return m1
	}
	return math.Sqrt(d) * math.Log(9)
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, 2*n)
	}
	return s[:n]
}

func sum(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}
