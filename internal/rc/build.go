package rc

import (
	"fmt"
	"slices"
	"strings"
)

// Builder assembles one net at a time by node and partner-net names and
// commits it to a database — the only place names meet parasitics. Package
// bind drives one per worker over a whole design.
// Assembling and committing a net allocates nothing once the buffers have
// grown to the largest net seen.
type Builder struct {
	name  string
	names []string // nodes, in order of first mention
	// table indexes names by hash once a net outgrows linear scanning
	// (slot = node + 1, 0 empty): extracted signal nets overwhelmingly have
	// a handful of nodes.
	table      []int32
	root       int32
	gcap, load []float64 // per node
	// Resistors and coupling capacitors in the order added; cplName is each
	// coupling's partner net.
	resA, resB, cplNode []int32
	ohms, cplF          []float64
	cplName             []string
	// The couplings grouped per partner (group): the sort's working order,
	// each coupling's group, and each group's partner, in name order.
	sorted, cplGroup []int32
	partners         []string
	grouped          bool
	// The tree reduction's working memory: adjacency lists as offsets into
	// adjTo/adjR, the oriented tree, and per-node weights.
	adjOff, adjTo, parent, order []int32
	adjR, parentR, caps, sub, w2 []float64
}

// Reset starts a new, empty net.
func (b *Builder) Reset(name string) {
	b.name, b.root = name, -1
	b.names, b.gcap, b.load = b.names[:0], b.gcap[:0], b.load[:0]
	b.resA, b.resB, b.ohms = b.resA[:0], b.resB[:0], b.ohms[:0]
	b.cplNode, b.cplF, b.cplName, b.grouped = b.cplNode[:0], b.cplF[:0], b.cplName[:0], false
}

// smallNodes is the node count up to which lookup stays a linear scan.
const smallNodes = 16

func hashOf[S string | []byte](name S) uint64 {
	h := uint64(14695981039346656037) // FNV-1a
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return h
}

// Find returns the index of the named node, or -1.
func Find[S string | []byte](b *Builder, name S) int32 {
	if len(b.names) <= smallNodes {
		for i, nm := range b.names {
			if nm == string(name) {
				return int32(i)
			}
		}
		return -1
	}
	mask := uint64(len(b.table) - 1)
	for p := hashOf(name) & mask; b.table[p] != 0; p = (p + 1) & mask {
		if i := b.table[p] - 1; b.names[i] == string(name) {
			return i
		}
	}
	return -1
}

// Named adds a node the caller knows is not in the net yet, as a parser
// that numbered the net's nodes does.
func (b *Builder) Named(name string) int32 { return b.add(name) }

// Anon adds a node no name will be looked up for.
func (b *Builder) Anon() int32 { return b.add("") }

func (b *Builder) add(name string) int32 {
	b.names, b.gcap, b.load = append(b.names, name), append(b.gcap, 0), append(b.load, 0)
	n := len(b.names)
	if n == smallNodes+1 || n > smallNodes && 2*n > len(b.table) {
		// Entering hashed mode, or half full: index every node afresh in a
		// power of two of at least four slots each.
		size := 128
		for size < 4*n {
			size *= 2
		}
		b.table = grow(b.table, size)
		clear(b.table)
		for i := range b.names[:n-1] {
			b.index(int32(i))
		}
	}
	if n > smallNodes {
		b.index(int32(n - 1))
	}
	return int32(n - 1)
}

func (b *Builder) index(i int32) {
	mask := uint64(len(b.table) - 1)
	p := hashOf(b.names[i]) & mask
	for b.table[p] != 0 {
		p = (p + 1) & mask
	}
	b.table[p] = i + 1
}

// SetRoot marks the driver node.
func (b *Builder) SetRoot(node int32) { b.root = node }

// AddRes adds a resistor between two nodes.
func (b *Builder) AddRes(x, y int32, ohms float64) {
	b.resA, b.resB, b.ohms = append(b.resA, x), append(b.resB, y), append(b.ohms, ohms)
}

// AddCap adds grounded wire capacitance at a node.
func (b *Builder) AddCap(node int32, f float64) { b.gcap[node] += f }

// AddLoadCap attaches pin load capacitance (a receiver input) at a node.
func (b *Builder) AddLoadCap(node int32, f float64) { b.load[node] += f }

// AddCoupling adds a cross-coupling capacitor from a node to another net.
func (b *Builder) AddCoupling(node int32, otherNet string, f float64) {
	b.cplNode, b.cplF, b.cplName = append(b.cplNode, node), append(b.cplF, f), append(b.cplName, otherNet)
	b.grouped = false
}

// Partners groups the couplings per partner net and returns the partners
// in name order — the order of the net's Groups once committed. A group's
// members stay in the order added, which is the order their capacitances
// are summed in.
func (b *Builder) Partners() []string {
	if b.grouped {
		return b.partners
	}
	b.grouped = true
	b.sorted = grow(b.sorted, len(b.cplF))
	for k := range b.sorted {
		b.sorted[k] = int32(k)
	}
	slices.SortStableFunc(b.sorted, func(x, y int32) int { return strings.Compare(b.cplName[x], b.cplName[y]) })
	b.cplGroup, b.partners = grow(b.cplGroup, len(b.sorted)), b.partners[:0]
	for j, k := range b.sorted {
		if j == 0 || b.cplName[k] != b.cplName[b.sorted[j-1]] {
			b.partners = append(b.partners, b.cplName[k])
		}
		b.cplGroup[k] = int32(len(b.partners) - 1)
	}
	return b.partners
}

// Commit writes the net into its place in the database, which must have
// been sized for it, and reduces it there. Group i's Agg is left i, the
// index into Partners, for the caller to resolve. The error says, in the
// net's own names, why the resistors do not form a tree rooted at the
// driver; the net's capacitances and groups are committed even so.
func (b *Builder) Commit(db *DB, id int32) error {
	n, groups := &db.nets[id], b.Partners()
	copy(db.gcap[n.node0:][:n.nodes], b.gcap)
	copy(db.load[n.node0:][:n.nodes], b.load)
	copy(db.resA[n.res0:][:n.ress], b.resA)
	copy(db.resB[n.res0:][:n.ress], b.resB)
	copy(db.ohms[n.res0:][:n.ress], b.ohms)
	copy(db.cplNode[n.cpl0:][:n.cpls], b.cplNode)
	copy(db.cplGroup[n.cpl0:][:n.cpls], b.cplGroup)
	copy(db.cplF[n.cpl0:][:n.cpls], b.cplF)
	for g := range groups {
		db.groups[int(n.grp0)+g] = Group{Agg: int32(g)}
	}
	return b.reduce(db, id)
}

const unseen = -2 // parent of a node the search has not reached

// reduce computes the committed net's scalars, per-node moments and group
// sums in the database, orienting the resistive tree from the root. It
// fails the net if it has no root, a negative resistor, a resistive loop,
// or a node the resistors do not connect to the root.
func (b *Builder) reduce(db *DB, id int32) error {
	n, root := &db.nets[id], b.root
	groups := db.groups[n.grp0:][:n.grps]
	n.reduced, n.ground, n.load, n.coupling = false, sum(b.gcap), sum(b.load), sum(b.cplF)
	nn := int(n.nodes)
	if root < 0 {
		return fmt.Errorf("rc: net %q: root not set", b.name)
	}
	// Adjacency lists in resistor order, as offsets into adjTo/adjR.
	b.adjOff = grow(b.adjOff, nn+1)
	clear(b.adjOff)
	for i, r := range b.ohms {
		if r < 0 {
			return fmt.Errorf("rc: net %q: negative resistance", b.name)
		}
		b.adjOff[b.resA[i]+1]++
		b.adjOff[b.resB[i]+1]++
	}
	b.parent = grow(b.parent, nn)
	for i := range b.parent {
		b.adjOff[i+1] += b.adjOff[i]
		b.parent[i] = b.adjOff[i] // the fill cursor, until the search needs it
	}
	b.adjTo, b.adjR = grow(b.adjTo, 2*len(b.ohms)), grow(b.adjR, 2*len(b.ohms))
	for i, r := range b.ohms {
		x, y := b.resA[i], b.resB[i]
		b.adjTo[b.parent[x]], b.adjR[b.parent[x]] = y, r
		b.parent[x]++
		b.adjTo[b.parent[y]], b.adjR[b.parent[y]] = x, r
		b.parent[y]++
	}
	// Breadth-first orientation from the root.
	for i := range b.parent {
		b.parent[i] = unseen
	}
	b.parentR = grow(b.parentR, nn)
	b.order = append(grow(b.order, nn)[:0], root)
	b.parent[root] = -1
	for h := 0; h < len(b.order); h++ {
		u := b.order[h]
		for e := b.adjOff[u]; e < b.adjOff[u+1]; e++ {
			v := b.adjTo[e]
			if v == u {
				continue
			}
			if b.parent[v] != unseen {
				if v != b.parent[u] {
					return fmt.Errorf("rc: net %q: resistive loop involving node %q", b.name, b.names[v])
				}
				continue
			}
			b.parent[v], b.parentR[v] = u, b.adjR[e]
			b.order = append(b.order, v)
		}
	}
	for i, p := range b.parent {
		if p == unseen {
			return fmt.Errorf("rc: net %q: node %q unreachable from driver", b.name, b.names[i])
		}
	}

	el, m2, rp := db.elmore[n.node0:][:nn], db.m2[n.node0:][:nn], db.rpath[n.node0:][:nn]
	rp[root] = 0
	for _, v := range b.order[1:] {
		rp[v] = rp[b.parent[v]] + b.parentR[v]
	}
	// Each node's effective grounded cap: wire, pin loads, and its coupling
	// caps lumped to ground.
	b.caps, b.sub, b.w2 = grow(b.caps, nn), grow(b.sub, nn), grow(b.w2, nn)
	for i := range b.caps {
		b.caps[i] = b.gcap[i] + b.load[i]
	}
	for k, f := range b.cplF {
		b.caps[b.cplNode[k]] += f
	}
	b.accumulate(b.caps, el)
	// Second moments reuse the same accumulation with weights C_j·m1_j.
	for i := range b.w2 {
		b.w2[i] = b.caps[i] * el[i]
	}
	b.accumulate(b.w2, m2)

	n.maxElmore = 0
	for _, e := range el {
		if e > n.maxElmore {
			n.maxElmore = e
		}
	}
	for k, f := range b.cplF {
		g := &groups[b.cplGroup[k]]
		g.C += f
		g.WireRes += f * rp[b.cplNode[k]]
	}
	for i := range groups {
		if g := &groups[i]; g.C > 0 {
			g.WireRes /= g.C
		} else {
			g.WireRes = 0
		}
	}
	n.reduced = true
	return nil
}

// accumulate computes, for each node v of the oriented tree,
//
//	val(v) = Σ_{edges e on path root→v} R_e · (Σ_{j in subtree below e} w_j)
//
// which is the Elmore form for w = node caps and the second-moment form for
// w = C·m1.
func (b *Builder) accumulate(w, val []float64) {
	copy(b.sub, w)
	// Bottom-up subtree sums: reverse search order visits children first.
	for i := len(b.order) - 1; i >= 1; i-- {
		v := b.order[i]
		b.sub[b.parent[v]] += b.sub[v]
	}
	val[b.order[0]] = 0
	for _, v := range b.order[1:] {
		val[v] = val[b.parent[v]] + b.parentR[v]*b.sub[v]
	}
}
