package spef

import (
	"fmt"
	"hash/maphash"

	"repro/internal/textio"
)

// Pin is a stored *CONN entry: the node of its net it lands on, which is
// named by the pin.
type Pin struct {
	Node int32
	Dir  ConnDir
	Port bool
}

// Cap is a stored *CAP entry. Partner is the name ID of the coupled net
// (see Parasitics.Name), or -1 for a grounded capacitor.
type Cap struct {
	Node, Partner int32
	F             float64
	other         ref // the coupled node's name, in the net's text
}

// Res is a stored *RES entry between two nodes of its net.
type Res struct {
	A, B int32
	Ohms float64
}

// ref is a name at text[off:off+len] of the text it is relative to.
type ref struct{ off, len uint32 }

// span is the records tab[off:off+n] of a segment's table.
type span struct{ off, n uint32 }

// Sizes counts what one net needs of a bound design's parasitics
// database (rc.Sizes): its nodes, resistors, coupling capacitors, and the
// distinct nets they couple to.
type Sizes struct{ Nodes, Ress, Cpls, Groups int }

// netRec is one stored net: its spans in its segment, its text starting
// at text (the net's name first, then its nodes' and partner nodes').
type netRec struct {
	name, seg               int32 // name ID; the segment holding the rest
	text                    uint32
	nodes, pins, caps, ress span
	cpls, groups            int32
	totalCap                float64
}

// segment holds the records of a run of up to openNets nets. AddNet and
// Parse append to the open one, which is sealed to its exact size when
// full (and by Parse at its end); the next is sized like it.
type segment struct {
	text  []byte
	nodes []ref // relative to the owning net's text
	pins  []Pin
	caps  []Cap
	ress  []Res
	nets  int
	open  bool
}

// openNets is how many nets go in one segment before another is opened,
// which bounds what its growth copies.
const openNets = 4096

// sym is one distinct net name: where its text lies, and the net bearing
// it (index+1, 0 for a name only a coupling mentions).
type sym struct {
	seg      int32
	off, len uint32
	net      int32
}

// slot is one cell of the open-addressed (linear-probe) name table.
type slot struct {
	hash uint32
	sym  uint32 // ID+1; 0 marks an empty slot
}

var hashSeed = maphash.MakeSeed()

// Parasitics is a parasitics database. Nets are numbered 0..NumNets()-1 in
// the order they were stored; every net name it has met, as a net or as a
// coupling partner, has a name ID. Views it hands out stay valid for the
// database's life. It is safe for concurrent readers.
type Parasitics struct {
	Design string

	nets  []netRec
	segs  []segment
	syms  []sym
	slots []slot // len is a power of two, at most 3/4 full

	sets sets
}

// NewParasitics returns an empty database.
func NewParasitics(design string) *Parasitics {
	return &Parasitics{Design: design, slots: make([]slot, 64)}
}

// NumNets returns the number of nets with parasitics.
func (p *Parasitics) NumNets() int { return len(p.nets) }

// Name returns the text of name ID id.
func (p *Parasitics) Name(id int32) string {
	s := &p.syms[id]
	return textio.View(p.segs[s.seg].text[s.off : s.off+s.len])
}

// NetNamed returns the net bearing name ID id, or -1.
func (p *Parasitics) NetNamed(id int32) int { return int(p.syms[id].net) - 1 }

// NetName returns net i's name.
func (p *Parasitics) NetName(i int) string { return p.Name(p.nets[i].name) }

// NameOf returns net i's name ID.
func (p *Parasitics) NameOf(i int) int32 { return p.nets[i].name }

// Sizes returns what net i needs, counted when it was stored.
func (p *Parasitics) Sizes(i int) Sizes {
	r := &p.nets[i]
	return Sizes{Nodes: int(r.nodes.n), Ress: int(r.ress.n), Cpls: int(r.cpls), Groups: int(r.groups)}
}

// NetView is one stored net: views of its records, indexed by node number
// (nodes are numbered in order of first mention — pins, then resistor
// ends, then capacitor nodes). It allocates nothing.
type NetView struct {
	Name     string
	TotalCap float64
	Pins     []Pin
	Caps     []Cap
	Ress     []Res
	nodes    []ref
	text     []byte
}

// View returns net i.
func (p *Parasitics) View(i int) NetView {
	r := &p.nets[i]
	s := &p.segs[r.seg]
	return NetView{
		Name: p.Name(r.name), TotalCap: r.totalCap,
		Pins: s.pins[r.pins.off:][:r.pins.n], Caps: s.caps[r.caps.off:][:r.caps.n], Ress: s.ress[r.ress.off:][:r.ress.n],
		nodes: s.nodes[r.nodes.off:][:r.nodes.n], text: s.text[r.text:],
	}
}

// NumNodes returns the net's node count.
func (v *NetView) NumNodes() int { return len(v.nodes) }

// Node returns the name of node k.
func (v *NetView) Node(k int32) string { return v.name(v.nodes[k]) }

// Other returns the name of the node capacitor k couples to, "" for a
// grounded one.
func (v *NetView) Other(k int) string { return v.name(v.Caps[k].other) }

func (v *NetView) name(r ref) string { return textio.View(v.text[r.off : r.off+r.len]) }

// AddNet stores a net, rejecting duplicates.
func (p *Parasitics) AddNet(n *Net) error {
	for _, c := range n.Conns {
		if c.Node != c.Pin {
			return fmt.Errorf("spef: net %q: connection %q lands on node %q, not its own", n.Name, c.Pin, c.Node)
		}
	}
	return p.store(n)
}

// store is the one commit path, AddNet's and the parser's: it appends net
// n to the open segment, numbering its nodes, and names it and its
// coupling partners. n's strings need live only through the call.
func (p *Parasitics) store(n *Net) error {
	if id, _, _ := p.find(n.Name); id >= 0 && p.syms[id].net != 0 {
		return fmt.Errorf("spef: duplicate net %q", n.Name)
	}
	last := len(p.segs) - 1
	if last < 0 || !p.segs[last].open {
		// A new segment, sized like the last one.
		next := segment{open: true}
		if last >= 0 {
			prev := &p.segs[last]
			next.text, next.nodes, next.pins = make([]byte, 0, len(prev.text)), make([]ref, 0, len(prev.nodes)), make([]Pin, 0, len(prev.pins))
			next.caps, next.ress = make([]Cap, 0, len(prev.caps)), make([]Res, 0, len(prev.ress))
		}
		p.segs = append(p.segs, next)
		last++
	}
	s, si := &p.segs[last], int32(last)
	r := s.add(n, &p.sets)
	r.seg = si
	r.name = p.intern(si, r.text, uint32(len(n.Name)))
	p.syms[r.name].net = int32(len(p.nets)) + 1
	for k := range s.caps[r.caps.off:] {
		if c := &s.caps[int(r.caps.off)+k]; c.other.len > 0 {
			other := textio.View(s.text[r.text+c.other.off:][:c.other.len])
			c.Partner = p.intern(si, r.text+c.other.off, uint32(len(NetOfNode(other))))
		}
	}
	p.nets = append(p.nets, r)
	if s.nets == openNets {
		s.seal()
	}
	return nil
}

// seal trims an open segment's tables to their exact size and closes it.
func (s *segment) seal() {
	s.text, s.nodes, s.pins, s.caps, s.ress = exact(s.text), exact(s.nodes), exact(s.pins), exact(s.caps), exact(s.ress)
	s.open = false
}

// exact returns s, copied if it has spare capacity.
func exact[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

// add appends net n to the segment, numbering its nodes in order of first
// mention: the pins, then the resistor ends, then the capacitor nodes. It
// returns the net's record, but for its name and partners.
func (s *segment) add(n *Net, sets *sets) netRec {
	base := len(s.text)
	r := netRec{text: uint32(base), totalCap: n.TotalCap, nodes: span{off: uint32(len(s.nodes))},
		pins: span{off: uint32(len(s.pins))}, caps: span{off: uint32(len(s.caps))}, ress: span{off: uint32(len(s.ress))}}
	s.text = append(s.text, n.Name...)
	sets.nodes.reset()
	sets.partners.reset()
	node := func(name string) int32 {
		k, fresh := sets.nodes.number(name)
		if fresh {
			s.nodes = append(s.nodes, s.put(base, name))
		}
		return k
	}
	for _, c := range n.Conns {
		s.pins = append(s.pins, Pin{Node: node(c.Pin), Dir: c.Dir, Port: c.IsPort})
	}
	for _, rs := range n.Ress {
		s.ress = append(s.ress, Res{A: node(rs.A), B: node(rs.B), Ohms: rs.Ohms})
	}
	for _, c := range n.Caps {
		cp := Cap{Node: node(c.Node), Partner: -1, F: c.F}
		if c.Other != "" {
			cp.other = s.put(base, c.Other)
			r.cpls++
			if _, fresh := sets.partners.number(NetOfNode(c.Other)); fresh {
				r.groups++
			}
		}
		s.caps = append(s.caps, cp)
	}
	r.nodes.n, r.pins.n = uint32(len(s.nodes))-r.nodes.off, uint32(len(s.pins))-r.pins.off
	r.caps.n, r.ress.n = uint32(len(s.caps))-r.caps.off, uint32(len(s.ress))-r.ress.off
	s.nets++
	return r
}

// put appends name to the text and returns its ref relative to base.
func (s *segment) put(base int, name string) ref {
	r := ref{off: uint32(len(s.text) - base), len: uint32(len(name))}
	s.text = append(s.text, name...)
	return r
}

// find returns the name ID of name, or -1 with name's hash and the empty
// slot it would take.
func (p *Parasitics) find(name string) (id int32, h, i uint32) {
	h = uint32(maphash.String(hashSeed, name))
	mask := uint32(len(p.slots) - 1)
	for i = h & mask; p.slots[i].sym != 0; i = (i + 1) & mask {
		if id := int32(p.slots[i].sym - 1); p.slots[i].hash == h && p.Name(id) == name {
			return id, h, i
		}
	}
	return -1, h, i
}

// intern returns the name ID of the text at segs[si].text[off:off+n],
// adding one that points there when the name is new.
func (p *Parasitics) intern(si int32, off, n uint32) int32 {
	id, h, i := p.find(textio.View(p.segs[si].text[off:][:n]))
	if id >= 0 {
		return id
	}
	p.syms = append(p.syms, sym{seg: si, off: off, len: n})
	p.slots[i] = slot{hash: h, sym: uint32(len(p.syms))}
	if 4*len(p.syms) > 3*len(p.slots) {
		old := p.slots
		p.slots = make([]slot, 2*len(old))
		mask := uint32(len(p.slots) - 1)
		for _, sl := range old {
			if sl.sym == 0 {
				continue
			}
			j := sl.hash & mask
			for p.slots[j].sym != 0 {
				j = (j + 1) & mask
			}
			p.slots[j] = sl
		}
	}
	return int32(len(p.syms) - 1)
}

// sets is the working memory of segment.add: one net's nodes, and the
// nets its capacitors couple to.
type sets struct{ nodes, partners nameSet }

// nameSet numbers the distinct names of one net in order of first
// mention: a scan while there are few, a map beyond. It holds the names
// it is given until the next reset.
type nameSet struct {
	names []string
	index map[string]int32 // used past scanNames
}

// scanNames is the name count up to which finding one is a scan.
const scanNames = 16

func (s *nameSet) reset() {
	if len(s.names) > scanNames {
		clear(s.index)
	}
	s.names = s.names[:0]
}

// number returns the number of name, and whether it is new.
func (s *nameSet) number(name string) (int32, bool) {
	if len(s.names) <= scanNames {
		for k, nm := range s.names {
			if nm == name {
				return int32(k), false
			}
		}
	} else if k, ok := s.index[name]; ok {
		return k, false
	}
	k := int32(len(s.names))
	if s.names = append(s.names, name); k == scanNames {
		if s.index == nil {
			s.index = make(map[string]int32)
		}
		for j, nm := range s.names {
			s.index[nm] = int32(j)
		}
	} else if k > scanNames {
		s.index[name] = k
	}
	return k, true
}
