// Package spef reads and writes a practical subset of the Standard
// Parasitic Exchange Format (IEEE 1481): per-net distributed RC sections
// with cross-coupling capacitors between nets. This is the parasitic data
// model crosstalk analysis runs on.
//
// Supported constructs:
//
//	*SPEF, *DESIGN, *T_UNIT, *C_UNIT, *R_UNIT  (header; units are scaled)
//	*NAME_MAP with *<index> references expanded wherever nodes appear
//	*D_NET <net> <totalCap>
//	*CONN  with *P (port) and *I (instance pin) entries
//	*CAP   with grounded (node cap) and coupling (node other cap) entries
//	*RES
//	*END
//
// Node names are <net>:<index> as produced by extractors; the special node
// equal to the bare net name refers to the net's root (driver) node.
//
// A Parasitics is pointer-free, so the collector never walks it (see
// store.go): a net is a record of spans into flat pin, capacitor and
// resistor tables, its nodes are numbered once when it is stored, and net
// names — its own and its coupling partners' — are IDs into one name
// table. Net is only the value form a generator hands to AddNet.
package spef

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// ConnDir is the direction recorded for a *CONN entry.
type ConnDir uint8

const (
	// DirIn marks a load (input pin of a cell, or design output port).
	DirIn ConnDir = iota
	// DirOut marks a driver (output pin of a cell, or design input port).
	DirOut
)

// String renders the SPEF direction token.
func (d ConnDir) String() string {
	if d == DirOut {
		return "O"
	}
	return "I"
}

// Conn is one *CONN entry: where the net attaches to the logical design.
type Conn struct {
	// Pin is "inst:pin" for instance connections or the port name.
	Pin    string
	IsPort bool
	Dir    ConnDir
	// Node is the RC node the connection lands on: the pin name itself
	// (AddNet rejects any other).
	Node string
}

// CapEntry is a *CAP line. Other == "" means a grounded capacitor; a
// non-empty Other names a node on another net and makes this a coupling
// capacitor.
type CapEntry struct {
	Node  string
	Other string
	F     float64
}

// ResEntry is a *RES line.
type ResEntry struct {
	A, B string
	Ohms float64
}

// Net is the parasitic description of one net, as a generator builds it.
type Net struct {
	Name     string
	TotalCap float64
	Conns    []Conn
	Caps     []CapEntry
	Ress     []ResEntry
}

// NetOfNode extracts the net name from a <net>:<index> node name; a bare
// name maps to itself.
func NetOfNode(node string) string {
	if i := strings.IndexByte(node, ':'); i >= 0 {
		return node[:i]
	}
	return node
}

// Nets returns every net in its value form, sorted by name: for tests
// and tools, never the analysis path, which reads the store by index.
func (p *Parasitics) Nets() []*Net {
	out := make([]*Net, 0, p.NumNets())
	for _, i := range p.byName() {
		out = append(out, p.value(int(i)))
	}
	return out
}

// value rebuilds stored net i as a Net.
func (p *Parasitics) value(i int) *Net {
	v := p.View(i)
	n := &Net{Name: v.Name, TotalCap: v.TotalCap}
	for _, c := range v.Pins {
		pin := v.Node(c.Node)
		n.Conns = append(n.Conns, Conn{Pin: pin, IsPort: c.Port, Dir: c.Dir, Node: pin})
	}
	for k := range v.Caps {
		n.Caps = append(n.Caps, CapEntry{Node: v.Node(v.Caps[k].Node), Other: v.Other(k), F: v.Caps[k].F})
	}
	for _, r := range v.Ress {
		n.Ress = append(n.Ress, ResEntry{A: v.Node(r.A), B: v.Node(r.B), Ohms: r.Ohms})
	}
	return n
}

// byName returns the net indexes in name order.
func (p *Parasitics) byName() []int32 {
	order := make([]int32, p.NumNets())
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(p.NetName(int(a)), p.NetName(int(b))) })
	return order
}

// Write renders the database in the SPEF subset with base SI units.
func Write(w io.Writer, p *Parasitics) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "*SPEF \"IEEE 1481-1998 subset\"\n*DESIGN \"%s\"\n*T_UNIT 1 S\n*C_UNIT 1 F\n*R_UNIT 1 OHM\n", p.Design)
	var b []byte // one net's lines
	for _, i := range p.byName() {
		v := p.View(int(i))
		b = entry(append(b[:0], "*D_NET"...), v.TotalCap, v.Name)
		if len(v.Pins) > 0 {
			b = append(b, "*CONN\n"...)
			for _, c := range v.Pins {
				tag := "*I "
				if c.Port {
					tag = "*P "
				}
				b = append(append(append(append(append(b, tag...), v.Node(c.Node)...), ' '), c.Dir.String()...), '\n')
			}
		}
		if len(v.Caps) > 0 {
			b = append(b, "*CAP\n"...)
			for k, c := range v.Caps {
				if b = strconv.AppendInt(b, int64(k+1), 10); c.Partner < 0 {
					b = entry(b, c.F, v.Node(c.Node))
				} else {
					b = entry(b, c.F, v.Node(c.Node), v.Other(k))
				}
			}
		}
		if len(v.Ress) > 0 {
			b = append(b, "*RES\n"...)
			for k, r := range v.Ress {
				b = entry(strconv.AppendInt(b, int64(k+1), 10), r.Ohms, v.Node(r.A), v.Node(r.B))
			}
		}
		bw.Write(append(b, "*END\n"...))
	}
	return bw.Flush()
}

// entry ends a line: each name and then the value, each after a space,
// the value as %g writes it, and a newline.
func entry(b []byte, value float64, names ...string) []byte {
	for _, n := range names {
		b = append(append(b, ' '), n...)
	}
	return append(strconv.AppendFloat(append(b, ' '), value, 'g', -1, 64), '\n')
}
