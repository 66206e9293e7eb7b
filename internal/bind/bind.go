// Package bind composes the three input databases — the logical netlist,
// the cell library, and the extracted parasitics — into one resolved design
// the timing and noise engines analyze.
//
// Binding resolves every instance to its library cell, checks pin
// directions, and compiles the parasitics into one rc.DB: each net's RC
// tree (from SPEF when present, otherwise a lumped stand-in) with receiver
// pin capacitances attached at the right nodes, every connection resolved
// to its node, every coupling resolved to its partner net, and the tree
// reduction done. SPEF node names follow the extractor convention
// "inst:pin" for instance connections and the bare port name for ports;
// past New nothing is looked up by name.
package bind

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/rc"
	"repro/internal/spef"
)

// Design is the resolved, analyzable view of one design. After New it is
// immutable apart from the netlist's guarded levelization cache, so it is
// safe for concurrent readers: parallel timing and noise analysis, even
// multiple concurrent engines, can share one Design. Per-net, per-instance
// and per-connection state is stored densely, indexed by the netlist's IDs.
type Design struct {
	Net *netlist.Design
	Lib *liberty.Library

	cells []*liberty.Cell // indexed by netlist.InstID
	rc    *rc.DB          // every net's parasitics, by netlist.NetID
	// connNode is the node of its net each connection lands on, by
	// netlist.ConnID; -1 for a pin the extractor omitted, whose cap is
	// lumped at the driver.
	connNode []int32
	// The rare leftovers of binding by name: why a net's tree reduction
	// failed, by net ID, and the names of coupling partners the netlist
	// does not have, by victim net ID << 32 | index in Couplings.
	fails     map[netlist.NetID]error
	strangers map[int64]string
}

// parallelBelow is the object count under which New's loops stay serial:
// a few hundred nets bind in well under a millisecond, less than waking
// the workers costs.
const parallelBelow = 1024

// New binds the databases. Parasitics may be nil; nets absent from the
// parasitics get a lumped zero-resistance network carrying only pin loads.
func New(d *netlist.Design, lib *liberty.Library, p *spef.Parasitics) (*Design, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := lib.Validate(); err != nil {
		return nil, err
	}
	b := &Design{
		Net:       d,
		Lib:       lib,
		cells:     make([]*liberty.Cell, d.NumInsts()),
		connNode:  make([]int32, d.NumConns()),
		fails:     make(map[netlist.NetID]error),
		strangers: make(map[int64]string),
	}
	// The loops fan out over the cores: an iteration reads the (immutable)
	// databases and writes only its own instance's or net's slots, and the
	// first error in name order wins, as in a serial loop.
	ctx, workers := context.TODO(), runtime.GOMAXPROCS(0)
	// Resolve instances against the library and check pin directions.
	insts := d.Insts()
	err := par.For(ctx, len(insts), workers, parallelBelow, func(i int) error {
		inst := insts[i]
		cell, err := lib.ResolveCell(d.InstName(inst), d.CellName(inst))
		if err != nil {
			return fmt.Errorf("bind: %w", err)
		}
		// Pin-name order, so an instance with two bad pins reports the
		// same one on every run.
		for _, conn := range d.Pins(inst) {
			pin := cell.Pin(d.Pin(conn))
			if pin == nil {
				return fmt.Errorf("bind: %s: cell %s has no such pin", d.ConnName(conn), cell.Name)
			}
			wantOut := pin.Dir == liberty.Output
			isOut := d.Conn(conn).Dir == netlist.Out
			if wantOut != isOut {
				return fmt.Errorf("bind: %s: direction mismatch with cell %s", d.ConnName(conn), cell.Name)
			}
		}
		b.cells[inst] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Pair each extracted net with its netlist net, and size the database
	// from the counts the parse took.
	nets := d.Nets()
	extracted := make([]int32, d.NumNets()) // extracted net index+1, 0 for none
	if p != nil {
		// Cannot fail: every iteration returns nil, and ctx is never done.
		_ = par.For(ctx, p.NumNets(), workers, parallelBelow, func(i int) error {
			if net := d.FindNet(p.NetName(i)); net >= 0 {
				extracted[net] = int32(i) + 1
			}
			return nil
		})
	}
	sizes := make([]rc.Sizes, d.NumNets())
	for net, x := range extracted {
		if x > 0 {
			sizes[net] = rc.Sizes(p.Sizes(int(x - 1)))
		} else {
			// Lumped: the driver's node, and one per load behind a
			// negligible resistor.
			loads := len(d.Loads(netlist.NetID(net)))
			sizes[net] = rc.Sizes{Nodes: 1 + loads, Ress: loads}
		}
	}
	if b.rc, err = rc.NewDB(sizes); err != nil {
		return nil, err
	}
	// Assemble, resolve and reduce every net.
	var mu sync.Mutex                              // guards fails and strangers
	scratch := make([]netScratch, max(workers, 1)) // one per worker
	return b, par.ForWorker(ctx, len(nets), workers, parallelBelow, func(w, i int) error {
		var sn *spef.NetView
		if x := extracted[nets[i]]; x > 0 {
			v := p.View(int(x - 1))
			sn = &v
		}
		return b.compile(nets[i], sn, &scratch[w], &mu)
	})
}

// netScratch is what one worker reuses from net to net: the builder, and
// the "inst:pin" a connection is looked up as.
type netScratch struct {
	rc.Builder
	pin []byte
}

// compile assembles a net — from its extracted parasitics, nodes as the
// parse numbered them and rooted at the first driver (*CONN direction O)
// entry, or as a lumped stand-in — resolves its connections to nodes,
// attaches the receiver pin capacitances, commits it, reduced, to the
// database, and resolves its coupling partners to nets. What names leave
// behind goes in under mu.
func (b *Design) compile(net netlist.NetID, sn *spef.NetView, nb *netScratch, mu *sync.Mutex) error {
	d, root := b.Net, int32(0)
	if sn == nil {
		nb.Reset(d.NetName(net))
		nb.SetRoot(nb.Anon())
		if drv := d.Driver(net); drv >= 0 {
			b.connNode[drv] = root
		}
		for _, lc := range d.Loads(net) {
			b.connNode[lc] = nb.Anon()
			nb.AddRes(root, b.connNode[lc], 1e-3)
		}
	} else {
		nb.Reset(sn.Name)
		for k := range sn.NumNodes() {
			nb.Named(sn.Node(int32(k)))
		}
		i := slices.IndexFunc(sn.Pins, func(c spef.Pin) bool { return c.Dir == spef.DirOut })
		if i < 0 {
			return fmt.Errorf("rc: net %q has no driver connection", sn.Name)
		}
		root = sn.Pins[i].Node
		nb.SetRoot(root)
		for _, r := range sn.Ress {
			nb.AddRes(r.A, r.B, r.Ohms)
		}
		for k, c := range sn.Caps {
			if c.Partner < 0 {
				nb.AddCap(c.Node, c.F)
			} else {
				nb.AddCoupling(c.Node, spef.NetOfNode(sn.Other(k)), c.F)
			}
		}
		for _, c := range d.NetConns(net) {
			// The extractor names a connection's node "inst:pin", or by
			// the bare port name.
			if inst := d.Conn(c).Inst; inst >= 0 {
				nb.pin = append(append(append(nb.pin[:0], d.InstName(inst)...), ':'), d.Pin(c)...)
				b.connNode[c] = rc.Find(&nb.Builder, nb.pin)
			} else {
				b.connNode[c] = rc.Find(&nb.Builder, d.Pin(c))
			}
		}
	}
	for _, lc := range d.Loads(net) {
		inst := d.Conn(lc).Inst
		if inst < 0 {
			continue // output port: no pin cap
		}
		node := b.connNode[lc]
		if node < 0 {
			// Extractor omitted the pin node; lump the cap at the
			// driver so it still loads the net.
			node = root
		}
		nb.AddLoadCap(node, b.cells[inst].Pin(d.Pin(lc)).Cap)
	}
	failed := nb.Commit(b.rc, int32(net))
	groups := b.rc.Groups(int32(net))
	for g, name := range nb.Partners() {
		groups[g].Agg = int32(d.FindNet(name))
		if groups[g].Agg < 0 {
			mu.Lock()
			b.strangers[int64(net)<<32|int64(g)] = strings.Clone(name)
			mu.Unlock()
		}
	}
	if failed != nil {
		mu.Lock()
		b.fails[net] = failed
		mu.Unlock()
	}
	return nil
}

// NetworkOf returns the RC record of a net of the bound netlist: its
// capacitances, and the scalars of its tree reduction.
func (b *Design) NetworkOf(n netlist.NetID) *rc.Network { return b.rc.Net(int32(n)) }

// AnalysisOf returns the RC tree analysis of a net of the bound netlist,
// computed by New, or the reason the net's resistors could not be reduced.
func (b *Design) AnalysisOf(n netlist.NetID) (rc.Analysis, error) {
	if !b.rc.Net(int32(n)).Reduced() {
		return rc.Analysis{}, b.fails[n]
	}
	return b.rc.Analysis(int32(n)), nil
}

// NodeOf returns the node of its net a connection lands on, or -1 for a
// pin the extractor omitted (its cap is lumped at the driver).
func (b *Design) NodeOf(c netlist.ConnID) int32 { return b.connNode[c] }

// Couplings returns a net's couplings grouped per partner net, ordered by
// partner name. A group's Agg is the partner's net ID, or -1 when the
// netlist has no such net; Stranger then gives its name.
func (b *Design) Couplings(n netlist.NetID) []rc.Group { return b.rc.Groups(int32(n)) }

// Stranger names the partner of net n's i-th coupling group when the
// netlist does not have it.
func (b *Design) Stranger(n netlist.NetID, i int) string {
	return b.strangers[int64(n)<<32|int64(i)]
}

// Cell resolves an instance's library cell (known valid after New).
func (b *Design) Cell(inst netlist.InstID) *liberty.Cell {
	return b.cells[inst]
}

// DriverCell returns the cell driving a net, or nil for port-driven and
// undriven nets.
func (b *Design) DriverCell(net netlist.NetID) *liberty.Cell {
	if inst := b.Net.DriverInst(net); inst >= 0 {
		return b.cells[inst]
	}
	return nil
}

// WireDelayTo returns the Elmore delay from a net's driver to a load
// connection's pin node.
func (b *Design) WireDelayTo(lc netlist.ConnID) (float64, error) {
	a, err := b.AnalysisOf(b.Net.Conn(lc).Net)
	if err != nil {
		return 0, err
	}
	node := b.connNode[lc]
	if node < 0 {
		// Pin cap was lumped at the driver; no extra wire delay.
		return 0, nil
	}
	return a.Elmore(node), nil
}

// HoldRes returns the holding resistance of a net's driver — the quiet
// victim's fight against injected charge. Port-driven nets use a strong
// default (the tester's source impedance) of 50 Ω.
func (b *Design) HoldRes(net netlist.NetID) float64 {
	cell := b.DriverCell(net)
	if cell == nil {
		return 50
	}
	return cell.HoldRes
}

// DriveRes returns the switching drive resistance of a net's driver, with
// the same 50 Ω default for ports.
func (b *Design) DriveRes(net netlist.NetID) float64 {
	cell := b.DriverCell(net)
	if cell == nil {
		return 50
	}
	return cell.DriveRes
}
