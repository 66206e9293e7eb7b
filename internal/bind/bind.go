// Package bind composes the three input databases — the logical netlist,
// the cell library, and the extracted parasitics — into one resolved design
// the timing and noise engines analyze.
//
// Binding resolves every instance to its library cell, checks pin
// directions, builds an rc.Network per net (from SPEF when present,
// otherwise a lumped stand-in), and attaches receiver pin capacitances at
// the right RC nodes. SPEF node names follow the extractor convention
// "inst:pin" for instance connections and the bare port name for ports.
package bind

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/rc"
	"repro/internal/spef"
)

// Design is the resolved, analyzable view of one design. After New it is
// immutable apart from two guarded caches (the RC analysis cache here
// and the netlist's levelization cache), so it is safe for concurrent
// readers: parallel timing and noise analysis — and since the
// levelization became cached, even multiple concurrent engines — can
// share one Design.
//
// Per-net state is stored densely, indexed by netlist.Net.ID, so the
// hot paths resolve a net's parasitics with a slice index instead of a
// string-map lookup.
type Design struct {
	Net *netlist.Design
	Lib *liberty.Library

	nets  []*rc.Network   // indexed by netlist.Net.ID()
	cells []*liberty.Cell // indexed by netlist.Inst.ID()
	// analyses caches each net's RC analysis by netlist.Net.ID(), nil
	// until computed. One atomic slot per net, so the parallel STA and
	// the per-victim workers, which all read it, share no lock.
	analyses []atomic.Pointer[rc.Analysis]
}

// parallelBelow is the object count under which New's loops stay serial:
// a few hundred nets bind in well under a millisecond, less than waking
// the workers costs.
const parallelBelow = 1024

// PinNode returns the RC node name a connection lands on.
func PinNode(c *netlist.Conn) string {
	if c.Inst == nil {
		return c.Port
	}
	return c.Inst.Name + ":" + c.Pin
}

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
		Net:      d,
		Lib:      lib,
		nets:     make([]*rc.Network, d.NumNets()),
		cells:    make([]*liberty.Cell, d.NumInsts()),
		analyses: make([]atomic.Pointer[rc.Analysis], d.NumNets()),
	}
	// Both loops fan out over the cores: an iteration reads the
	// (immutable) databases and writes only its own instance's or net's
	// slot, and the first error in name order wins, as in a serial loop.
	ctx, workers := context.TODO(), runtime.GOMAXPROCS(0)
	// Resolve instances against the library and check pin directions.
	insts := d.Insts()
	err := par.For(ctx, len(insts), workers, parallelBelow, func(i int) error {
		inst := insts[i]
		cell, err := lib.ResolveCell(inst.Name, inst.Cell)
		if err != nil {
			return fmt.Errorf("bind: %w", err)
		}
		// Pin-name order, so an instance with two bad pins reports the
		// same one on every run.
		for _, conn := range inst.Pins() {
			pin := cell.Pin(conn.Pin)
			if pin == nil {
				return fmt.Errorf("bind: %s.%s: cell %s has no such pin", inst.Name, conn.Pin, cell.Name)
			}
			wantOut := pin.Dir == liberty.Output
			isOut := conn.Dir == netlist.Out
			if wantOut != isOut {
				return fmt.Errorf("bind: %s.%s: direction mismatch with cell %s", inst.Name, conn.Pin, cell.Name)
			}
		}
		b.cells[inst.ID()] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Build an RC network per net.
	nets := d.Nets()
	err = par.For(ctx, len(nets), workers, parallelBelow, func(i int) error {
		net := nets[i]
		var nw *rc.Network
		if p != nil {
			if sn := p.Net(net.Name); sn != nil {
				var err error
				nw, err = rc.FromSPEF(sn)
				if err != nil {
					return err
				}
			}
		}
		if nw == nil {
			nw = lumpedNetwork(net)
		}
		// Attach receiver pin capacitances at their nodes.
		for _, lc := range net.Loads() {
			if lc.Inst == nil {
				continue // output port: no pin cap
			}
			pin := b.cells[lc.Inst.ID()].Pin(lc.Pin)
			node := PinNode(lc)
			if !nw.HasNode(node) {
				// Extractor omitted the pin node; lump the cap at the
				// driver so it still loads the net.
				node = nw.Root()
			}
			nw.AddLoadCap(node, pin.Cap)
		}
		b.nets[net.ID()] = nw
		return nil
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

// lumpedNetwork synthesizes a single-node network for a net without
// extracted parasitics: driver and loads share one node, wire cap zero.
func lumpedNetwork(net *netlist.Net) *rc.Network {
	nw := rc.NewNetwork(net.Name)
	drv := net.Driver()
	root := "root"
	if drv != nil {
		root = PinNode(drv)
	}
	nw.SetRoot(root)
	for _, lc := range net.Loads() {
		// Loads sit on the root node (zero wire resistance); interning
		// their names keeps PinNode lookups working.
		node := PinNode(lc)
		if node != root {
			nw.AddRes(root, node, 1e-3) // negligible series resistance
		}
	}
	return nw
}

// NetworkOf returns the RC network of a net of the bound netlist.
func (b *Design) NetworkOf(n *netlist.Net) *rc.Network {
	return b.nets[n.ID()]
}

// AnalysisOf returns the (cached) RC tree analysis of a net of the bound
// netlist. It is safe to call from concurrent goroutines: two callers
// racing on a cold net both compute the same analysis and either copy
// serves every later call.
func (b *Design) AnalysisOf(n *netlist.Net) (*rc.Analysis, error) {
	slot := &b.analyses[n.ID()]
	if a := slot.Load(); a != nil {
		return a, nil
	}
	a, err := b.nets[n.ID()].Analyze()
	if err != nil {
		return nil, err
	}
	slot.Store(a)
	return a, nil
}

// Cell resolves an instance's library cell (known valid after New).
func (b *Design) Cell(inst *netlist.Inst) *liberty.Cell {
	return b.cells[inst.ID()]
}

// DriverCell returns the cell and connection driving a net, or nil for
// port-driven nets.
func (b *Design) DriverCell(net *netlist.Net) (*liberty.Cell, *netlist.Conn) {
	drv := net.Driver()
	if drv == nil || drv.Inst == nil {
		return nil, drv
	}
	return b.Cell(drv.Inst), drv
}

// WireDelayTo returns the Elmore delay from a net's driver to a load
// connection's pin node.
func (b *Design) WireDelayTo(lc *netlist.Conn) (float64, error) {
	a, err := b.AnalysisOf(lc.Net)
	if err != nil {
		return 0, err
	}
	node := PinNode(lc)
	nw := b.NetworkOf(lc.Net)
	if !nw.HasNode(node) {
		// Pin cap was lumped at the driver; no extra wire delay.
		return 0, nil
	}
	return a.ElmoreTo(node)
}

// HoldRes returns the holding resistance of a net's driver — the quiet
// victim's fight against injected charge. Port-driven nets use a strong
// default (the tester's source impedance) of 50 Ω.
func (b *Design) HoldRes(net *netlist.Net) float64 {
	cell, _ := b.DriverCell(net)
	if cell == nil {
		return 50
	}
	return cell.HoldRes
}

// DriveRes returns the switching drive resistance of a net's driver, with
// the same 50 Ω default for ports.
func (b *Design) DriveRes(net *netlist.Net) float64 {
	cell, _ := b.DriverCell(net)
	if cell == nil {
		return 50
	}
	return cell.DriveRes
}
