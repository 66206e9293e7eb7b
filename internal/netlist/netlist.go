// Package netlist implements the gate-level design database: cells
// referenced by name, instances, pins, nets, and top-level ports, plus the
// graph algorithms the analyses need (levelization, combinational-loop
// detection, fanin/fanout traversal).
//
// The package is deliberately independent of the cell library: pin
// directions are recorded at connect time, and cell names are resolved
// against a liberty.Library only by the analysis layers. This keeps the
// design database usable for structural tooling (generators, format
// conversion) without library bindings.
//
// Storage is index-linked and pointer-free, so the collector never scans
// it: nets, instances, connections and ports are records in chunked
// tables, named by dense creation-order IDs that double as indexes for
// side tables; records refer to each other by ID, connection lists are
// ranges of one ID pool, and names are ranges of one append-only name
// arena, found through one name index (see sym). The design copies every
// name once, so callers may pass views of a read buffer. Driver, load and
// pin-direction lists are kept at build time, so the analysis layers
// traverse the graph allocation-free and, once it is built, concurrently;
// a slice an accessor returns is a view callers must not modify. The
// builder methods (AddPort, AddInst, Net, Connect, ConnectPin, Compact)
// are not safe for concurrent use; every read-side accessor is.
package netlist

import (
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"sync"
	"unsafe"
)

// Dir is the direction of a pin or port from the perspective of the
// instance (an Output pin drives its net) or of the design (an In port
// drives its net from outside).
type Dir uint8

const (
	// In marks a pin that reads its net, or a port through which the
	// outside drives the design.
	In Dir = iota
	// Out marks a pin that drives its net, or a port through which the
	// design drives the outside.
	Out
)

// String returns "in" or "out".
func (d Dir) String() string {
	if d == Out {
		return "out"
	}
	return "in"
}

// NetID, InstID, ConnID and PortID name a design's nets, instances,
// connections and ports: dense creation-order indexes, stable for the
// life of the design, in [0, NumNets) and so on. -1 is none.
type (
	NetID  int32
	InstID int32
	ConnID int32
	PortID int32
)

// Conn is one connection of an instance pin or design port to a net.
type Conn struct {
	Inst InstID // -1 for a top-level port connection
	Net  NetID
	pin  int32 // symbol of the pin name, or of the port name for a port
	Dir  Dir
}

// Driver reports whether this connection drives the net: an instance
// output pin, or a design input port.
func (c Conn) Driver() bool { return (c.Inst < 0) == (c.Dir == In) }

// Port is a top-level design port as the design stores it.
type Port struct {
	Conn ConnID // the port's connection to the net of its name
	Dir  Dir
}

// span is the connection list pool[off:off+n], with room for cap.
type span struct{ off, n, cap int32 }

type netRec struct {
	name         int32 // symbol
	drv          ConnID
	conns, loads span // every connection in insertion order; the non-driving ones
}

type instRec struct {
	name, cell int32 // symbols
	nIn        int32 // pins[:nIn] are the inputs
	pins       span  // inputs, then outputs, each sorted by pin name
}

// arena is a chunked table: one heap allocation per chunk, not per
// record. Only the first chunk grows by copying, up to arenaChunk, so a
// small design holds a small table; records are numbered in allocation
// order, so an arena maps a dense ID to its record. No record's address
// is kept across an alloc.
type arena[T any] struct {
	chunks [][]T
	n      int // records allocated
}

const arenaChunk = 4096

// at returns record number i; out of range, it panics like an index.
func (a *arena[T]) at(i int) *T { return &a.chunks[i/arenaChunk][i%arenaChunk] }

// alloc appends r as record number a.n-1.
func (a *arena[T]) alloc(r T) {
	switch {
	case a.n == 0:
		a.chunks = append(a.chunks, make([]T, 0, 16))
	case a.n == len(a.chunks)*arenaChunk:
		a.chunks = append(a.chunks, make([]T, 0, arenaChunk))
	case a.n == cap(a.chunks[0]):
		a.chunks[0] = append(make([]T, 0, min(2*a.n, arenaChunk)), a.chunks[0]...)
	}
	c := &a.chunks[len(a.chunks)-1]
	*c = append(*c, r)
	a.n++
}

// sym is one distinct name: where its one copy lies in the name arena, and
// the object of each kind that bears it. Nets, instances and ports are
// separate name spaces sharing one table, so a loader hashes a name once;
// pin and cell names go through it too, so equal names share one copy.
type sym struct {
	chunk, off, len uint32 // names[chunk][off:off+len]
	net, inst, port int32  // ID+1 of the bearer, 0 for none
}

// slot is one cell of the open-addressed (linear-probe) name table.
type slot struct {
	hash uint32
	sym  uint32 // number of the symbol in syms, +1; 0 marks an empty slot
}

// nameChunk caps a name arena chunk's size; a longer name gets its own.
const nameChunk = 64 << 10

var hashSeed = maphash.MakeSeed()

// Design is the netlist database. Construct with New and the Add/Connect
// builder methods, then call Validate before analysis.
type Design struct {
	Name string

	syms  arena[sym]
	slots []slot // len is a power of two, at most 3/4 full
	// names is the name arena. A chunk only ever grows into its spare
	// capacity, so the bytes a name view points at are never rewritten.
	names [][]byte

	// The records, each numbered by its dense creation-order ID.
	nets  arena[netRec]
	insts arena[instRec]
	conns arena[Conn]
	ports arena[Port]
	// pool holds every connection list. A full list moves to the end with
	// twice the room (see push); Compact repacks the pool exactly.
	pool []ConnID

	// version counts builder mutations; the caches below are keyed on it.
	version uint64

	cache struct {
		sync.Mutex
		sortedVer uint64
		ports     []PortID
		nets      []NetID
		insts     []InstID
		levVer    uint64
		lev       *Levelization
	}
}

// New returns an empty design.
func New(name string) *Design {
	return &Design{Name: name, slots: make([]slot, 64)}
}

// lookup returns the number of name's symbol. A name the design has not
// seen is added when add is set — copied, so name may be a view of a
// buffer the caller reuses — and -1 is returned otherwise.
func (d *Design) lookup(name string, add bool) int32 {
	h := uint32(maphash.String(hashSeed, name))
	mask := uint32(len(d.slots) - 1)
	i := h & mask
	for ; d.slots[i].sym != 0; i = (i + 1) & mask {
		if d.slots[i].hash == h {
			if s := int32(d.slots[i].sym - 1); d.symName(s) == name {
				return s
			}
		}
	}
	if !add {
		return -1
	}
	d.syms.alloc(d.store(name))
	d.slots[i] = slot{hash: h, sym: uint32(d.syms.n)}
	if 4*d.syms.n > 3*len(d.slots) {
		old := d.slots
		d.slots = make([]slot, 2*len(old))
		mask = uint32(len(d.slots) - 1)
		for _, sl := range old {
			if sl.sym != 0 {
				i := sl.hash & mask
				for d.slots[i].sym != 0 {
					i = (i + 1) & mask
				}
				d.slots[i] = sl
			}
		}
	}
	return int32(d.syms.n - 1)
}

// store copies name into the name arena and returns a symbol for it.
func (d *Design) store(name string) sym {
	last := len(d.names) - 1
	if last < 0 || cap(d.names[last])-len(d.names[last]) < len(name) {
		room := nameChunk >> max(6-len(d.names), 0) // 1 KiB, 2 KiB, ... 64 KiB
		d.names = append(d.names, make([]byte, 0, max(room, len(name))))
		last++
	}
	c := d.names[last]
	d.names[last] = append(c, name...)
	return sym{chunk: uint32(last), off: uint32(len(c)), len: uint32(len(name))}
}

// symName returns the text of symbol s: a view of the name arena, so it
// allocates nothing.
func (d *Design) symName(s int32) string {
	y := d.syms.at(int(s))
	return unsafe.String(unsafe.SliceData(d.names[y.chunk][y.off:]), y.len)
}

// AddPort declares a top-level port and connects it to the net of the same
// name (created if needed). It errors on duplicates.
func (d *Design) AddPort(name string, dir Dir) (PortID, error) {
	s := d.lookup(name, true)
	if d.syms.at(int(s)).port != 0 {
		return -1, fmt.Errorf("netlist: duplicate port %q", name)
	}
	d.version++
	c := d.addConn(Conn{Inst: -1, Net: d.Net(name), pin: s, Dir: dir})
	p := PortID(d.ports.n)
	d.ports.alloc(Port{Conn: c, Dir: dir})
	d.syms.at(int(s)).port = int32(p) + 1
	return p, nil
}

// AddInst declares an instance of the named cell. It errors on duplicates.
func (d *Design) AddInst(name, cell string) (InstID, error) {
	s := d.lookup(name, true)
	if d.syms.at(int(s)).inst != 0 {
		return -1, fmt.Errorf("netlist: duplicate instance %q", name)
	}
	d.version++
	i := InstID(d.insts.n)
	d.insts.alloc(instRec{name: s, cell: d.lookup(cell, true)})
	d.syms.at(int(s)).inst = int32(i) + 1
	return i, nil
}

// Net returns the net with the given name, creating it on first use.
func (d *Design) Net(name string) NetID {
	s := d.lookup(name, true)
	y := d.syms.at(int(s))
	if y.net != 0 {
		return NetID(y.net - 1)
	}
	d.version++
	n := NetID(d.nets.n)
	d.nets.alloc(netRec{name: s, drv: -1})
	y.net = int32(n) + 1
	return n
}

// FindNet, FindInst and FindPort return the named net, instance or port,
// or -1.
func (d *Design) FindNet(name string) NetID   { return NetID(d.find(name).net - 1) }
func (d *Design) FindInst(name string) InstID { return InstID(d.find(name).inst - 1) }
func (d *Design) FindPort(name string) PortID { return PortID(d.find(name).port - 1) }

// find returns name's symbol, or one no object bears.
func (d *Design) find(name string) sym {
	if s := d.lookup(name, false); s >= 0 {
		return *d.syms.at(int(s))
	}
	return sym{}
}

// Connect attaches pin pin of instance inst to net net with direction dir.
// The net is created if needed. It errors if the instance is unknown or the
// pin is already connected.
func (d *Design) Connect(inst, pin, net string, dir Dir) error {
	i := d.FindInst(inst)
	if i < 0 {
		return fmt.Errorf("netlist: connect to unknown instance %q", inst)
	}
	return d.ConnectPin(i, pin, net, dir)
}

// ConnectPin is Connect for a caller that holds the instance, as a loader
// reading an instance's connections does.
func (d *Design) ConnectPin(i InstID, pin, net string, dir Dir) error {
	if d.PinConn(i, pin) >= 0 {
		return fmt.Errorf("netlist: pin %s.%s already connected", d.InstName(i), pin)
	}
	d.version++
	c := d.addConn(Conn{Inst: i, Net: d.Net(net), pin: d.lookup(pin, true), Dir: dir})
	// Insertion sort by pin name within the pin's direction: pin counts
	// are tiny and this keeps the sorted views always valid.
	r := d.insts.at(int(i))
	k, end := int32(0), r.nIn
	if dir == Out {
		k, end = end, r.pins.n
	} else {
		r.nIn++
	}
	for k < end && d.Pin(d.pool[r.pins.off+k]) < pin {
		k++
	}
	d.push(&r.pins, c)
	pins := d.list(r.pins)
	copy(pins[k+1:], pins[k:])
	pins[k] = c
	return nil
}

// addConn stores c and puts it on its net's lists.
func (d *Design) addConn(c Conn) ConnID {
	id := ConnID(d.conns.n)
	d.conns.alloc(c)
	n := d.nets.at(int(c.Net))
	d.push(&n.conns, id)
	if !c.Driver() {
		d.push(&n.loads, id)
	} else if n.drv < 0 {
		n.drv = id
	}
	return id
}

// push appends c to list r. A full list moves to the end of the pool with
// twice its room; the room it leaves behind is reclaimed by Compact.
func (d *Design) push(r *span, c ConnID) {
	if r.n == r.cap {
		room := max(2, 2*r.n)
		off := len(d.pool)
		d.pool = slices.Grow(d.pool, int(room))[:off+int(room)]
		copy(d.pool[off:], d.list(*r))
		r.off, r.cap = int32(off), room
	}
	d.pool[r.off+r.n] = c
	r.n++
}

// list returns r's connections, clipped so an append cannot clobber.
func (d *Design) list(r span) []ConnID { return d.pool[r.off : r.off+r.n : r.off+r.n] }

// Conn returns connection c.
func (d *Design) Conn(c ConnID) Conn { return *d.conns.at(int(c)) }

// Pin returns the name of connection c's pin, or of its port.
func (d *Design) Pin(c ConnID) string { return d.symName(d.conns.at(int(c)).pin) }

// ConnName identifies connection c for messages, e.g. "u3.Y" or
// "port clk".
func (d *Design) ConnName(c ConnID) string {
	if i := d.conns.at(int(c)).Inst; i >= 0 {
		return d.InstName(i) + "." + d.Pin(c)
	}
	return "port " + d.Pin(c)
}

// NetName returns net n's name.
func (d *Design) NetName(n NetID) string { return d.symName(d.nets.at(int(n)).name) }

// NetConns returns net n's connections in insertion order.
func (d *Design) NetConns(n NetID) []ConnID { return d.list(d.nets.at(int(n)).conns) }

// Driver returns net n's first driving connection, or -1 if the net is
// undriven. Validate enforces uniqueness.
func (d *Design) Driver(n NetID) ConnID { return d.nets.at(int(n)).drv }

// DriverInst returns the instance driving net n, or -1 (none, or a port).
func (d *Design) DriverInst(n NetID) InstID {
	if drv := d.Driver(n); drv >= 0 {
		return d.conns.at(int(drv)).Inst
	}
	return -1
}

// Loads returns net n's non-driving connections in insertion order.
func (d *Design) Loads(n NetID) []ConnID { return d.list(d.nets.at(int(n)).loads) }

// InstName returns instance i's name.
func (d *Design) InstName(i InstID) string { return d.symName(d.insts.at(int(i)).name) }

// CellName returns the name of instance i's library cell.
func (d *Design) CellName(i InstID) string { return d.symName(d.insts.at(int(i)).cell) }

// Inputs and Outputs return instance i's input or output connections,
// sorted by pin name.
func (d *Design) Inputs(i InstID) []ConnID {
	r := d.insts.at(int(i))
	return d.list(r.pins)[:r.nIn:r.nIn]
}

func (d *Design) Outputs(i InstID) []ConnID {
	r := d.insts.at(int(i))
	return d.list(r.pins)[r.nIn:]
}

// PinConn returns the connection of instance i's named pin, or -1.
// Instances have a handful of pins, so a scan beats any index.
func (d *Design) PinConn(i InstID, pin string) ConnID {
	for _, c := range d.list(d.insts.at(int(i)).pins) {
		if d.Pin(c) == pin {
			return c
		}
	}
	return -1
}

// Pins returns every connection of instance i in pin-name order, whatever
// its direction.
func (d *Design) Pins(i InstID) []ConnID {
	r := d.insts.at(int(i))
	pins := d.list(r.pins)
	if n := r.nIn; n == 0 || n == r.pins.n || d.Pin(pins[n-1]) < d.Pin(pins[n]) {
		return pins // A, B, Y: inputs-then-outputs is already name order
	}
	pins = slices.Clone(pins)
	slices.SortFunc(pins, func(a, b ConnID) int { return strings.Compare(d.Pin(a), d.Pin(b)) })
	return pins
}

// Port returns port p.
func (d *Design) Port(p PortID) Port { return *d.ports.at(int(p)) }

// PortName returns port p's name.
func (d *Design) PortName(p PortID) string { return d.Pin(d.ports.at(int(p)).Conn) }

// Ports, Nets and Insts return every port, net or instance sorted by
// name, from a shared cache.
func (d *Design) Ports() []PortID {
	d.refreshSorted()
	return d.cache.ports
}

func (d *Design) Nets() []NetID {
	d.refreshSorted()
	return d.cache.nets
}

func (d *Design) Insts() []InstID {
	d.refreshSorted()
	return d.cache.insts
}

func (d *Design) refreshSorted() {
	d.cache.Lock()
	defer d.cache.Unlock()
	if d.cache.sortedVer == d.version && d.cache.nets != nil {
		return
	}
	d.cache.ports = sortedIDs[PortID](d.ports.n, d.PortName)
	d.cache.nets = sortedIDs[NetID](d.nets.n, d.NetName)
	d.cache.insts = sortedIDs[InstID](d.insts.n, d.InstName)
	d.cache.sortedVer = d.version
}

// sortedIDs returns the IDs [0, n) sorted by name, each name read once.
func sortedIDs[ID ~int32](n int, name func(ID) string) []ID {
	ids, names := make([]ID, n), make([]string, n)
	for i := range ids {
		ids[i], names[i] = ID(i), name(ID(i))
	}
	slices.SortFunc(ids, func(a, b ID) int { return strings.Compare(names[a], names[b]) })
	return ids
}

// NumNets, NumInsts, NumConns report database sizes.
func (d *Design) NumNets() int  { return d.nets.n }
func (d *Design) NumInsts() int { return d.insts.n }
func (d *Design) NumConns() int { return d.conns.n }

// Compact repacks every connection list into one exactly-sized pool in ID
// order and drops the room each doubling left behind. Bulk loaders call
// it once after construction. A later Connect still works: a full list
// moves before it grows.
func (d *Design) Compact() {
	lists := func(f func(*span)) {
		for id := range d.nets.n {
			f(&d.nets.at(id).conns)
			f(&d.nets.at(id).loads)
		}
		for id := range d.insts.n {
			f(&d.insts.at(id).pins)
		}
	}
	total := 0
	lists(func(r *span) { total += int(r.n) })
	packed := make([]ConnID, 0, total)
	lists(func(r *span) {
		packed = append(packed, d.list(*r)...)
		*r = span{off: int32(len(packed)) - r.n, n: r.n, cap: r.n}
	})
	d.pool = packed
}

// Validate checks structural sanity: every net has exactly one driver and
// every instance has a connection. It returns all problems found, or nil.
func (d *Design) Validate() error {
	var errs []string
	for _, n := range d.Nets() {
		switch drivers := len(d.NetConns(n)) - len(d.Loads(n)); {
		case drivers == 0 && len(d.NetConns(n)) > 0:
			errs = append(errs, fmt.Sprintf("net %q has no driver", d.NetName(n)))
		case drivers > 1:
			errs = append(errs, fmt.Sprintf("net %q has %d drivers", d.NetName(n), drivers))
		}
	}
	for _, i := range d.Insts() {
		if d.insts.at(int(i)).pins.n == 0 {
			errs = append(errs, fmt.Sprintf("instance %q has no connections", d.InstName(i)))
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("netlist: %d problems:\n  %s", len(errs), strings.Join(errs, "\n  "))
}
