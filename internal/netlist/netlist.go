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
// Storage is struct-of-arrays at heart: Net/Inst/Conn/Port objects live
// in chunked arenas (pointer-stable, one allocation per chunk), carry
// dense creation-order int32 IDs for slice-indexed side tables, and are
// looked up through one name index the design owns (see sym). The design
// copies every name it keeps, once, so callers may pass views of a read
// buffer. Driver, load, and pin-direction views are maintained
// incrementally at build time instead of being recomputed per call, so
// the analysis layers can traverse the graph allocation-free and — once
// construction is done — concurrently. The mutating builder methods
// (AddPort, AddInst, Connect) are not safe for concurrent use; all
// read-side accessors, including the cached Levelize, are.
package netlist

import (
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"sync"
)

// Dir is the direction of a pin or port from the perspective of the
// instance (an Output pin drives its net) or of the design (an In port
// drives its net from outside).
type Dir int

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

// Conn is one connection of an instance pin (or design port) to a net.
// Inst is nil for port connections.
type Conn struct {
	Inst *Inst  // nil for a top-level port connection
	Port string // port name when Inst is nil
	Pin  string // pin name when Inst is non-nil
	Dir  Dir
	Net  *Net

	id int32 // dense creation-order ID within the design
}

// ID returns the connection's dense creation-order index, in
// [0, Design.NumConns). IDs are stable for the life of the design and
// suitable for slice-indexed side tables.
func (c *Conn) ID() int32 { return c.id }

// Driver reports whether this connection drives the net: an instance
// output pin, or a design input port.
func (c *Conn) Driver() bool {
	if c.Inst == nil {
		return c.Dir == In // input port drives the net from outside
	}
	return c.Dir == Out
}

// Name identifies the connection for messages, e.g. "u3.Y" or "port clk".
func (c *Conn) Name() string {
	if c.Inst == nil {
		return "port " + c.Port
	}
	return c.Inst.Name + "." + c.Pin
}

// Net is a single electrical node at the logical level. Physically it may
// be an RC network (bound by name through the parasitics database).
type Net struct {
	Name  string
	Conns []*Conn

	id    int32
	drv   *Conn   // first driving connection, maintained by addConn
	loads []*Conn // non-driving connections in insertion order
}

// ID returns the net's dense creation-order index, in
// [0, Design.NumNets). IDs are stable for the life of the design.
func (n *Net) ID() int32 { return n.id }

// Driver returns the unique driving connection, or nil if the net is
// undriven. Validate enforces uniqueness.
func (n *Net) Driver() *Conn { return n.drv }

// Loads returns the non-driving connections in insertion order. The
// returned slice is shared with the net; callers must not modify it.
func (n *Net) Loads() []*Conn { return n.loads }

// Inst is a placed occurrence of a library cell.
type Inst struct {
	Name string
	Cell string // library cell name, resolved by the analysis layers
	// Level is filled in by Levelize: topological depth from primary
	// inputs, or -1 for instances on combinational loops.
	Level int

	id    int32
	nIn   int32   // conns[:nIn] are the inputs
	conns []*Conn // inputs, then outputs, each sorted by pin name
}

// ID returns the instance's dense creation-order index, in
// [0, Design.NumInsts). IDs are stable for the life of the design.
func (i *Inst) ID() int32 { return i.id }

// Inputs returns the instance's input connections sorted by pin name.
// The returned slice is shared with the instance; callers must not
// modify it.
func (i *Inst) Inputs() []*Conn { return i.conns[:i.nIn:i.nIn] }

// Outputs returns the instance's output connections sorted by pin name.
// The returned slice is shared with the instance; callers must not
// modify it.
func (i *Inst) Outputs() []*Conn { return i.conns[i.nIn:] }

// Conn returns the connection of the named pin, or nil. Instances have a
// handful of pins, so a scan beats any index.
func (i *Inst) Conn(pin string) *Conn {
	for _, c := range i.conns {
		if c.Pin == pin {
			return c
		}
	}
	return nil
}

// Pins returns every connection in pin-name order, whatever its
// direction. The slice may be shared with the instance; callers must not
// modify it.
func (i *Inst) Pins() []*Conn {
	if n := int(i.nIn); n == 0 || n == len(i.conns) || i.conns[n-1].Pin < i.conns[n].Pin {
		return i.conns // A, B, Y: inputs-then-outputs is already name order
	}
	pins := slices.Clone(i.conns)
	slices.SortFunc(pins, func(a, b *Conn) int { return strings.Compare(a.Pin, b.Pin) })
	return pins
}

// Port is a top-level design port.
type Port struct {
	Name string
	Dir  Dir
	Conn *Conn
}

// arena is a chunked, pointer-stable allocator: one heap allocation per
// chunk instead of one per object, and pointers into earlier chunks are
// never invalidated by growth. Objects are numbered in allocation order,
// which makes an arena the table from a dense ID to its object as well.
type arena[T any] struct {
	chunks [][]T
	n      int // objects allocated
}

const arenaChunk = 4096

// at returns object number i. It panics on an out-of-range number, like
// a slice index.
func (a *arena[T]) at(i int) *T { return &a.chunks[i/arenaChunk][i%arenaChunk] }

// alloc returns a new zero object, number a.n-1.
func (a *arena[T]) alloc() *T {
	if a.n == len(a.chunks)*arenaChunk {
		a.chunks = append(a.chunks, make([]T, 0, arenaChunk))
	}
	c := &a.chunks[len(a.chunks)-1]
	*c = (*c)[:len(*c)+1] // make zeroed it
	a.n++
	return &(*c)[len(*c)-1]
}

// each calls f on every object, in number order.
func (a *arena[T]) each(f func(*T)) {
	for _, c := range a.chunks {
		for i := range c {
			f(&c[i])
		}
	}
}

// all returns the address of every object, in number order.
func (a *arena[T]) all() []*T {
	out := make([]*T, 0, a.n)
	a.each(func(p *T) { out = append(out, p) })
	return out
}

// sym is one distinct name the design has seen: the single canonical copy
// of its text, and the object of each kind that bears it. Nets, instances
// and ports are separate name spaces sharing one table, so a loader hashes
// an identifier once and every lookup is one probe; pin and cell names go
// through it too, which is what makes equal names share one string.
type sym struct {
	name            string
	net, inst, port int32 // ID+1 of the bearer, 0 for none
}

// slot is one cell of the open-addressed (linear-probe) name table. It
// holds no pointer, so the collector never scans the table.
type slot struct {
	hash uint32
	sym  uint32 // number of the symbol in syms, +1; 0 marks an empty slot
}

var hashSeed = maphash.MakeSeed()

// Design is the netlist database. Construct with New and the Add/Connect
// builder methods, then call Validate before analysis.
type Design struct {
	Name string

	syms  arena[sym]
	slots []slot // len is a power of two, at most 3/4 full

	// The objects, each numbered by its dense creation-order ID.
	nets  arena[Net]
	insts arena[Inst]
	conns arena[Conn]
	ports arena[Port]
	// spare is the unused tail of the block connection lists grow out of
	// (see push); Compact drops the blocks.
	spare []*Conn

	// version counts builder mutations; the lazy caches below are keyed
	// on it.
	version uint64

	cache struct {
		sync.Mutex
		sortedVer uint64
		ports     []*Port
		nets      []*Net
		insts     []*Inst
		levVer    uint64
		lev       *Levelization
	}
}

// New returns an empty design.
func New(name string) *Design {
	return &Design{Name: name, slots: make([]slot, 64)}
}

// symOf returns name's symbol. A name the design has not seen is added
// when add is set — copied, so name may be a view of a buffer the caller
// reuses — and nil otherwise.
func (d *Design) symOf(name string, add bool) *sym {
	h := uint32(maphash.String(hashSeed, name))
	mask := uint32(len(d.slots) - 1)
	i := h & mask
	for ; d.slots[i].sym != 0; i = (i + 1) & mask {
		if d.slots[i].hash == h {
			if s := d.syms.at(int(d.slots[i].sym - 1)); s.name == name {
				return s
			}
		}
	}
	if !add {
		return nil
	}
	s := d.syms.alloc()
	s.name = strings.Clone(name)
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
	return s
}

// AddPort declares a top-level port and connects it to the net of the same
// name (created if needed). It errors on duplicates.
func (d *Design) AddPort(name string, dir Dir) (*Port, error) {
	s := d.symOf(name, true)
	if s.port != 0 {
		return nil, fmt.Errorf("netlist: duplicate port %q", name)
	}
	net := d.netOf(s)
	d.version++
	c := d.conns.alloc()
	*c = Conn{Port: s.name, Dir: dir, Net: net, id: int32(d.conns.n - 1)}
	d.addConn(net, c)
	p := d.ports.alloc()
	*p = Port{Name: s.name, Dir: dir, Conn: c}
	s.port = int32(d.ports.n)
	return p, nil
}

// AddInst declares an instance of the named cell. It errors on duplicates.
func (d *Design) AddInst(name, cell string) (*Inst, error) {
	s := d.symOf(name, true)
	if s.inst != 0 {
		return nil, fmt.Errorf("netlist: duplicate instance %q", name)
	}
	d.version++
	i := d.insts.alloc()
	*i = Inst{Name: s.name, Cell: d.symOf(cell, true).name, Level: -1, id: int32(d.insts.n - 1)}
	s.inst = int32(d.insts.n)
	return i, nil
}

// Net returns the net with the given name, creating it on first use.
func (d *Design) Net(name string) *Net { return d.netOf(d.symOf(name, true)) }

// netOf returns the net bearing symbol s, creating it on first use.
func (d *Design) netOf(s *sym) *Net {
	if s.net != 0 {
		return d.nets.at(int(s.net - 1))
	}
	d.version++
	n := d.nets.alloc()
	*n = Net{Name: s.name, id: int32(d.nets.n - 1)}
	s.net = int32(d.nets.n)
	return n
}

// FindNet returns the named net or nil.
func (d *Design) FindNet(name string) *Net {
	if s := d.symOf(name, false); s != nil && s.net != 0 {
		return d.nets.at(int(s.net - 1))
	}
	return nil
}

// FindInst returns the named instance or nil.
func (d *Design) FindInst(name string) *Inst {
	if s := d.symOf(name, false); s != nil && s.inst != 0 {
		return d.insts.at(int(s.inst - 1))
	}
	return nil
}

// FindPort returns the named port or nil.
func (d *Design) FindPort(name string) *Port {
	if s := d.symOf(name, false); s != nil && s.port != 0 {
		return d.ports.at(int(s.port - 1))
	}
	return nil
}

// NetByID returns the net with dense ID id. It panics on an out-of-range
// ID, like a slice index.
func (d *Design) NetByID(id int32) *Net { return d.nets.at(int(id)) }

// Connect attaches pin pin of instance inst to net net with direction dir.
// The net is created if needed. It errors if the instance is unknown or the
// pin is already connected.
func (d *Design) Connect(inst, pin, net string, dir Dir) error {
	i := d.FindInst(inst)
	if i == nil {
		return fmt.Errorf("netlist: connect to unknown instance %q", inst)
	}
	return d.ConnectPin(i, pin, net, dir)
}

// ConnectPin is Connect for a caller that holds the instance, as a loader
// reading an instance's connections does.
func (d *Design) ConnectPin(i *Inst, pin, net string, dir Dir) error {
	if i.Conn(pin) != nil {
		return fmt.Errorf("netlist: pin %s.%s already connected", i.Name, pin)
	}
	n := d.Net(net)
	d.version++
	c := d.conns.alloc()
	*c = Conn{Inst: i, Pin: d.symOf(pin, true).name, Dir: dir, Net: n, id: int32(d.conns.n - 1)}
	// Insertion sort by pin name within the pin's direction: pin counts
	// are tiny and this keeps the sorted views always valid.
	k, end := 0, int(i.nIn)
	if dir == Out {
		k, end = end, len(i.conns)
	} else {
		i.nIn++
	}
	for k < end && i.conns[k].Pin < c.Pin {
		k++
	}
	i.conns = d.push(i.conns, nil)
	copy(i.conns[k+1:], i.conns[k:])
	i.conns[k] = c
	d.addConn(n, c)
	return nil
}

func (d *Design) addConn(n *Net, c *Conn) {
	n.Conns = d.push(n.Conns, c)
	if !c.Driver() {
		n.loads = d.push(n.loads, c)
	} else if n.drv == nil {
		n.drv = c
	}
}

// push is append for the design's connection lists. A full list moves to
// twice its room carved from a shared block, not to an allocation of its
// own: a design has several short lists per net, and Compact repacks them
// all once the design is built.
func (d *Design) push(s []*Conn, c *Conn) []*Conn {
	if len(s) == cap(s) {
		n := max(2, 2*cap(s))
		if len(d.spare) < n {
			d.spare = make([]*Conn, max(n, arenaChunk))
		}
		s = append(d.spare[:0:n], s...)
		d.spare = d.spare[n:]
	}
	return append(s, c)
}

// Ports returns the ports sorted by name. The returned slice is a shared
// cache; callers must not modify it.
func (d *Design) Ports() []*Port {
	d.refreshSorted()
	return d.cache.ports
}

// Nets returns the nets sorted by name. The returned slice is a shared
// cache; callers must not modify it.
func (d *Design) Nets() []*Net {
	d.refreshSorted()
	return d.cache.nets
}

// Insts returns the instances sorted by name. The returned slice is a
// shared cache; callers must not modify it.
func (d *Design) Insts() []*Inst {
	d.refreshSorted()
	return d.cache.insts
}

func (d *Design) refreshSorted() {
	d.cache.Lock()
	defer d.cache.Unlock()
	if d.cache.sortedVer == d.version && d.cache.nets != nil {
		return
	}
	d.cache.ports = d.ports.all()
	slices.SortFunc(d.cache.ports, func(a, b *Port) int { return strings.Compare(a.Name, b.Name) })
	d.cache.nets = d.nets.all()
	slices.SortFunc(d.cache.nets, func(a, b *Net) int { return strings.Compare(a.Name, b.Name) })
	d.cache.insts = d.insts.all()
	slices.SortFunc(d.cache.insts, byInstName)
	d.cache.sortedVer = d.version
}

// NumNets, NumInsts, NumPorts, NumConns report database sizes.
func (d *Design) NumNets() int  { return d.nets.n }
func (d *Design) NumInsts() int { return d.insts.n }
func (d *Design) NumPorts() int { return d.ports.n }
func (d *Design) NumConns() int { return d.conns.n }

// Compact repacks every connection list into one exactly-sized array in
// ID order and drops the blocks they grew in, with the room each doubling
// left behind. Bulk loaders call it once after construction. Lists are
// full-capacity clipped, so a later Connect still works (push copies out
// instead of clobbering a neighbor's storage).
func (d *Design) Compact() {
	// Every connection is on its net's list, the loads on a second one,
	// and every instance pin on its instance's.
	total := 2*d.conns.n - d.ports.n
	d.nets.each(func(n *Net) { total += len(n.loads) })
	packed := make([]*Conn, 0, total)
	pack := func(s []*Conn) []*Conn {
		packed = append(packed, s...)
		return packed[len(packed)-len(s) : len(packed) : len(packed)]
	}
	d.nets.each(func(n *Net) { n.Conns, n.loads = pack(n.Conns), pack(n.loads) })
	d.insts.each(func(i *Inst) { i.conns = pack(i.conns) })
	d.spare = nil
}

// Validate checks structural sanity: every net has exactly one driver,
// every instance pin is connected to a net that knows about it, and every
// port net exists. It returns all problems found, or nil.
func (d *Design) Validate() error {
	var errs []error
	for _, n := range d.Nets() {
		drivers := 0
		for _, c := range n.Conns {
			if c.Driver() {
				drivers++
			}
		}
		switch {
		case drivers == 0 && len(n.Conns) > 0:
			errs = append(errs, fmt.Errorf("net %q has no driver", n.Name))
		case drivers > 1:
			errs = append(errs, fmt.Errorf("net %q has %d drivers", n.Name, drivers))
		}
	}
	for _, i := range d.Insts() {
		if len(i.conns) == 0 {
			errs = append(errs, fmt.Errorf("instance %q has no connections", i.Name))
		}
		for _, c := range i.Pins() {
			if c.Net == nil {
				errs = append(errs, fmt.Errorf("pin %s.%s connected to nil net", i.Name, c.Pin))
			}
		}
	}
	if len(errs) == 0 {
		return nil
	}
	msg := fmt.Sprintf("netlist: %d problems:", len(errs))
	for _, e := range errs {
		msg += "\n  " + e.Error()
	}
	return fmt.Errorf("%s", msg)
}
