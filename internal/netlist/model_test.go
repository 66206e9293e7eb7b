package netlist

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// designView is everything the design answers, by name: what a model
// built from maps and insertion-ordered lists must answer too.
type designView struct {
	Nets  map[string]netView
	Insts map[string]instView
	Ports map[string]portView
	// The sorted views, and what Find* says about names nobody added.
	SortedNets, SortedInsts, SortedPorts []string
	Strangers                            []string
	Levels                               [][]string
	Feedback                             []string
	Valid                                bool
}

type netView struct {
	Driver       string // "" when undriven
	Conns, Loads []string
}

type instView struct {
	Cell                  string
	Inputs, Outputs, Pins []string // "PIN=net"
}

type portView struct {
	Dir Dir
	Net string
}

// The adapter: the only part of the test that speaks the design's API.

func connLabel(d *Design, c ConnID) string {
	return d.ConnName(c) + "@" + d.NetName(d.Conn(c).Net)
}

func pinLabels(d *Design, ids []ConnID) []string {
	out := []string{}
	for _, c := range ids {
		out = append(out, d.Pin(c)+"="+d.NetName(d.Conn(c).Net))
	}
	return out
}

func viewOf(d *Design, strangers []string) designView {
	v := designView{Nets: map[string]netView{}, Insts: map[string]instView{}, Ports: map[string]portView{}, Valid: d.Validate() == nil}
	for _, n := range d.Nets() {
		nv := netView{Conns: []string{}, Loads: []string{}}
		if drv := d.Driver(n); drv >= 0 {
			nv.Driver = connLabel(d, drv)
		}
		for _, c := range d.NetConns(n) {
			nv.Conns = append(nv.Conns, connLabel(d, c))
		}
		for _, c := range d.Loads(n) {
			nv.Loads = append(nv.Loads, connLabel(d, c))
		}
		name := d.NetName(n)
		if d.FindNet(name) != n {
			nv.Driver = "FindNet misses " + name
		}
		v.Nets[name] = nv
		v.SortedNets = append(v.SortedNets, name)
	}
	for _, i := range d.Insts() {
		name := d.InstName(i)
		cell := d.CellName(i)
		if d.FindInst(name) != i {
			cell = "FindInst misses " + name
		}
		v.Insts[name] = instView{Cell: cell, Inputs: pinLabels(d, d.Inputs(i)), Outputs: pinLabels(d, d.Outputs(i)), Pins: pinLabels(d, d.Pins(i))}
		v.SortedInsts = append(v.SortedInsts, name)
	}
	for _, p := range d.Ports() {
		name := d.PortName(p)
		pv := portView{Dir: d.Port(p).Dir, Net: d.NetName(d.Conn(d.Port(p).Conn).Net)}
		if d.FindPort(name) != p {
			pv.Net = "FindPort misses " + name
		}
		v.Ports[name] = pv
		v.SortedPorts = append(v.SortedPorts, name)
	}
	for _, s := range strangers {
		if d.FindNet(s) >= 0 || d.FindInst(s) >= 0 || d.FindPort(s) >= 0 {
			v.Strangers = append(v.Strangers, s)
		}
	}
	lev := d.Levelize()
	for _, l := range lev.Levels {
		var names []string
		for _, i := range l {
			names = append(names, d.InstName(i))
		}
		v.Levels = append(v.Levels, names)
	}
	for _, i := range lev.Feedback {
		v.Feedback = append(v.Feedback, d.InstName(i))
	}
	return v
}

// The model: maps and lists in the order things happened.

type modelConn struct {
	inst, pin, net string // inst "" for a port's connection
	dir            Dir
}

func (c modelConn) driver() bool { return (c.inst == "") == (c.dir == In) }

func (c modelConn) label() string {
	if c.inst == "" {
		return "port " + c.pin + "@" + c.net
	}
	return c.inst + "." + c.pin + "@" + c.net
}

type designModel struct {
	ports     map[string]Dir
	cells     map[string]string
	pins      map[string][]modelConn // by instance, in connection order
	nets      map[string][]modelConn // in connection order
	strangers []string
}

func newModel() *designModel {
	return &designModel{ports: map[string]Dir{}, cells: map[string]string{}, pins: map[string][]modelConn{}, nets: map[string][]modelConn{}}
}

func (m *designModel) addPort(name string, dir Dir) bool {
	if _, dup := m.ports[name]; dup {
		return false
	}
	m.ports[name] = dir
	m.nets[name] = append(m.nets[name], modelConn{pin: name, net: name, dir: dir})
	return true
}

func (m *designModel) addInst(name, cell string) bool {
	if _, dup := m.cells[name]; dup {
		return false
	}
	m.cells[name] = cell
	return true
}

func (m *designModel) connect(inst, pin, net string, dir Dir) bool {
	if _, ok := m.cells[inst]; !ok {
		return false
	}
	for _, c := range m.pins[inst] {
		if c.pin == pin {
			return false
		}
	}
	c := modelConn{inst: inst, pin: pin, net: net, dir: dir}
	m.pins[inst] = append(m.pins[inst], c)
	m.nets[net] = append(m.nets[net], c)
	return true
}

func sortedKeys[V any](m map[string]V) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func (m *designModel) firstDriver(net string) (modelConn, bool) {
	for _, c := range m.nets[net] {
		if c.driver() {
			return c, true
		}
	}
	return modelConn{}, false
}

// pinsOf returns an instance's pins in pin-name order, those of one
// direction only when dir is 0 or 1.
func (m *designModel) pinsOf(inst string, dir int) []modelConn {
	var out []modelConn
	for _, c := range m.pins[inst] {
		if dir < 0 || int(c.dir) == dir {
			out = append(out, c)
		}
	}
	slices.SortFunc(out, func(a, b modelConn) int { return strings.Compare(a.pin, b.pin) })
	return out
}

func labels(cs []modelConn, f func(modelConn) string) []string {
	out := []string{}
	for _, c := range cs {
		out = append(out, f(c))
	}
	return out
}

func (m *designModel) view() designView {
	v := designView{Nets: map[string]netView{}, Insts: map[string]instView{}, Ports: map[string]portView{},
		SortedNets: sortedKeys(m.nets), SortedInsts: sortedKeys(m.cells), SortedPorts: sortedKeys(m.ports)}
	pin := func(c modelConn) string { return c.pin + "=" + c.net }
	valid := true
	for net, conns := range m.nets {
		nv := netView{Conns: labels(conns, modelConn.label), Loads: []string{}}
		drivers := 0
		for _, c := range conns {
			if c.driver() {
				drivers++
			} else {
				nv.Loads = append(nv.Loads, c.label())
			}
		}
		if drv, ok := m.firstDriver(net); ok {
			nv.Driver = drv.label()
		}
		valid = valid && drivers == 1
		v.Nets[net] = nv
	}
	for inst, cell := range m.cells {
		v.Insts[inst] = instView{Cell: cell, Inputs: labels(m.pinsOf(inst, int(In)), pin),
			Outputs: labels(m.pinsOf(inst, int(Out)), pin), Pins: labels(m.pinsOf(inst, -1), pin)}
		valid = valid && len(m.pins[inst]) > 0
	}
	for port, dir := range m.ports {
		v.Ports[port] = portView{Dir: dir, Net: port}
	}
	v.Valid = valid
	for _, s := range m.strangers {
		if _, net := m.nets[s]; net {
			v.Strangers = append(v.Strangers, s)
		} else if _, inst := m.cells[s]; inst {
			v.Strangers = append(v.Strangers, s)
		} else if _, port := m.ports[s]; port {
			v.Strangers = append(v.Strangers, s)
		}
	}
	v.Levels, v.Feedback = m.levelize()
	return v
}

// levelize is Kahn's peel spelled out over names: an instance's indegree
// counts its input pins whose net's first driver is an instance, and a
// leveled instance takes one off each unleveled reader of each net it
// drives, once per reading pin.
func (m *designModel) levelize() (levels [][]string, feedback []string) {
	indeg, level := map[string]int{}, map[string]int{}
	var frontier []string
	for _, inst := range sortedKeys(m.cells) {
		for _, c := range m.pinsOf(inst, int(In)) {
			if drv, ok := m.firstDriver(c.net); ok && drv.inst != "" {
				indeg[inst]++
			}
		}
		if indeg[inst] == 0 {
			frontier = append(frontier, inst)
		}
	}
	for len(frontier) > 0 {
		slices.Sort(frontier)
		for _, inst := range frontier {
			level[inst] = len(levels)
		}
		levels = append(levels, frontier)
		var next []string
		for _, inst := range frontier {
			for _, oc := range m.pinsOf(inst, int(Out)) {
				for _, lc := range m.nets[oc.net] {
					if _, leveled := level[lc.inst]; lc.driver() || lc.inst == "" || leveled {
						continue
					}
					if indeg[lc.inst]--; indeg[lc.inst] == 0 {
						next = append(next, lc.inst)
					}
				}
			}
		}
		frontier = next
	}
	for _, inst := range sortedKeys(m.cells) {
		if _, leveled := level[inst]; !leveled {
			feedback = append(feedback, inst)
		}
	}
	return levels, feedback
}

// checkDesignAgainstModel drives the design and the model with the same
// seeded builder calls — duplicates, unknown instances and pins connected
// twice among them — and compares every view before compact runs, after
// it, and after more calls on the compacted design.
func checkDesignAgainstModel(seeds int, compact func(*Design)) error {
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		d, m := New("m"), newModel()
		name := func(prefix string, n int) string { return fmt.Sprintf("%s%d", prefix, rng.Intn(n)) }
		// Nets, instances and ports draw some names from one pool, so
		// the three name spaces share symbols.
		step := func() error {
			switch k := rng.Intn(10); {
			case k == 0:
				n, dir := name("x", 8), Dir(rng.Intn(2))
				_, err := d.AddPort(n, dir)
				if ok := m.addPort(n, dir); ok != (err == nil) {
					return fmt.Errorf("AddPort(%s): design err %v, model ok %v", n, err, ok)
				}
			case k <= 2:
				n, cell := name("u", 10), name("C", 3)
				if rng.Intn(4) == 0 {
					n = name("x", 8)
				}
				_, err := d.AddInst(n, cell)
				if ok := m.addInst(n, cell); ok != (err == nil) {
					return fmt.Errorf("AddInst(%s): design err %v, model ok %v", n, err, ok)
				}
			default:
				inst, pin, net, dir := name("u", 11), name("P", 5), name("n", 12), Dir(rng.Intn(2))
				if rng.Intn(5) == 0 {
					net = name("x", 8)
				}
				var err error
				if i := d.FindInst(inst); i >= 0 && rng.Intn(2) == 0 {
					err = d.ConnectPin(i, pin, net, dir)
				} else {
					err = d.Connect(inst, pin, net, dir)
				}
				if ok := m.connect(inst, pin, net, dir); ok != (err == nil) {
					return fmt.Errorf("Connect(%s.%s, %s): design err %v, model ok %v", inst, pin, net, err, ok)
				}
			}
			return nil
		}
		m.strangers = []string{"x99", "u99", "n99", "", name("x", 8), name("u", 11)}
		compare := func(when string) error {
			if got, want := viewOf(d, m.strangers), m.view(); !reflect.DeepEqual(got, want) {
				return fmt.Errorf("seed %d, %s:\ndesign %+v\nmodel  %+v", seed, when, got, want)
			}
			return nil
		}
		for range 10 + rng.Intn(60) {
			if err := step(); err != nil {
				return fmt.Errorf("seed %d: %v", seed, err)
			}
		}
		if err := compare("as built"); err != nil {
			return err
		}
		compact(d)
		if err := compare("after Compact"); err != nil {
			return err
		}
		for range rng.Intn(20) {
			if err := step(); err != nil {
				return fmt.Errorf("seed %d, after Compact: %v", seed, err)
			}
		}
		if err := compare("built on after Compact"); err != nil {
			return err
		}
	}
	return nil
}

// TestDesignMatchesModel is the property; the second half shows it can
// fail. The planted mutant is a Compact that packs every net's load list
// one entry short — the repack's easiest mistake.
func TestDesignMatchesModel(t *testing.T) {
	const seeds = 1500
	if err := checkDesignAgainstModel(seeds, (*Design).Compact); err != nil {
		t.Fatal(err)
	}
	mutant := func(d *Design) {
		d.Compact()
		dropLastLoad(d)
	}
	err := checkDesignAgainstModel(seeds, mutant)
	if err == nil {
		t.Fatal("a Compact that drops each net's last load passed: the property checks nothing")
	}
	t.Logf("the planted mutant is caught: %v", strings.SplitN(err.Error(), "\n", 2)[0])
}

// dropLastLoad shortens every net's load range by one.
func dropLastLoad(d *Design) {
	for id := range d.nets.n {
		if r := &d.nets.at(id).loads; r.n > 0 {
			r.n--
		}
	}
}
