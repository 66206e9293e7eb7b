package liberty

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// PinDir is the direction of a library pin.
type PinDir int

const (
	// Input pins load their net and receive noise.
	Input PinDir = iota
	// Output pins drive their net.
	Output
)

// String returns "in" or "out".
func (d PinDir) String() string {
	if d == Output {
		return "out"
	}
	return "in"
}

// Unateness describes how an input transition maps to an output transition
// through a timing arc.
type Unateness int

const (
	// PositiveUnate: input rise causes output rise (buffers, AND, OR).
	PositiveUnate Unateness = iota
	// NegativeUnate: input rise causes output fall (inverters, NAND, NOR).
	NegativeUnate
	// NonUnate: either transition can cause either (XOR, MUX select).
	NonUnate
)

// String returns "pos", "neg", or "both".
func (u Unateness) String() string {
	switch u {
	case NegativeUnate:
		return "neg"
	case NonUnate:
		return "both"
	}
	return "pos"
}

// Pin is a library cell pin.
type Pin struct {
	Name string
	Dir  PinDir
	// Cap is the input pin capacitance in farads (zero for outputs; the
	// output's own parasitics live in the wire model).
	Cap float64
	// Immunity is the noise-rejection curve for input pins; nil means the
	// library default applies.
	Immunity *ImmunityCurve
}

// Arc is one characterized input→output timing/noise arc.
type Arc struct {
	From, To string
	Unate    Unateness
	// Delay and output-slew surfaces per output transition direction.
	DelayRise, DelayFall *Table2D
	SlewRise, SlewFall   *Table2D
	// Transfer is the noise-transfer curve through this arc; nil means
	// the cell blocks noise entirely (e.g., a flop's D input).
	Transfer *TransferCurve
}

// Cell is a library cell.
type Cell struct {
	Name string
	Pins map[string]*Pin
	Arcs []*Arc
	// DriveRes is the equivalent output resistance while switching, used
	// for wire delay estimation (ohms).
	DriveRes float64
	// HoldRes is the equivalent output resistance while holding a stable
	// logic value — the resistance through which a quiet victim fights
	// injected crosstalk charge. Stronger (smaller) holding resistance
	// means smaller glitches.
	HoldRes float64

	// arcIdx answers ArcsTo; see arcIndex.
	arcIdx atomic.Pointer[arcIndex]
}

// arcIndex is a cell's arcs grouped by output pin, built on the first
// query (cells are filled in by hand and by the parser, then only read;
// queries come from every worker). Each group keeps the arcs in Arcs
// order.
type arcIndex struct {
	n  int // len(Arcs) when built: an arc added since rebuilds
	to []arcGroup
}

type arcGroup struct {
	pin  string
	arcs []*Arc
}

func (c *Cell) arcs() *arcIndex {
	if idx := c.arcIdx.Load(); idx != nil && idx.n == len(c.Arcs) {
		return idx
	}
	idx := &arcIndex{n: len(c.Arcs)}
	for _, a := range c.Arcs {
		idx.to = addArc(idx.to, a.To, a)
	}
	c.arcIdx.Store(idx)
	return idx
}

func addArc(groups []arcGroup, pin string, a *Arc) []arcGroup {
	for i := range groups {
		if groups[i].pin == pin {
			groups[i].arcs = append(groups[i].arcs, a)
			return groups
		}
	}
	return append(groups, arcGroup{pin: pin, arcs: []*Arc{a}})
}

// arcsOf returns pin's group; a cell has a handful of pins, so a scan beats
// any map. The slice is the index's own: callers must not modify it.
func arcsOf(groups []arcGroup, pin string) []*Arc {
	for i := range groups {
		if groups[i].pin == pin {
			return groups[i].arcs
		}
	}
	return nil
}

// Pin returns the named pin or nil.
func (c *Cell) Pin(name string) *Pin { return c.Pins[name] }

// InputPins returns the cell's input pins sorted by name.
func (c *Cell) InputPins() []*Pin {
	return c.pinsByDir(Input)
}

// OutputPins returns the cell's output pins sorted by name.
func (c *Cell) OutputPins() []*Pin {
	return c.pinsByDir(Output)
}

func (c *Cell) pinsByDir(d PinDir) []*Pin {
	names := make([]string, 0, len(c.Pins))
	for n, p := range c.Pins {
		if p.Dir == d {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	out := make([]*Pin, len(names))
	for i, n := range names {
		out[i] = c.Pins[n]
	}
	return out
}

// ArcsTo returns the arcs arriving at the named output pin, in Arcs order.
// The slice is shared with the cell; callers must not modify it.
func (c *Cell) ArcsTo(pin string) []*Arc { return arcsOf(c.arcs().to, pin) }

// Validate checks internal consistency: arcs reference existing pins with
// the right directions and all tables are present.
func (c *Cell) Validate() error {
	for _, a := range c.Arcs {
		from, to := c.Pins[a.From], c.Pins[a.To]
		if from == nil || from.Dir != Input {
			return fmt.Errorf("liberty: cell %s arc %s->%s: bad from-pin", c.Name, a.From, a.To)
		}
		if to == nil || to.Dir != Output {
			return fmt.Errorf("liberty: cell %s arc %s->%s: bad to-pin", c.Name, a.From, a.To)
		}
		if a.DelayRise == nil || a.DelayFall == nil || a.SlewRise == nil || a.SlewFall == nil {
			return fmt.Errorf("liberty: cell %s arc %s->%s: missing tables", c.Name, a.From, a.To)
		}
	}
	if c.DriveRes <= 0 || c.HoldRes <= 0 {
		return fmt.Errorf("liberty: cell %s: non-positive drive/hold resistance", c.Name)
	}
	return nil
}

// Library is a named collection of cells sharing a supply voltage.
type Library struct {
	Name string
	// Vdd is the supply voltage in volts; glitch peaks are bounded by it.
	Vdd float64
	// DefaultImmunity applies to input pins without their own curve.
	DefaultImmunity *ImmunityCurve
	cells           map[string]*Cell
}

// NewLibrary returns an empty library.
func NewLibrary(name string, vdd float64) *Library {
	return &Library{Name: name, Vdd: vdd, cells: make(map[string]*Cell)}
}

// AddCell inserts a cell, rejecting duplicates.
func (l *Library) AddCell(c *Cell) error {
	if _, dup := l.cells[c.Name]; dup {
		return fmt.Errorf("liberty: duplicate cell %q", c.Name)
	}
	l.cells[c.Name] = c
	return nil
}

// Cell returns the named cell or nil.
func (l *Library) Cell(name string) *Cell { return l.cells[name] }

// Cells returns all cells sorted by name.
func (l *Library) Cells() []*Cell {
	names := make([]string, 0, len(l.cells))
	for n := range l.cells {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Cell, len(names))
	for i, n := range names {
		out[i] = l.cells[n]
	}
	return out
}

// Immunity resolves the effective immunity curve for a pin: the pin's own
// curve, else the library default.
func (l *Library) Immunity(p *Pin) *ImmunityCurve {
	if p != nil && p.Immunity != nil {
		return p.Immunity
	}
	return l.DefaultImmunity
}

// Validate checks every cell and that a default immunity exists.
func (l *Library) Validate() error {
	if l.Vdd <= 0 {
		return fmt.Errorf("liberty: non-positive vdd")
	}
	if l.DefaultImmunity == nil {
		return fmt.Errorf("liberty: missing default immunity curve")
	}
	for _, c := range l.Cells() {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}
