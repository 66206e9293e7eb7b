package workload

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/spef"
	"repro/internal/sta"
	"repro/internal/units"
)

// Defects are fault-injection knobs applied to a generated workload so
// every lint rule has a generator-backed positive test: each knob plants
// exactly the input corruption one rule exists to catch. Inject mutates
// the Generated in place; the result is intentionally NOT analyzable.
type Defects struct {
	// MultiDriven adds a second driver onto an already-driven net (NL001).
	MultiDriven bool
	// FloatingInput adds a gate whose input net has no driver (NL002).
	FloatingInput bool
	// SelfLoop adds an inverter whose output feeds its own input (NL003).
	SelfLoop bool
	// StraySPEFNet adds a parasitic net that the netlist does not contain
	// (SPF001).
	StraySPEFNet bool
	// DanglingCoupling adds a coupling cap toward a nonexistent net
	// (SPF002).
	DanglingCoupling bool
	// NegativeCap adds a grounded capacitor with a negative value
	// (SPF002).
	NegativeCap bool
	// OrphanRCNode adds a capacitor at a node no resistor reaches (RC001).
	OrphanRCNode bool
	// QuietInput erases one input port's switching windows (STA001).
	QuietInput bool
}

// Any reports whether at least one knob is set.
func (d Defects) Any() bool {
	return d.MultiDriven || d.FloatingInput || d.SelfLoop || d.StraySPEFNet ||
		d.DanglingCoupling || d.NegativeCap || d.OrphanRCNode || d.QuietInput
}

// defectNames maps the CLI spellings (netgen -inject-defects) to knobs.
var defectNames = map[string]func(*Defects){
	"multi-driven":   func(d *Defects) { d.MultiDriven = true },
	"floating-input": func(d *Defects) { d.FloatingInput = true },
	"self-loop":      func(d *Defects) { d.SelfLoop = true },
	"stray-spef":     func(d *Defects) { d.StraySPEFNet = true },
	"dangling-cap":   func(d *Defects) { d.DanglingCoupling = true },
	"negative-cap":   func(d *Defects) { d.NegativeCap = true },
	"orphan-node":    func(d *Defects) { d.OrphanRCNode = true },
	"quiet-input":    func(d *Defects) { d.QuietInput = true },
}

// DefectNames lists the recognized -inject-defects spellings.
func DefectNames() []string {
	out := make([]string, 0, len(defectNames))
	for n := range defectNames {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ParseDefects parses a comma-separated defect list ("all" enables every
// knob).
func ParseDefects(spec string) (Defects, error) {
	var d Defects
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name == "all" {
			for _, set := range defectNames {
				set(&d)
			}
			continue
		}
		set, ok := defectNames[name]
		if !ok {
			return Defects{}, fmt.Errorf("workload: unknown defect %q (want %s or all)",
				name, strings.Join(DefectNames(), "|"))
		}
		set(&d)
	}
	return d, nil
}

// Inject applies the selected defects to the generated workload.
func (g *Generated) Inject(d Defects) error {
	if d.MultiDriven {
		victim, err := firstDrivenNet(g.Design)
		if err != nil {
			return err
		}
		if _, err := g.Design.AddInst("defect_md", "INV_X1"); err != nil {
			return err
		}
		if err := g.Design.Connect("defect_md", "A", "defect_md_in", netlist.In); err != nil {
			return err
		}
		// A second output onto an already-driven net is the defect; the
		// helper input net is driven from a fresh port to keep this knob
		// from also tripping the floating-input rule.
		if _, err := g.Design.AddPort("defect_md_in", netlist.In); err != nil {
			return err
		}
		if err := g.Design.Connect("defect_md", "Y", victim, netlist.Out); err != nil {
			return err
		}
	}
	if d.FloatingInput {
		if _, err := g.Design.AddInst("defect_fi", "BUF_X1"); err != nil {
			return err
		}
		if err := g.Design.Connect("defect_fi", "A", "defect_float", netlist.In); err != nil {
			return err
		}
		if err := g.Design.Connect("defect_fi", "Y", "defect_fi_out", netlist.Out); err != nil {
			return err
		}
	}
	if d.SelfLoop {
		if _, err := g.Design.AddInst("defect_loop", "INV_X1"); err != nil {
			return err
		}
		// Output feeds its own input: exactly one driver (Validate-clean)
		// but no finite topological level.
		if err := g.Design.Connect("defect_loop", "Y", "defect_selfloop", netlist.Out); err != nil {
			return err
		}
		if err := g.Design.Connect("defect_loop", "A", "defect_selfloop", netlist.In); err != nil {
			return err
		}
	}
	if g.Paras != nil && d.StraySPEFNet {
		ghost := &spef.Net{
			Name:     "defect_ghost",
			TotalCap: 1 * units.Femto,
			Conns:    []spef.Conn{{Pin: "defect_ghost_drv:Y", Dir: spef.DirOut, Node: "defect_ghost_drv:Y"}},
			Caps:     []spef.CapEntry{{Node: "defect_ghost_drv:Y", F: 1 * units.Femto}},
		}
		if err := g.Paras.AddNet(ghost); err != nil {
			return err
		}
	}
	if g.Paras != nil && (d.DanglingCoupling || d.NegativeCap || d.OrphanRCNode) {
		sn, err := firstParasiticNet(g.Paras)
		if err != nil {
			return err
		}
		if d.DanglingCoupling {
			sn.Caps = append(sn.Caps, spef.CapEntry{
				Node: sn.Conns[0].Node, Other: "defect_nowhere:1", F: 1 * units.Femto,
			})
		}
		if d.NegativeCap {
			sn.Caps = append(sn.Caps, spef.CapEntry{Node: sn.Conns[0].Node, F: -2 * units.Femto})
		}
		if d.OrphanRCNode {
			sn.Caps = append(sn.Caps, spef.CapEntry{Node: sn.Name + ":defect_orphan", F: 1 * units.Femto})
		}
		// A stored net does not change: the database is rebuilt with this
		// one in its place.
		p := spef.NewParasitics(g.Paras.Design)
		for _, n := range g.Paras.Nets() {
			if n.Name == sn.Name {
				n = sn
			}
			if err := p.AddNet(n); err != nil {
				return err
			}
		}
		g.Paras = p
	}
	if d.QuietInput {
		name, err := firstTimedInput(g.Inputs)
		if err != nil {
			return err
		}
		g.Inputs[name] = &sta.Timing{}
	}
	return nil
}

// firstDrivenNet returns the alphabetically first net with a driver.
func firstDrivenNet(d *netlist.Design) (string, error) {
	for _, n := range d.Nets() {
		if d.Driver(n) >= 0 {
			return d.NetName(n), nil
		}
	}
	return "", fmt.Errorf("workload: no driven net to corrupt")
}

// firstParasiticNet returns the alphabetically first parasitic net that
// has at least one connection.
func firstParasiticNet(p *spef.Parasitics) (*spef.Net, error) {
	for _, sn := range p.Nets() {
		if len(sn.Conns) > 0 {
			return sn, nil
		}
	}
	return nil, fmt.Errorf("workload: no parasitic net to corrupt")
}

// firstTimedInput returns the alphabetically first input annotation that
// has activity.
func firstTimedInput(m map[string]*sta.Timing) (string, error) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if t := m[n]; t != nil && t.HasActivity() {
			return n, nil
		}
	}
	return "", fmt.Errorf("workload: no active input to quiet")
}

// LibraryDefect names a library corruption for BreakLibrary.
type LibraryDefect string

const (
	// NonMonotoneTable plants a dip along the load axis of one delay
	// surface (LIB001).
	NonMonotoneTable LibraryDefect = "nonmono-table"
	// NonMonotoneImmunity makes the default immunity curve increase with
	// glitch width (LIB001).
	NonMonotoneImmunity LibraryDefect = "nonmono-immunity"
	// MissingTransfer strips the noise-transfer curve from every arc of
	// INV_X1 (LIB002).
	MissingTransfer LibraryDefect = "no-transfer"
)

// BreakLibrary returns a corrupted copy of a library. The source library
// is left untouched.
func BreakLibrary(lib *liberty.Library, defects ...LibraryDefect) (*liberty.Library, error) {
	out := liberty.Scale(lib, lib.Name+"_defective", 1, 1, 1)
	for _, d := range defects {
		switch d {
		case NonMonotoneTable:
			cell := out.Cell("INV_X1")
			if cell == nil || len(cell.Arcs) == 0 {
				return nil, fmt.Errorf("workload: library has no INV_X1 arc to corrupt")
			}
			t := cell.Arcs[0].DelayRise
			last := len(t.Vals[0]) - 1
			if last < 1 {
				return nil, fmt.Errorf("workload: delay table too small to corrupt")
			}
			t.Vals[0][last] = t.Vals[0][last-1] * 0.5
		case NonMonotoneImmunity:
			ic := out.DefaultImmunity
			if ic == nil || len(ic.Peaks) < 2 {
				return nil, fmt.Errorf("workload: no default immunity curve to corrupt")
			}
			ic.Peaks[1] = ic.Peaks[0] * 1.5
		case MissingTransfer:
			cell := out.Cell("INV_X1")
			if cell == nil {
				return nil, fmt.Errorf("workload: library has no INV_X1 to corrupt")
			}
			for _, a := range cell.Arcs {
				a.Transfer = nil
			}
		default:
			return nil, fmt.Errorf("workload: unknown library defect %q", d)
		}
	}
	return out, nil
}
