package lint

import (
	"fmt"
	"sort"

	"repro/internal/liberty"
	"repro/internal/netlist"
)

// Library data rules: table monotonicity, noise-transfer coverage, and
// netlist↔library binding consistency.

func init() {
	Register(&rule{
		id:    "LIB001",
		title: "non-monotone library table: immunity curve or NLDM surface misbehaves",
		sev:   Error,
		check: checkLibMonotone,
	})
	Register(&rule{
		id:    "LIB002",
		title: "missing noise-transfer data on an arc of a cell used by the design",
		sev:   Warn,
		check: checkTransferData,
	})
	Register(&rule{
		id:    "BND001",
		title: "unresolved binding: unknown cell or pin, direction mismatch, open input",
		sev:   Error,
		check: checkBinding,
	})
}

func checkLibMonotone(in *Input, rep *Reporter) {
	checkImmunity(in.Lib.DefaultImmunity, "lib default_immunity", rep)
	for _, c := range in.Lib.Cells() {
		for _, p := range c.InputPins() {
			checkImmunity(p.Immunity, fmt.Sprintf("lib cell %s pin %s immunity", c.Name, p.Name), rep)
		}
		for _, a := range c.Arcs {
			base := fmt.Sprintf("lib cell %s arc %s->%s", c.Name, a.From, a.To)
			checkNLDM(a.DelayRise, base+" delay_rise", rep)
			checkNLDM(a.DelayFall, base+" delay_fall", rep)
			checkNLDM(a.SlewRise, base+" slew_rise", rep)
			checkNLDM(a.SlewFall, base+" slew_fall", rep)
		}
	}
}

// checkImmunity verifies an immunity curve has ascending widths and
// non-increasing peaks (gate inertia filters narrow glitches, so the
// tolerated peak can only fall as glitches widen).
func checkImmunity(ic *liberty.ImmunityCurve, object string, rep *Reporter) {
	if ic == nil {
		return
	}
	if len(ic.Widths) == 0 || len(ic.Widths) != len(ic.Peaks) {
		rep.Report(object, "widths and peaks must be equal-length and non-empty",
			"re-characterize the curve")
		return
	}
	for i := 1; i < len(ic.Widths); i++ {
		if ic.Widths[i] < ic.Widths[i-1] {
			rep.Report(object,
				fmt.Sprintf("widths not ascending at entry %d (%g after %g)", i, ic.Widths[i], ic.Widths[i-1]),
				"sort the width axis; interpolation assumes ascending widths")
			return
		}
	}
	for i := 1; i < len(ic.Peaks); i++ {
		if ic.Peaks[i] > ic.Peaks[i-1] {
			rep.Report(object,
				fmt.Sprintf("peaks increase at entry %d (%g V after %g V): wider glitches must not be more tolerable", i, ic.Peaks[i], ic.Peaks[i-1]),
				"fix the characterization; allowed peak must be non-increasing in width")
			return
		}
	}
}

// checkNLDM verifies an NLDM surface has ascending axes and values that do
// not decrease along the load axis: more output load can never make a gate
// faster, so a dip marks a characterization error that would silently warp
// every derived window. A relative tolerance absorbs rounding noise.
func checkNLDM(t *liberty.Table2D, object string, rep *Reporter) {
	if t == nil {
		return
	}
	if !sort.Float64sAreSorted(t.Slews) || !sort.Float64sAreSorted(t.Loads) {
		rep.Report(object, "table axes are not ascending", "sort the slew and load axes")
		return
	}
	tol := 1e-9 * (t.MaxVal() - t.MinVal())
	for i, row := range t.Vals {
		for j := 1; j < len(row); j++ {
			if row[j] < row[j-1]-tol {
				rep.Report(object,
					fmt.Sprintf("value decreases along the load axis at row %d col %d (%g after %g)", i, j, row[j], row[j-1]),
					"re-characterize the table; delay and slew must be non-decreasing in load")
				return
			}
		}
	}
}

func checkTransferData(in *Input, rep *Reporter) {
	for _, cell := range usedCells(in) {
		for _, a := range cell.Arcs {
			if a.Transfer != nil {
				continue
			}
			rep.Report(fmt.Sprintf("lib cell %s arc %s->%s", cell.Name, a.From, a.To),
				"no noise-transfer data: glitches arriving at this input are assumed fully blocked",
				"add a transfer curve, or confirm the input is sequential and blocks noise by design")
		}
	}
}

// usedCells resolves the distinct library cells instantiated by the
// design, sorted by name. Unknown cells are skipped (BND001 reports them).
func usedCells(in *Input) []*liberty.Cell {
	seen := make(map[string]*liberty.Cell)
	for _, inst := range in.Design.Insts() {
		if c := in.Lib.Cell(in.Design.CellName(inst)); c != nil {
			seen[c.Name] = c
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*liberty.Cell, len(names))
	for i, n := range names {
		out[i] = seen[n]
	}
	return out
}

func checkBinding(in *Input, rep *Reporter) {
	inputPins := make(map[*liberty.Cell][]*liberty.Pin) // InputPins sorts per call
	d := in.Design
	for _, inst := range d.Insts() {
		cell := in.Lib.Cell(d.CellName(inst))
		if cell == nil {
			rep.Report("inst "+d.InstName(inst),
				fmt.Sprintf("references unknown cell %q", d.CellName(inst)),
				"add the cell to the library or fix the instance's cell name")
			continue
		}
		for _, conn := range d.Pins(inst) {
			pin := cell.Pin(d.Pin(conn))
			if pin == nil {
				rep.Report("pin "+d.ConnName(conn),
					fmt.Sprintf("cell %s has no such pin", cell.Name),
					"fix the connection's pin name")
				continue
			}
			wantOut := pin.Dir == liberty.Output
			if dir := d.Conn(conn).Dir; (dir == netlist.Out) != wantOut {
				rep.Report("pin "+d.ConnName(conn),
					fmt.Sprintf("direction %s contradicts cell %s (%s pin)", dir, cell.Name, pin.Dir),
					"fix the connection direction to match the library pin")
			}
		}
		pins, ok := inputPins[cell]
		if !ok {
			pins = cell.InputPins()
			inputPins[cell] = pins
		}
		for _, pin := range pins {
			if d.PinConn(inst, pin.Name) < 0 {
				rep.Report(fmt.Sprintf("pin %s.%s", d.InstName(inst), pin.Name),
					"input pin is unconnected",
					"connect every input pin; open inputs make gate evaluation undefined")
			}
		}
	}
}
