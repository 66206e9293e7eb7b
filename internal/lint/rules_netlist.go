package lint

import (
	"fmt"
	"strings"
)

// Netlist structure rules: driver multiplicity, floating inputs, and
// combinational loops.

func init() {
	Register(&rule{
		id:    "NL001",
		title: "multi-driven net: more than one connection drives the net",
		sev:   Error,
		check: checkMultiDriven,
	})
	Register(&rule{
		id:    "NL002",
		title: "floating input: a net with load pins but no driver",
		sev:   Error,
		check: checkFloatingInput,
	})
	Register(&rule{
		id:    "NL003",
		title: "combinational loop: instances without a finite topological level",
		sev:   Warn,
		check: checkLoops,
	})
}

func checkMultiDriven(in *Input, rep *Reporter) {
	d := in.Design
	for _, n := range d.Nets() {
		if len(d.NetConns(n))-len(d.Loads(n)) < 2 {
			continue // every connection that is no load drives
		}
		var drivers []string
		for _, c := range d.NetConns(n) {
			if d.Conn(c).Driver() {
				drivers = append(drivers, d.ConnName(c))
			}
		}
		rep.Report("net "+d.NetName(n),
			fmt.Sprintf("%d drivers: %s", len(drivers), strings.Join(drivers, ", ")),
			"keep exactly one driver per net; remove or reroute the extra output connections")
	}
}

func checkFloatingInput(in *Input, rep *Reporter) {
	d := in.Design
	for _, n := range d.Nets() {
		if len(d.NetConns(n)) == 0 || d.Driver(n) >= 0 {
			continue
		}
		loads := d.Loads(n)
		names := make([]string, 0, len(loads))
		for _, c := range loads {
			names = append(names, d.ConnName(c))
		}
		rep.Report("net "+d.NetName(n),
			fmt.Sprintf("no driver for %d load pin(s): %s", len(loads), truncList(names, 4)),
			"connect a driver output or tie the net through a constant cell")
	}
}

func checkLoops(in *Input, rep *Reporter) {
	lev := in.Design.Levelize()
	if len(lev.Feedback) == 0 {
		return
	}
	names := make([]string, 0, len(lev.Feedback))
	for _, inst := range lev.Feedback {
		names = append(names, in.Design.InstName(inst))
	}
	rep.Report("design "+in.Design.Name,
		fmt.Sprintf("%d instance(s) on or downstream of combinational loops: %s",
			len(names), truncList(names, 8)),
		"break the loop with a sequential element, or confirm fixpoint iteration is intended")
}

// truncList joins up to max names, appending an ellipsis with the omitted
// count.
func truncList(names []string, max int) string {
	if len(names) <= max {
		return strings.Join(names, ", ")
	}
	return strings.Join(names[:max], ", ") + fmt.Sprintf(", ... (%d more)", len(names)-max)
}
