package lint

import (
	"fmt"

	"repro/internal/netlist"
)

// Input-timing rules: every provided window annotation must describe a
// real input port and a physically sensible switching opportunity.

func init() {
	Register(&rule{
		id:    "STA001",
		title: "degenerate switching window: empty/inverted annotation or unknown port",
		sev:   Warn,
		check: checkInputTiming,
	})
}

func checkInputTiming(in *Input, rep *Reporter) {
	if len(in.Inputs) == 0 {
		return
	}
	// Run orders the findings, so the map's order never shows.
	for name, t := range in.Inputs {
		p := in.Design.FindPort(name)
		if p < 0 || in.Design.Port(p).Dir != netlist.In {
			rep.Report("input "+name,
				"timing annotation names no input port of the design",
				"fix the port name or drop the stale annotation")
			continue
		}
		if t == nil || !t.HasActivity() {
			rep.Report("input "+name,
				"switching windows are empty in both directions: this input can never transition",
				"give the port a rise or fall window, or confirm it is intentionally quiet")
			continue
		}
		// Sets normalize inverted windows away, but annotations built
		// programmatically can still carry raw inverted bounds.
		for _, dir := range []struct {
			label string
			rise  bool
		}{{"rise", true}, {"fall", false}} {
			for ws, i := t.Window(dir.rise), 0; i < ws.Len(); i++ {
				if w := ws.At(i); w.Lo > w.Hi {
					rep.ReportAt(Error, "input "+name,
						fmt.Sprintf("inverted %s window [%g, %g]", dir.label, w.Lo, w.Hi),
						"swap the bounds; windows are [lo, hi] with lo <= hi")
				}
			}
			slew := t.Slew(dir.rise)
			if !t.Window(dir.rise).IsEmpty() && slew.Min <= slew.Max && slew.Min < 0 {
				rep.ReportAt(Error, "input "+name,
					fmt.Sprintf("negative %s slew %g s", dir.label, slew.Min),
					"transition times must be non-negative")
			}
		}
	}
}
