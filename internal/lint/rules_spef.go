package lint

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/netlist"
	"repro/internal/spef"
)

// Parasitic-database rules: netlist↔SPEF correspondence, capacitor
// sanity, and RC connectivity.

func init() {
	Register(&rule{
		id:    "SPF001",
		title: "netlist/SPEF mismatch: parasitic net absent from the netlist, or vice versa",
		sev:   Error,
		check: checkSpefCorrespondence,
	})
	Register(&rule{
		id:    "SPF002",
		title: "bad capacitor or resistor: dangling coupling partner or negative value",
		sev:   Error,
		check: checkSpefValues,
	})
	Register(&rule{
		id:    "RC001",
		title: "broken RC topology: no driver node, disconnected subtree, or resistive loop",
		sev:   Error,
		check: checkRCTopology,
	})
}

// eachNet calls f once for every net name of the design or the
// parasitics, in name order, with the name's net on each side: its
// netlist ID or -1, and its index in the parasitics or -1. The netlist
// hands out a name-sorted view; the extracted nets it lacks are few, and
// sorted here.
func eachNet(in *Input, f func(n netlist.NetID, i int)) {
	d, p := in.Design, in.Paras
	extracted := make([]int32, d.NumNets()) // index+1 in the parasitics, 0 for none
	var strays []int
	for i := range p.NumNets() {
		if n := d.FindNet(p.NetName(i)); n >= 0 {
			extracted[n] = int32(i) + 1
		} else {
			strays = append(strays, i)
		}
	}
	slices.SortFunc(strays, func(a, b int) int { return strings.Compare(p.NetName(a), p.NetName(b)) })
	for _, n := range d.Nets() {
		for len(strays) > 0 && p.NetName(strays[0]) < d.NetName(n) {
			f(-1, strays[0])
			strays = strays[1:]
		}
		f(n, int(extracted[n])-1)
	}
	for _, i := range strays {
		f(-1, i)
	}
}

func checkSpefCorrespondence(in *Input, rep *Reporter) {
	if in.Paras == nil {
		return
	}
	eachNet(in, func(n netlist.NetID, i int) {
		switch {
		case n < 0:
			rep.Report("spef net "+in.Paras.NetName(i),
				"parasitic net is not present in the netlist",
				"fix the extractor's name mapping or re-extract against this netlist")
		case i < 0 && len(in.Design.NetConns(n)) > 0:
			// This direction is informational: a net without extracted
			// parasitics falls back to the lumped zero-resistance model,
			// which is routine pre-layout but worth surfacing on signoff
			// runs.
			rep.ReportAt(Info, "net "+in.Design.NetName(n),
				"no extracted parasitics; a lumped zero-resistance model will be used",
				"extract the net, or ignore for pre-layout runs")
		}
	})
}

func checkSpefValues(in *Input, rep *Reporter) {
	p := in.Paras
	if p == nil {
		return
	}
	// A finding's object path is built when there is a finding.
	object := func(name, kind string, i int) string {
		return fmt.Sprintf("spef net %s %s %d", name, kind, i+1)
	}
	// listsPartner reports whether net i's own section couples it to the
	// net of name ID id. It walks i's capacitors; only a net with more of
	// them than a walk per partner should cost gets its partners sorted.
	var wide map[int][]int32
	listsPartner := func(i int, id int32) bool {
		caps := p.View(i).Caps
		if len(caps) <= 32 {
			return slices.ContainsFunc(caps, func(c spef.Cap) bool { return c.Partner == id })
		}
		ids, ok := wide[i]
		if !ok {
			for _, c := range caps {
				ids = append(ids, c.Partner)
			}
			slices.Sort(ids)
			if wide == nil {
				wide = make(map[int][]int32)
			}
			wide[i] = ids
		}
		_, ok = slices.BinarySearch(ids, id)
		return ok
	}
	eachNet(in, func(_ netlist.NetID, i int) {
		if i < 0 {
			return
		}
		sn, self := p.View(i), p.NameOf(i)
		for k, c := range sn.Caps {
			if c.F < 0 {
				rep.Report(object(sn.Name, "cap", k),
					fmt.Sprintf("negative capacitance %g F", c.F),
					"fix the extraction; negative capacitance is unphysical")
				continue
			}
			if c.Partner < 0 {
				continue
			}
			pn := p.NetNamed(c.Partner)
			if pn < 0 && in.Design.FindNet(p.Name(c.Partner)) < 0 {
				rep.Report(object(sn.Name, "cap", k),
					fmt.Sprintf("dangling coupling cap: partner net %q exists in neither the parasitics nor the netlist", p.Name(c.Partner)),
					"remove the capacitor or restore the missing aggressor net")
				continue
			}
			if pn >= 0 && !listsPartner(pn, self) {
				rep.ReportAt(Info, object(sn.Name, "cap", k),
					fmt.Sprintf("coupling to %q has no reciprocal entry in that net's section", p.Name(c.Partner)),
					"extractors list each coupling cap in both partners' sections; the partner will not see this aggressor")
			}
		}
		for k, r := range sn.Ress {
			if r.Ohms < 0 {
				rep.Report(object(sn.Name, "res", k),
					fmt.Sprintf("negative resistance %g ohm", r.Ohms),
					"fix the extraction; negative resistance is unphysical")
			}
		}
	})
}

// checkRCTopology verifies, per parasitic net, what the bind's tree
// reduction will require: a driver root exists, every node is reachable
// from it through the resistive tree, and the tree is acyclic. Reporting it here
// turns a mid-analysis abort into a pre-flight diagnostic.
func checkRCTopology(in *Input, rep *Reporter) {
	if in.Paras == nil {
		return
	}
	var t rcTopology // scratch shared by every net
	eachNet(in, func(n netlist.NetID, i int) {
		if n >= 0 && i >= 0 { // SPF001 reports a net of one side only
			v := in.Paras.View(i)
			t.lint(&v, rep)
		}
	})
}

// rcTopology is the working state of one net's topology check: a
// union-find over the net's stored nodes that the resistors merge, and the
// nodes the check counts — all but those only negative capacitors name —
// in order of first mention, as bind.New numbers them.
type rcTopology struct {
	parent, rank, order []int32
}

// find returns the representative of i's component, halving the path.
func (t *rcTopology) find(i int32) int32 {
	for t.parent[i] != i {
		t.parent[i] = t.parent[t.parent[i]]
		i = t.parent[i]
	}
	return i
}

func (t *rcTopology) lint(sn *spef.NetView, rep *Reporter) {
	t.parent, t.rank, t.order = t.parent[:0], t.rank[:0], t.order[:0]
	for k := range sn.NumNodes() {
		t.parent, t.rank = append(t.parent, int32(k)), append(t.rank, -1)
	}
	mention := func(k int32) {
		if t.rank[k] < 0 {
			t.rank[k] = int32(len(t.order))
			t.order = append(t.order, k)
		}
	}
	root := int32(-1)
	for _, c := range sn.Pins {
		if mention(c.Node); c.Dir == spef.DirOut && root < 0 {
			root = c.Node
		}
	}
	for _, r := range sn.Ress {
		mention(r.A)
		mention(r.B)
		t.parent[t.find(r.A)] = t.find(r.B)
	}
	for _, c := range sn.Caps {
		if c.F >= 0 { // negative caps are SPF002's finding
			mention(c.Node)
		}
	}
	if root < 0 {
		rep.Report("spef net "+sn.Name,
			"no driver connection (*CONN entry with direction O)",
			"add the driver pin to the net's *CONN section")
		return
	}
	// The driver's component: its nodes, and the resistors inside it.
	root = t.find(root)
	reached, compEdges := 0, 0
	for _, k := range t.order {
		if t.find(k) == root {
			reached++
		}
	}
	for _, r := range sn.Ress {
		if t.find(r.A) == root {
			compEdges++
		}
	}
	if compEdges >= reached && compEdges > 0 {
		rep.Report("spef net "+sn.Name,
			fmt.Sprintf("resistive loop: %d resistors span only %d reachable nodes", compEdges, reached),
			"RC reduction assumes a tree; remove the redundant resistor or merge parallel segments")
	}
	if reached < len(t.order) {
		var orphans []string
		for _, k := range t.order {
			if t.find(k) != root {
				orphans = append(orphans, sn.Node(k))
			}
		}
		rep.Report("spef net "+sn.Name,
			fmt.Sprintf("%d node(s) unreachable from the driver: %s", len(orphans), truncList(orphans, 3)),
			"connect the subtree with a resistor or drop the stray nodes")
	}
}
