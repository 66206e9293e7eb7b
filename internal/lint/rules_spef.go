package lint

import (
	"fmt"
	"slices"

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
// parasitics, with the name's net on each side, or -1 and nil. Both hand
// out name-sorted views, so matching them is one merge walk and no lookup.
func eachNet(in *Input, f func(n netlist.NetID, sn *spef.Net)) {
	d := in.Design
	nets, paras := d.Nets(), in.Paras.Nets()
	for len(nets) > 0 || len(paras) > 0 {
		switch {
		case len(paras) == 0 || len(nets) > 0 && d.NetName(nets[0]) < paras[0].Name:
			f(nets[0], nil)
			nets = nets[1:]
		case len(nets) == 0 || paras[0].Name < d.NetName(nets[0]):
			f(-1, paras[0])
			paras = paras[1:]
		default:
			f(nets[0], paras[0])
			nets, paras = nets[1:], paras[1:]
		}
	}
}

func checkSpefCorrespondence(in *Input, rep *Reporter) {
	if in.Paras == nil {
		return
	}
	eachNet(in, func(n netlist.NetID, sn *spef.Net) {
		switch {
		case n < 0:
			rep.Report("spef net "+sn.Name,
				"parasitic net is not present in the netlist",
				"fix the extractor's name mapping or re-extract against this netlist")
		case sn == nil && len(in.Design.NetConns(n)) > 0:
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
	if in.Paras == nil {
		return
	}
	// A finding's object path is built when there is a finding.
	object := func(sn *spef.Net, kind string, i int) string {
		return fmt.Sprintf("spef net %s %s %d", sn.Name, kind, i+1)
	}
	// listsPartner reports whether pn's own section couples it to the
	// named net. It walks pn's capacitors; only a net with more of them
	// than a walk per partner should cost gets its totals in a map.
	var wide map[*spef.Net]map[string]float64
	listsPartner := func(pn *spef.Net, name string) bool {
		if len(pn.Caps) <= 32 {
			return slices.ContainsFunc(pn.Caps, func(c spef.CapEntry) bool {
				return c.Other != "" && spef.NetOfNode(c.Other) == name
			})
		}
		m, ok := wide[pn]
		if !ok {
			if wide == nil {
				wide = make(map[*spef.Net]map[string]float64)
			}
			m = pn.CouplingByNet()
			wide[pn] = m
		}
		_, ok = m[name]
		return ok
	}
	for _, sn := range in.Paras.Nets() {
		for i, c := range sn.Caps {
			if c.F < 0 {
				rep.Report(object(sn, "cap", i),
					fmt.Sprintf("negative capacitance %g F", c.F),
					"fix the extraction; negative capacitance is unphysical")
				continue
			}
			if c.Other == "" {
				continue
			}
			partner := spef.NetOfNode(c.Other)
			pn := in.Paras.Net(partner)
			if pn == nil && in.Design.FindNet(partner) < 0 {
				rep.Report(object(sn, "cap", i),
					fmt.Sprintf("dangling coupling cap: partner net %q exists in neither the parasitics nor the netlist", partner),
					"remove the capacitor or restore the missing aggressor net")
				continue
			}
			if pn != nil && !listsPartner(pn, sn.Name) {
				rep.ReportAt(Info, object(sn, "cap", i),
					fmt.Sprintf("coupling to %q has no reciprocal entry in that net's section", partner),
					"extractors list each coupling cap in both partners' sections; the partner will not see this aggressor")
			}
		}
		for i, r := range sn.Ress {
			if r.Ohms < 0 {
				rep.Report(object(sn, "res", i),
					fmt.Sprintf("negative resistance %g ohm", r.Ohms),
					"fix the extraction; negative resistance is unphysical")
			}
		}
	}
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
	eachNet(in, func(n netlist.NetID, sn *spef.Net) {
		if n >= 0 && sn != nil { // SPF001 reports a net of one side only
			t.lint(sn, rep)
		}
	})
}

// rcTopology is the working state of one net's topology check: its nodes
// numbered in order of first mention, exactly as bind.New numbers
// them, and a union-find over them that the resistors merge.
type rcTopology struct {
	names  []string
	index  map[string]int32 // nil while names is short enough to scan
	parent []int32
	resA   []int32 // one end of each resistor
}

// node returns the number of the named node, adding it when new.
func (t *rcTopology) node(name string) int32 {
	if t.index != nil {
		if i, ok := t.index[name]; ok {
			return i
		}
	} else if i := slices.Index(t.names, name); i >= 0 {
		return int32(i)
	}
	i := int32(len(t.names))
	t.names = append(t.names, name)
	t.parent = append(t.parent, i)
	if t.index != nil {
		t.index[name] = i
	} else if len(t.names) > 16 {
		t.index = make(map[string]int32, 2*len(t.names))
		for j, nm := range t.names {
			t.index[nm] = int32(j)
		}
	}
	return i
}

// find returns the representative of i's component, halving the path.
func (t *rcTopology) find(i int32) int32 {
	for t.parent[i] != i {
		t.parent[i] = t.parent[t.parent[i]]
		i = t.parent[i]
	}
	return i
}

func (t *rcTopology) lint(sn *spef.Net, rep *Reporter) {
	t.names, t.parent, t.resA, t.index = t.names[:0], t.parent[:0], t.resA[:0], nil
	root := int32(-1)
	for _, c := range sn.Conns {
		i := t.node(c.Node)
		if c.Dir == spef.DirOut && root < 0 {
			root = i
		}
	}
	for _, r := range sn.Ress {
		a, b := t.node(r.A), t.node(r.B)
		t.resA = append(t.resA, a)
		t.parent[t.find(a)] = t.find(b)
	}
	for _, c := range sn.Caps {
		if c.F >= 0 { // negative caps are SPF002's finding
			t.node(c.Node)
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
	for i := range t.names {
		if t.find(int32(i)) == root {
			reached++
		}
	}
	for _, a := range t.resA {
		if t.find(a) == root {
			compEdges++
		}
	}
	if compEdges >= reached && compEdges > 0 {
		rep.Report("spef net "+sn.Name,
			fmt.Sprintf("resistive loop: %d resistors span only %d reachable nodes", compEdges, reached),
			"RC reduction assumes a tree; remove the redundant resistor or merge parallel segments")
	}
	if reached < len(t.names) {
		var orphans []string
		for i, name := range t.names {
			if t.find(int32(i)) != root {
				orphans = append(orphans, name)
			}
		}
		rep.Report("spef net "+sn.Name,
			fmt.Sprintf("%d node(s) unreachable from the driver: %s", len(orphans), truncList(orphans, 3)),
			"connect the subtree with a resistor or drop the stray nodes")
	}
}
