package lint

// This file keeps the previous SPF002 and RC001 checks — a coupling map
// per net, a node map and adjacency lists per net — as test-only
// references. TestSpefRulesMatchReference holds the scanning and
// union-find versions to them on random parasitics: nets wide enough to
// leave the scan for the map, missing reciprocal entries, dangling
// partners, negative values, resistive loops, orphan subtrees, missing
// drivers.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/spef"
)

func refCheckSpefValues(in *Input, rep *Reporter) {
	memo := make(map[string]map[string]float64)
	couplingsOf := func(n *spef.Net) map[string]float64 {
		if m, ok := memo[n.Name]; ok {
			return m
		}
		m := make(map[string]float64)
		for _, c := range n.Caps {
			if c.Other != "" {
				m[spef.NetOfNode(c.Other)] += c.F
			}
		}
		memo[n.Name] = m
		return m
	}
	nets := in.Paras.Nets()
	byName := make(map[string]*spef.Net, len(nets))
	for _, sn := range nets {
		byName[sn.Name] = sn
	}
	for _, sn := range nets {
		for i, c := range sn.Caps {
			object := fmt.Sprintf("spef net %s cap %d", sn.Name, i+1)
			if c.F < 0 {
				rep.Report(object,
					fmt.Sprintf("negative capacitance %g F", c.F),
					"fix the extraction; negative capacitance is unphysical")
				continue
			}
			if c.Other == "" {
				continue
			}
			partner := spef.NetOfNode(c.Other)
			pn := byName[partner]
			if pn == nil && in.Design.FindNet(partner) < 0 {
				rep.Report(object,
					fmt.Sprintf("dangling coupling cap: partner net %q exists in neither the parasitics nor the netlist", partner),
					"remove the capacitor or restore the missing aggressor net")
				continue
			}
			if pn != nil {
				if _, reciprocal := couplingsOf(pn)[sn.Name]; !reciprocal {
					rep.ReportAt(Info, object,
						fmt.Sprintf("coupling to %q has no reciprocal entry in that net's section", partner),
						"extractors list each coupling cap in both partners' sections; the partner will not see this aggressor")
				}
			}
		}
		for i, r := range sn.Ress {
			if r.Ohms < 0 {
				rep.Report(fmt.Sprintf("spef net %s res %d", sn.Name, i+1),
					fmt.Sprintf("negative resistance %g ohm", r.Ohms),
					"fix the extraction; negative resistance is unphysical")
			}
		}
	}
}

func refCheckRCTopology(in *Input, rep *Reporter) {
	for _, sn := range in.Paras.Nets() {
		if in.Design.FindNet(sn.Name) < 0 {
			continue
		}
		refLintRCNet(sn, rep)
	}
}

func refLintRCNet(sn *spef.Net, rep *Reporter) {
	object := "spef net " + sn.Name
	idx := make(map[string]int)
	var names []string
	node := func(name string) int {
		if i, ok := idx[name]; ok {
			return i
		}
		i := len(names)
		idx[name] = i
		names = append(names, name)
		return i
	}
	root := -1
	for _, c := range sn.Conns {
		i := node(c.Node)
		if c.Dir == spef.DirOut && root < 0 {
			root = i
		}
	}
	type edge struct{ a, b int }
	var edges []edge
	for _, r := range sn.Ress {
		edges = append(edges, edge{node(r.A), node(r.B)})
	}
	for _, c := range sn.Caps {
		if c.F >= 0 {
			node(c.Node)
		}
	}
	if root < 0 {
		rep.Report(object,
			"no driver connection (*CONN entry with direction O)",
			"add the driver pin to the net's *CONN section")
		return
	}
	adj := make([][]int, len(names))
	for _, e := range edges {
		adj[e.a] = append(adj[e.a], e.b)
		adj[e.b] = append(adj[e.b], e.a)
	}
	seen := make([]bool, len(names))
	seen[root] = true
	queue := []int{root}
	reached, compEdges := 0, 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		reached++
		compEdges += len(adj[u])
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	compEdges /= 2
	if compEdges >= reached && reached > 0 && compEdges > 0 {
		rep.Report(object,
			fmt.Sprintf("resistive loop: %d resistors span only %d reachable nodes", compEdges, reached),
			"RC reduction assumes a tree; remove the redundant resistor or merge parallel segments")
	}
	var orphans []string
	for i, s := range seen {
		if !s {
			orphans = append(orphans, names[i])
		}
	}
	if len(orphans) > 0 {
		rep.Report(object,
			fmt.Sprintf("%d node(s) unreachable from the driver: %s", len(orphans), truncList(orphans, 3)),
			"connect the subtree with a resistor or drop the stray nodes")
	}
}

// randomParasitics builds nets n0.. over a design that knows all of them
// but the last, with every defect the two rules look for planted at
// random.
func randomParasitics(t *testing.T, rng *rand.Rand, nets int) *Input {
	t.Helper()
	d := netlist.New("rnd")
	p := spef.NewParasitics("rnd")
	name := func(i int) string { return fmt.Sprintf("n%d", i) }
	sns := make([]*spef.Net, nets) // stored once built: the database keeps no handle to change
	for i := 0; i < nets; i++ {
		if i < nets-1 {
			d.Net(name(i))
		}
		sn := &spef.Net{Name: name(i)}
		nodes := 1 + rng.Intn(6)
		if rng.Intn(8) == 0 {
			nodes = 20 + rng.Intn(30) // past the point where nodes are scanned for
		}
		node := func(k int) string { return fmt.Sprintf("%s:%d", sn.Name, k) }
		if rng.Intn(10) > 0 {
			sn.Conns = append(sn.Conns, spef.Conn{Pin: node(0), Dir: spef.DirOut, Node: node(0)})
		}
		sn.Conns = append(sn.Conns, spef.Conn{Pin: node(nodes - 1), Dir: spef.DirIn, Node: node(nodes - 1)})
		for k := 1; k < nodes; k++ {
			switch rng.Intn(12) {
			case 0: // no resistor: an orphan, or a whole orphan subtree
			case 1: // a self-loop and a negative value
				sn.Ress = append(sn.Ress, spef.ResEntry{A: node(k), B: node(k), Ohms: -1})
			default:
				sn.Ress = append(sn.Ress, spef.ResEntry{A: node(rng.Intn(k)), B: node(k), Ohms: 10})
			}
		}
		for extra := rng.Intn(3); extra > 1; extra-- { // sometimes a redundant resistor
			sn.Ress = append(sn.Ress, spef.ResEntry{A: node(rng.Intn(nodes)), B: node(rng.Intn(nodes)), Ohms: 5})
		}
		sn.Caps = append(sn.Caps, spef.CapEntry{Node: node(rng.Intn(nodes)), F: 1e-15})
		if rng.Intn(10) == 0 {
			sn.Caps = append(sn.Caps, spef.CapEntry{Node: node(nodes + 1), F: -1e-15})
		}
		sns[i] = sn
	}
	// Couplings: mostly reciprocal; net 0 couples to everything, so it is
	// far past the width where a partner's section is scanned.
	couple := func(a, b int, both bool) {
		na, nb := sns[a], sns[b]
		na.Caps = append(na.Caps, spef.CapEntry{Node: name(a) + ":0", Other: name(b) + ":0", F: 2e-15})
		if both {
			nb.Caps = append(nb.Caps, spef.CapEntry{Node: name(b) + ":0", Other: name(a) + ":0", F: 2e-15})
		}
	}
	for i := 1; i < nets; i++ {
		couple(0, i, rng.Intn(6) > 0)
		if j := rng.Intn(nets); j != i {
			couple(i, j, rng.Intn(4) > 0)
		}
		if rng.Intn(15) == 0 {
			n := sns[i]
			n.Caps = append(n.Caps, spef.CapEntry{Node: name(i) + ":0", Other: "nowhere:1", F: 1e-15})
		}
	}
	for _, sn := range sns {
		if err := p.AddNet(sn); err != nil {
			t.Fatal(err)
		}
	}
	return &Input{Design: d, Lib: liberty.Generic(), Paras: p}
}

func TestSpefRulesMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		in := randomParasitics(t, rand.New(rand.NewSource(seed)), 20+int(seed)*4)
		for _, rule := range []struct {
			id       string
			got, ref func(*Input, *Reporter)
		}{
			{"SPF002", checkSpefValues, refCheckSpefValues},
			{"RC001", checkRCTopology, refCheckRCTopology},
		} {
			var got, want Result
			cfg := Config{}
			rule.got(in, &Reporter{rule: rule.id, sev: Error, cfg: &cfg, out: &got})
			rule.ref(in, &Reporter{rule: rule.id, sev: Error, cfg: &cfg, out: &want})
			if len(want.Diags) == 0 {
				t.Fatalf("seed %d: the reference %s found nothing; the generator plants defects", seed, rule.id)
			}
			if !reflect.DeepEqual(got.Diags, want.Diags) {
				t.Fatalf("seed %d: %s differs from its reference\n got %+v\nwant %+v", seed, rule.id, got.Diags, want.Diags)
			}
		}
	}
}

// ByRule returns the diagnostics of one rule.
func (r *Result) ByRule(id string) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if d.Rule == id {
			out = append(out, d)
		}
	}
	return out
}
