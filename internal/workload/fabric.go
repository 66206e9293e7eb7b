package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/interval"
	"repro/internal/netlist"
	"repro/internal/spef"
	"repro/internal/sta"
	"repro/internal/units"
)

// FabricSpec parameterizes a random combinational logic fabric: Width
// parallel signals flowing through Levels ranks of randomly chosen gates,
// with random cross-coupling sprinkled between nets. This is the stand-in
// for "random logic blocks" in the evaluation: deep propagation paths,
// reconvergence, and irregular window distributions.
type FabricSpec struct {
	Width  int // signals per rank (≥ 2)
	Levels int // gate ranks (≥ 1)
	// CouplingDensity is the expected number of coupling caps per net
	// (default 1.5); CoupleC is the largest cap value (default 1.5 fF).
	// Individual caps are drawn log-uniformly from [CoupleC/20, CoupleC],
	// matching the long-tailed coupling-size distribution of real
	// extraction (many tiny couplings, few dominant ones).
	CouplingDensity float64
	CoupleC         float64
	// GroundC is the lumped grounded wire cap per net (default 4 fF).
	GroundC float64
	// SegRes is the single-segment wire resistance (default 60 Ω).
	SegRes float64
	// WindowJitter scatters input windows uniformly in [0, WindowJitter]
	// (default 200 ps); WindowWidth is each window's length (default
	// 80 ps).
	WindowJitter, WindowWidth float64
	Seed                      int64
}

func (s *FabricSpec) fill() error {
	if s.Width < 2 || s.Levels < 1 {
		return fmt.Errorf("workload: fabric needs width ≥ 2 and levels ≥ 1")
	}
	if s.CouplingDensity == 0 {
		s.CouplingDensity = 1.5
	}
	if s.CoupleC == 0 {
		s.CoupleC = 1.5 * units.Femto
	}
	if s.GroundC == 0 {
		s.GroundC = 4 * units.Femto
	}
	if s.SegRes == 0 {
		s.SegRes = 60
	}
	if s.WindowJitter == 0 {
		s.WindowJitter = 200 * units.Pico
	}
	if s.WindowWidth == 0 {
		s.WindowWidth = 80 * units.Pico
	}
	return nil
}

// Fabric generates the random logic workload. Net naming: rank-r signal c
// is "n_r_c" (rank 0 nets are the input ports "in<c>"); gates are
// "g_r_c".
func Fabric(spec FabricSpec) (*Generated, error) {
	if err := spec.fill(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	d := netlist.New(fmt.Sprintf("fabric%dx%d", spec.Width, spec.Levels))
	para := spef.NewParasitics(d.Name)
	inputs := make(map[string]*sta.Timing, spec.Width)

	gates2 := []string{"NAND2_X1", "NOR2_X1", "AND2_X1", "OR2_X1", "XOR2_X1"}
	gates1 := []string{"INV_X1", "INV_X2", "BUF_X1"}

	prev := make([]string, spec.Width)
	for c := 0; c < spec.Width; c++ {
		in := fmt.Sprintf("in%d", c)
		if _, err := d.AddPort(in, netlist.In); err != nil {
			return nil, err
		}
		prev[c] = in
		lo := rng.Float64() * spec.WindowJitter
		w := interval.SetOf(lo, lo+spec.WindowWidth)
		slew := sta.Range{Min: 15 * units.Pico, Max: 35 * units.Pico}
		inputs[in] = &sta.Timing{Rise: w, Fall: w, SlewRise: slew, SlewFall: slew}
	}

	var allNets []string
	for r := 1; r <= spec.Levels; r++ {
		cur := make([]string, spec.Width)
		for c := 0; c < spec.Width; c++ {
			gate := fmt.Sprintf("g_%d_%d", r, c)
			out := fmt.Sprintf("n_%d_%d", r, c)
			cur[c] = out
			twoInput := rng.Float64() < 0.6
			var cell string
			if twoInput {
				cell = gates2[rng.Intn(len(gates2))]
			} else {
				cell = gates1[rng.Intn(len(gates1))]
			}
			if _, err := d.AddInst(gate, cell); err != nil {
				return nil, err
			}
			a := prev[rng.Intn(spec.Width)]
			if err := d.Connect(gate, "A", a, netlist.In); err != nil {
				return nil, err
			}
			if twoInput {
				bnet := prev[rng.Intn(spec.Width)]
				if err := d.Connect(gate, "B", bnet, netlist.In); err != nil {
					return nil, err
				}
			}
			if err := d.Connect(gate, "Y", out, netlist.Out); err != nil {
				return nil, err
			}
			allNets = append(allNets, out)
		}
		prev = cur
	}
	// Terminal ports.
	for c := 0; c < spec.Width; c++ {
		out := fmt.Sprintf("po%d", c)
		if _, err := d.AddPort(out, netlist.Out); err != nil {
			return nil, err
		}
		sink := fmt.Sprintf("s_%d", c)
		if _, err := d.AddInst(sink, "BUF_X1"); err != nil {
			return nil, err
		}
		if err := d.Connect(sink, "A", prev[c], netlist.In); err != nil {
			return nil, err
		}
		if err := d.Connect(sink, "Y", out, netlist.Out); err != nil {
			return nil, err
		}
	}

	// Parasitics: every internal net gets one segment; couplings are
	// sprinkled between random distinct net pairs and recorded in both
	// sections.
	couplings := make(map[string][]spef.CapEntry)
	nPairs := int(spec.CouplingDensity * float64(len(allNets)) / 2)
	for k := 0; k < nPairs; k++ {
		i, j := rng.Intn(len(allNets)), rng.Intn(len(allNets))
		if i == j {
			continue
		}
		a, b := allNets[i], allNets[j]
		// Log-uniform size in [CoupleC/20, CoupleC].
		f := spec.CoupleC * math.Exp(-rng.Float64()*math.Log(20))
		couplings[a] = append(couplings[a], spef.CapEntry{Node: a + ":1", Other: b + ":1", F: f})
		couplings[b] = append(couplings[b], spef.CapEntry{Node: b + ":1", Other: a + ":1", F: f})
	}
	for _, name := range allNets {
		net := d.FindNet(name)
		drv := d.Driver(net)
		n := &spef.Net{Name: name, TotalCap: spec.GroundC}
		drvNode := d.InstName(d.Conn(drv).Inst) + ":" + d.Pin(drv)
		n.Conns = append(n.Conns, spef.Conn{Pin: drvNode, Dir: spef.DirOut, Node: drvNode})
		node := name + ":1"
		n.Ress = append(n.Ress, spef.ResEntry{A: drvNode, B: node, Ohms: spec.SegRes})
		n.Caps = append(n.Caps, spef.CapEntry{Node: node, F: spec.GroundC})
		n.Caps = append(n.Caps, couplings[name]...)
		for _, lc := range d.Loads(net) {
			inst := d.Conn(lc).Inst
			if inst < 0 {
				continue
			}
			pinNode := d.InstName(inst) + ":" + d.Pin(lc)
			n.Conns = append(n.Conns, spef.Conn{Pin: pinNode, Dir: spef.DirIn, Node: pinNode})
			n.Ress = append(n.Ress, spef.ResEntry{A: node, B: pinNode, Ohms: spec.SegRes / 4})
		}
		if err := para.AddNet(n); err != nil {
			return nil, err
		}
	}
	return &Generated{Design: d, Paras: para, Inputs: inputs}, nil
}

// ChainSpec parameterizes a driver chain with an attacked first stage: an
// aggressor couples into net "v0", and the glitch propagates down Depth
// gate stages. Used by the propagation-depth experiment (F2).
type ChainSpec struct {
	// Depth is the number of gate stages after the attacked net (≥ 1).
	Depth int
	// Cell is the chain gate (default INV_X1).
	Cell string
	// CoupleC / GroundC shape the attacked net (defaults 6 fF / 2 fF) —
	// strong coupling by default so the glitch exceeds the propagation
	// threshold.
	CoupleC, GroundC float64
	// AggWindow is the aggressor's switching window (default [0,100ps]).
	AggWindow interval.Window
}

func (s *ChainSpec) fill() error {
	if s.Depth < 1 {
		return fmt.Errorf("workload: chain needs depth ≥ 1")
	}
	if s.Cell == "" {
		s.Cell = "INV_X1"
	}
	if s.CoupleC == 0 {
		s.CoupleC = 6 * units.Femto
	}
	if s.GroundC == 0 {
		s.GroundC = 2 * units.Femto
	}
	if s.AggWindow.IsEmpty() && s.AggWindow.Lo == 0 && s.AggWindow.Hi == 0 {
		s.AggWindow = interval.New(0, 100*units.Pico)
	}
	return nil
}

// Chain generates the propagation chain: aggressor net "agg" couples into
// victim net "v0"; stages g1..gDepth produce nets v1..vDepth, terminated
// at port "out". The victim's own input is quiet.
func Chain(spec ChainSpec) (*Generated, error) {
	if err := spec.fill(); err != nil {
		return nil, err
	}
	d := netlist.New(fmt.Sprintf("chain%d", spec.Depth))
	para := spef.NewParasitics(d.Name)

	for _, p := range []string{"i_agg", "i_v"} {
		if _, err := d.AddPort(p, netlist.In); err != nil {
			return nil, err
		}
	}
	if _, err := d.AddPort("out", netlist.Out); err != nil {
		return nil, err
	}
	// Aggressor: driver + receiver.
	if _, err := d.AddInst("dagg", "INV_X4"); err != nil {
		return nil, err
	}
	if err := d.Connect("dagg", "A", "i_agg", netlist.In); err != nil {
		return nil, err
	}
	if err := d.Connect("dagg", "Y", "agg", netlist.Out); err != nil {
		return nil, err
	}
	if _, err := d.AddInst("ragg", "INV_X1"); err != nil {
		return nil, err
	}
	if err := d.Connect("ragg", "A", "agg", netlist.In); err != nil {
		return nil, err
	}
	if err := d.Connect("ragg", "Y", "aggq", netlist.Out); err != nil {
		return nil, err
	}
	// Victim chain.
	if _, err := d.AddInst("dv", "INV_X1"); err != nil {
		return nil, err
	}
	if err := d.Connect("dv", "A", "i_v", netlist.In); err != nil {
		return nil, err
	}
	if err := d.Connect("dv", "Y", "v0", netlist.Out); err != nil {
		return nil, err
	}
	prev := "v0"
	for s := 1; s <= spec.Depth; s++ {
		g := fmt.Sprintf("g%d", s)
		out := fmt.Sprintf("v%d", s)
		if s == spec.Depth {
			out = "out"
		}
		if _, err := d.AddInst(g, spec.Cell); err != nil {
			return nil, err
		}
		if err := d.Connect(g, "A", prev, netlist.In); err != nil {
			return nil, err
		}
		if err := d.Connect(g, "Y", out, netlist.Out); err != nil {
			return nil, err
		}
		prev = out
	}
	// Parasitics: only the attacked net and the aggressor need detail.
	if err := para.AddNet(&spef.Net{
		Name: "v0",
		Conns: []spef.Conn{
			{Pin: "dv:Y", Dir: spef.DirOut, Node: "dv:Y"},
			{Pin: "g1:A", Dir: spef.DirIn, Node: "g1:A"},
		},
		Caps: []spef.CapEntry{
			{Node: "v0:1", F: spec.GroundC},
			{Node: "v0:1", Other: "agg:1", F: spec.CoupleC},
		},
		Ress: []spef.ResEntry{
			{A: "dv:Y", B: "v0:1", Ohms: 50},
			{A: "v0:1", B: "g1:A", Ohms: 50},
		},
	}); err != nil {
		return nil, err
	}
	if err := para.AddNet(&spef.Net{
		Name: "agg",
		Conns: []spef.Conn{
			{Pin: "dagg:Y", Dir: spef.DirOut, Node: "dagg:Y"},
			{Pin: "ragg:A", Dir: spef.DirIn, Node: "ragg:A"},
		},
		Caps: []spef.CapEntry{{Node: "agg:1", F: 4 * units.Femto}},
		Ress: []spef.ResEntry{
			{A: "dagg:Y", B: "agg:1", Ohms: 60},
			{A: "agg:1", B: "ragg:A", Ohms: 60},
		},
	}); err != nil {
		return nil, err
	}
	slew := sta.Range{Min: 20 * units.Pico, Max: 25 * units.Pico}
	aggWin := interval.NewSet(spec.AggWindow)
	inputs := map[string]*sta.Timing{
		"i_agg": {Rise: aggWin, Fall: aggWin, SlewRise: slew, SlewFall: slew},
		"i_v": {
			SlewRise: sta.Range{Min: 1, Max: -1}, SlewFall: sta.Range{Min: 1, Max: -1},
		},
	}
	return &Generated{Design: d, Paras: para, Inputs: inputs}, nil
}
