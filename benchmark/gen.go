package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/spef"
	"repro/internal/sta"
	"repro/internal/units"
	"repro/internal/vlog"
	"repro/internal/workload"
)

// The seed perturbs electrical values, never sizes or wiring: a run on
// another seed does the same amount of work on different numbers. (Letting
// the seed rewire the fabric moved the fixpoint's round count, and with it
// every time, by tens of percent from seed to seed; a benchmark has to
// repeat.)

// jitter returns a factor within ±rel drawn from rng.
func jitter(rng *rand.Rand, rel float64) float64 { return 1 + (rng.Float64()-0.5)*2*rel }

// fabricWiring is the one wiring every seed shares.
const fabricWiring = 1

// fabricJitter is the relative range of the hot fabric's electrical
// values over seeds: ±0.01 %. The bus takes ±3 % and does the same work;
// on the hot fabric ±3 %, and still ±0.5 %, moved the noise–delay fixpoint
// between 4 and 5 rounds and a sharded run between 613, 693 and 765
// dispatches, which is a tenth of iterate's time. At ±0.01 % every seed
// gives different numbers and the same rounds, dispatches and glitches.
const fabricJitter = 0.0001

// busDesign is a coupled bus whose adjacent windows overlap (stagger
// under the width), so the windowed combination has work on every line —
// the BENCH_scale shape.
func busDesign(bits, segs int, seed int64) (*workload.Generated, error) {
	rng := rand.New(rand.NewSource(seed))
	return workload.Bus(workload.BusSpec{
		Bits: bits, Segs: segs,
		CoupleC: 2 * units.Femto * jitter(rng, 0.03), GroundC: 3 * units.Femto * jitter(rng, 0.03), SegRes: 40 * jitter(rng, 0.03),
		WindowSep: 25 * units.Pico, WindowWidth: 100 * units.Pico,
		Seed: seed,
	})
}

// hotFabric is the random logic fabric with coupling strong enough that
// glitches propagate and receivers fail. The generator's default 1.5 fF
// propagates nothing and must not be used here.
func hotFabric(width, levels int, seed int64) (*workload.Generated, error) {
	rng := rand.New(rand.NewSource(seed))
	return workload.Fabric(workload.FabricSpec{
		Width: width, Levels: levels,
		CouplingDensity: 3, CoupleC: 12 * units.Femto * jitter(rng, fabricJitter),
		GroundC: 4 * units.Femto * jitter(rng, fabricJitter), SegRes: 60 * jitter(rng, fabricJitter),
		Seed: fabricWiring,
	})
}

// sources is one design as the text the programs under test read.
type sources struct {
	netlist string // native .net, or
	verilog string // structural Verilog
	spef    string
	timing  string
	nets    int
}

// render serialises a generated design with the repo's own writers.
func render(g *workload.Generated, asVerilog bool) (*sources, error) {
	var nb, sb, tb bytes.Buffer
	var err error
	if asVerilog {
		err = vlog.Write(&nb, g.Design)
	} else {
		err = netlist.Write(&nb, g.Design)
	}
	if err != nil {
		return nil, err
	}
	if err := spef.Write(&sb, g.Paras); err != nil {
		return nil, err
	}
	if err := sta.WriteInputTiming(&tb, g.Inputs); err != nil {
		return nil, err
	}
	s := &sources{spef: sb.String(), timing: tb.String(), nets: g.Design.NumNets()}
	if asVerilog {
		s.verilog = nb.String()
	} else {
		s.netlist = nb.String()
	}
	return s, nil
}

// files are a design's sources on disk.
type files struct {
	net, spef, win string
}

// write puts the sources under dir as d.net|d.v, d.spef, d.win.
func (s *sources) write(dir string) (*files, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &files{net: filepath.Join(dir, "d.net"), spef: filepath.Join(dir, "d.spef"), win: filepath.Join(dir, "d.win")}
	text := s.netlist
	if s.verilog != "" {
		f.net, text = filepath.Join(dir, "d.v"), s.verilog
	}
	for _, w := range []struct{ path, text string }{{f.net, text}, {f.spef, s.spef}, {f.win, s.timing}} {
		if err := os.WriteFile(w.path, []byte(w.text), 0o644); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// bound is a design parsed back from its text and bound, exactly as the
// server's build path and a shard worker do it — so an in-process oracle
// sees the same floating-point values the programs under test parse.
type bound struct {
	b    *bind.Design
	opts core.Options
}

func (s *sources) bind() (*bound, error) {
	lib := liberty.Generic()
	var d *netlist.Design
	var err error
	if s.verilog != "" {
		d, err = vlog.Parse(strings.NewReader(s.verilog), lib)
	} else {
		d, err = netlist.Parse(strings.NewReader(s.netlist))
	}
	if err != nil {
		return nil, fmt.Errorf("parse netlist: %w", err)
	}
	p, err := spef.Parse(strings.NewReader(s.spef))
	if err != nil {
		return nil, fmt.Errorf("parse spef: %w", err)
	}
	in, err := sta.ParseInputTiming(strings.NewReader(s.timing))
	if err != nil {
		return nil, fmt.Errorf("parse timing: %w", err)
	}
	b, err := bind.New(d, lib, p)
	if err != nil {
		return nil, fmt.Errorf("bind: %w", err)
	}
	// The options a default snad session and a shard worker run with.
	return &bound{b: b, opts: core.Options{
		Mode: core.ModeNoiseWindows, FailSoft: true, STA: sta.Options{InputTiming: in},
	}}, nil
}

// pick returns full, or small under -small.
func (h *harness) pick(full, small int) int {
	if h.small {
		return small
	}
	return full
}
