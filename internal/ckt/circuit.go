// Package ckt is a small linear transient circuit simulator: resistors,
// grounded and floating (coupling) capacitors, and piecewise-linear
// independent voltage sources, solved by modified nodal analysis with
// trapezoidal integration.
//
// It is the repository's "SPICE substrate": the golden reference the
// analytical crosstalk models are validated against in the accuracy
// experiments. Crosstalk clusters are linear by construction here (drivers
// are modelled as Thévenin sources), so a linear solver reproduces exactly
// the physics the noise model approximates.
package ckt

import (
	"fmt"

	"repro/internal/waveform"
)

// Ground names accepted by Node.
const groundName = "0"

type resistor struct {
	a, b int
	ohms float64
}
type capacitor struct {
	a, b   int
	farads float64
}
type vsource struct {
	name string
	plus int
	wave waveform.PWL
}

// Circuit is a netlist of linear elements. Node 0 is ground; the names
// "0", "" and "gnd" all refer to it.
type Circuit struct {
	names []string
	idx   map[string]int
	rs    []resistor
	cs    []capacitor
	vs    []vsource
	// Gmin is a small conductance added from every node to ground to keep
	// the MNA matrix nonsingular for capacitor-only nodes. Defaults to
	// 1e-12 S; the voltage error it introduces is negligible at on-chip
	// impedance levels.
	Gmin float64
}

// New returns an empty circuit.
func New() *Circuit {
	c := &Circuit{idx: make(map[string]int), Gmin: 1e-12}
	c.names = []string{groundName}
	c.idx[groundName] = 0
	c.idx[""] = 0
	c.idx["gnd"] = 0
	return c
}

// Node interns a node name and returns its index (ground is 0).
func (c *Circuit) Node(name string) int {
	if i, ok := c.idx[name]; ok {
		return i
	}
	i := len(c.names)
	c.names = append(c.names, name)
	c.idx[name] = i
	return i
}

// AddR adds a resistor between two nodes.
func (c *Circuit) AddR(a, b string, ohms float64) error {
	if ohms <= 0 {
		return fmt.Errorf("ckt: non-positive resistance %g between %q and %q", ohms, a, b)
	}
	c.rs = append(c.rs, resistor{c.Node(a), c.Node(b), ohms})
	return nil
}

// AddC adds a capacitor between two nodes (b may be ground).
func (c *Circuit) AddC(a, b string, farads float64) error {
	if farads < 0 {
		return fmt.Errorf("ckt: negative capacitance %g between %q and %q", farads, a, b)
	}
	c.cs = append(c.cs, capacitor{c.Node(a), c.Node(b), farads})
	return nil
}

// AddV adds an independent voltage source from node plus to ground with
// the given waveform. (Grounded sources suffice for Thévenin driver
// models.)
func (c *Circuit) AddV(name, plus string, wave waveform.PWL) error {
	p := c.Node(plus)
	if p == 0 {
		return fmt.Errorf("ckt: voltage source %q shorted to ground", name)
	}
	c.vs = append(c.vs, vsource{name: name, plus: p, wave: wave})
	return nil
}

// Result holds sampled node voltages from a transient run.
type Result struct {
	Times []float64
	names []string
	volts map[string][]float64
}

// Waveform converts a probed node's samples into a PWL waveform.
func (r *Result) Waveform(node string) (waveform.PWL, error) {
	vs, ok := r.volts[node]
	if !ok {
		return waveform.PWL{}, fmt.Errorf("ckt: node %q was not probed", node)
	}
	pts := make([]waveform.Point, len(vs))
	for i, v := range vs {
		pts[i] = waveform.Point{T: r.Times[i], V: v}
	}
	return waveform.New(pts...)
}

// Tran runs a transient analysis from t=0 to tstop with fixed step h,
// probing the named nodes. The initial condition is the DC operating point
// with capacitors open (sources at their t=0 values).
//
// The MNA unknown vector is [v_1..v_N, i_src1..i_srcM]; trapezoidal
// integration gives the constant-coefficient update
//
//	(G + 2C/h)·x_{k+1} = (2C/h − G)·x_k + b_k + b_{k+1}
//
// which is factored once and back-substituted per step.
func (c *Circuit) Tran(h, tstop float64, probes []string) (*Result, error) {
	if h <= 0 || tstop <= 0 {
		return nil, fmt.Errorf("ckt: bad step %g or stop %g", h, tstop)
	}
	for _, p := range probes {
		if _, ok := c.idx[p]; !ok {
			return nil, fmt.Errorf("ckt: probe of unknown node %q", p)
		}
	}
	nn := len(c.names) - 1 // non-ground nodes
	nv := len(c.vs)
	dim := nn + nv

	g := newDense(dim)
	cm := newDense(dim)
	// Stamp resistors and Gmin into G.
	stamp := func(m *dense, a, b int, val float64) {
		if a > 0 {
			m.add(a-1, a-1, val)
		}
		if b > 0 {
			m.add(b-1, b-1, val)
		}
		if a > 0 && b > 0 {
			m.add(a-1, b-1, -val)
			m.add(b-1, a-1, -val)
		}
	}
	for _, r := range c.rs {
		stamp(g, r.a, r.b, 1/r.ohms)
	}
	for i := 0; i < nn; i++ {
		g.add(i, i, c.Gmin)
	}
	for _, cap := range c.cs {
		stamp(cm, cap.a, cap.b, cap.farads)
	}
	// Voltage source branch rows/cols.
	for k, v := range c.vs {
		row := nn + k
		g.add(v.plus-1, row, 1)
		g.add(row, v.plus-1, 1)
	}

	bAt := func(t float64) []float64 {
		b := make([]float64, dim)
		for k, v := range c.vs {
			b[nn+k] = v.wave.Eval(t)
		}
		return b
	}

	// DC operating point: G·x = b(0).
	gf, err := factor(g)
	if err != nil {
		return nil, fmt.Errorf("ckt: DC solve: %w", err)
	}
	x := gf.solve(bAt(0))

	// Transient matrices.
	lhs := g.clone()
	rhsM := newDense(dim)
	for i := 0; i < dim*dim; i++ {
		lhs.a[i] += 2 / h * cm.a[i]
		rhsM.a[i] = 2/h*cm.a[i] - g.a[i]
	}
	lf, err := factor(lhs)
	if err != nil {
		return nil, fmt.Errorf("ckt: transient factor: %w", err)
	}

	steps := int(tstop/h + 0.5)
	res := &Result{
		Times: make([]float64, 0, steps+1),
		names: probes,
		volts: make(map[string][]float64, len(probes)),
	}
	record := func(t float64, x []float64) {
		res.Times = append(res.Times, t)
		for _, p := range probes {
			i := c.idx[p]
			var v float64
			if i > 0 {
				v = x[i-1]
			}
			res.volts[p] = append(res.volts[p], v)
		}
	}
	record(0, x)
	bPrev := bAt(0)
	for k := 1; k <= steps; k++ {
		t := float64(k) * h
		bNow := bAt(t)
		rhs := rhsM.mulAdd(x, addVec(bPrev, bNow))
		x = lf.solve(rhs)
		record(t, x)
		bPrev = bNow
	}
	return res, nil
}

func addVec(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}
