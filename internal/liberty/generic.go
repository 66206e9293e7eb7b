package liberty

import (
	"fmt"

	"repro/internal/units"
)

// Generic synthesizes the self-consistent educational library used by the
// workload generators and all experiments. It mimics a 130 nm-class
// standard-cell family at Vdd = 1.2 V:
//
//   - INV_X1/X2/X4/X8, BUF_X1/X2/X4 — inverters and buffers across drive
//     strengths (X2 has half the drive resistance of X1, and so on),
//   - NAND2_X1/X2, NOR2_X1/X2, AND2_X1, OR2_X1 — basic combinational gates,
//   - XOR2_X1 — a non-unate gate so both transition polarities propagate.
//
// Delay and slew tables are generated from a first-order RC drive model:
//
//	delay(s, c) = t0 + Rd·c + ks·s
//	slew(s, c)  = s0 + a·Rd·c + kss·s
//
// evaluated on a 5×6 (slew × load) grid, which gives the bilinear
// interpolation realistic curvature-free behaviour the tests can verify in
// closed form.
func Generic() *Library {
	lib := NewLibrary("generic", 1.2)
	lib.DefaultImmunity = DefaultImmunity(lib.Vdd, 0.40*lib.Vdd, 30*units.Pico)

	type spec struct {
		name   string
		inputs []string
		unate  Unateness
		drive  float64 // X-factor
		inCap  float64 // per input, farads
		t0     float64 // intrinsic delay, seconds
	}
	const (
		r0 = 8 * units.Kilo // X1 drive resistance, ohms
		c1 = 1.6 * units.Femto
	)
	specs := []spec{
		{"INV_X1", []string{"A"}, NegativeUnate, 1, c1, 14 * units.Pico},
		{"INV_X2", []string{"A"}, NegativeUnate, 2, 2 * c1, 12 * units.Pico},
		{"INV_X4", []string{"A"}, NegativeUnate, 4, 4 * c1, 11 * units.Pico},
		{"INV_X8", []string{"A"}, NegativeUnate, 8, 8 * c1, 10 * units.Pico},
		{"BUF_X1", []string{"A"}, PositiveUnate, 1, c1, 28 * units.Pico},
		{"BUF_X2", []string{"A"}, PositiveUnate, 2, 2 * c1, 24 * units.Pico},
		{"BUF_X4", []string{"A"}, PositiveUnate, 4, 4 * c1, 22 * units.Pico},
		{"NAND2_X1", []string{"A", "B"}, NegativeUnate, 1, 1.4 * c1, 18 * units.Pico},
		{"NAND2_X2", []string{"A", "B"}, NegativeUnate, 2, 2.8 * c1, 16 * units.Pico},
		{"NOR2_X1", []string{"A", "B"}, NegativeUnate, 1, 1.4 * c1, 20 * units.Pico},
		{"NOR2_X2", []string{"A", "B"}, NegativeUnate, 2, 2.8 * c1, 18 * units.Pico},
		{"AND2_X1", []string{"A", "B"}, PositiveUnate, 1, 1.5 * c1, 32 * units.Pico},
		{"OR2_X1", []string{"A", "B"}, PositiveUnate, 1, 1.5 * c1, 34 * units.Pico},
		{"XOR2_X1", []string{"A", "B"}, NonUnate, 1, 2.2 * c1, 40 * units.Pico},
	}
	for _, s := range specs {
		cell := makeGenericCell(lib, s.name, s.inputs, s.unate, r0/s.drive, s.inCap, s.t0)
		if err := lib.AddCell(cell); err != nil {
			// Specs are static; a duplicate is a programming error.
			panic(err)
		}
	}
	return lib
}

// genericAxes returns the characterization grid shared by all generic
// cells.
func genericAxes() (slews, loads []float64) {
	slews = []float64{5 * units.Pico, 20 * units.Pico, 50 * units.Pico, 100 * units.Pico, 200 * units.Pico}
	loads = []float64{1 * units.Femto, 5 * units.Femto, 10 * units.Femto, 20 * units.Femto, 50 * units.Femto, 100 * units.Femto}
	return slews, loads
}

func makeGenericCell(lib *Library, name string, inputs []string, unate Unateness, rd, inCap, t0 float64) *Cell {
	cell := &Cell{
		Name:     name,
		Pins:     make(map[string]*Pin),
		DriveRes: rd,
		HoldRes:  0.6 * rd,
	}
	for _, in := range inputs {
		cell.Pins[in] = &Pin{Name: in, Dir: Input, Cap: inCap}
	}
	cell.Pins["Y"] = &Pin{Name: "Y", Dir: Output}

	slews, loads := genericAxes()
	mk := func(t0, rd, ks float64) *Table2D {
		vals := make([][]float64, len(slews))
		for i, s := range slews {
			row := make([]float64, len(loads))
			for j, c := range loads {
				row[j] = t0 + rd*c + ks*s
			}
			vals[i] = row
		}
		t, err := NewTable2D(slews, loads, vals)
		if err != nil {
			panic(err)
		}
		return t
	}
	// Rising output is slightly slower than falling (PMOS weaker), and
	// output slew tracks 1.4·Rd·C plus a fraction of the input slew.
	transfer := &TransferCurve{Threshold: 0.3 * lib.Vdd, DCGain: 0.85, TChar: 35 * units.Pico}
	for _, in := range inputs {
		cell.Arcs = append(cell.Arcs, &Arc{
			From:      in,
			To:        "Y",
			Unate:     unate,
			DelayRise: mk(t0*1.1, rd*1.1, 0.18),
			DelayFall: mk(t0, rd, 0.15),
			SlewRise:  mk(t0*0.5, rd*1.5, 0.12),
			SlewFall:  mk(t0*0.45, rd*1.35, 0.10),
			Transfer:  transfer,
		})
	}
	return cell
}

// ResolveCell returns the named cell, or an error naming both the cell
// and the instance that referenced it. A missing cell is a property of
// the input (a netlist referencing a library it was not built against),
// not an internal invariant, so it is reported as an error the caller
// can attach to a diagnostic instead of a panic that takes the whole
// run down.
func (l *Library) ResolveCell(instance, name string) (*Cell, error) {
	c := l.Cell(name)
	if c == nil {
		if instance == "" {
			return nil, fmt.Errorf("liberty: unknown cell %q in library %s", name, l.Name)
		}
		return nil, fmt.Errorf("liberty: instance %q references unknown cell %q in library %s", instance, name, l.Name)
	}
	return c, nil
}

// Scale derives a process-corner variant of a library: delay and slew
// tables are multiplied by delayScale, drive and holding resistances by
// resScale, and the supply by vddScale. A slow corner is (≈1.2, ≈1.3,
// ≈0.9); a fast corner (≈0.85, ≈0.8, ≈1.1). Immunity and transfer curves
// rescale with the supply so the relative noise margins are preserved.
func Scale(lib *Library, name string, delayScale, resScale, vddScale float64) *Library {
	out := NewLibrary(name, lib.Vdd*vddScale)
	if lib.DefaultImmunity != nil {
		out.DefaultImmunity = scaleImmunity(lib.DefaultImmunity, vddScale)
	}
	for _, c := range lib.Cells() {
		nc := &Cell{
			Name:     c.Name,
			Pins:     make(map[string]*Pin, len(c.Pins)),
			DriveRes: c.DriveRes * resScale,
			HoldRes:  c.HoldRes * resScale,
		}
		for name, p := range c.Pins {
			np := &Pin{Name: p.Name, Dir: p.Dir, Cap: p.Cap}
			if p.Immunity != nil {
				np.Immunity = scaleImmunity(p.Immunity, vddScale)
			}
			nc.Pins[name] = np
		}
		for _, a := range c.Arcs {
			na := &Arc{
				From: a.From, To: a.To, Unate: a.Unate,
				DelayRise: scaleTable(a.DelayRise, delayScale),
				DelayFall: scaleTable(a.DelayFall, delayScale),
				SlewRise:  scaleTable(a.SlewRise, delayScale),
				SlewFall:  scaleTable(a.SlewFall, delayScale),
			}
			if a.Transfer != nil {
				tc := *a.Transfer
				tc.Threshold *= vddScale
				na.Transfer = &tc
			}
			nc.Arcs = append(nc.Arcs, na)
		}
		if err := out.AddCell(nc); err != nil {
			// Cell names are unique in the source library.
			panic(err)
		}
	}
	return out
}

func scaleTable(t *Table2D, k float64) *Table2D {
	if t == nil {
		return nil
	}
	vals := make([][]float64, len(t.Vals))
	for i, row := range t.Vals {
		nr := make([]float64, len(row))
		for j, v := range row {
			nr[j] = v * k
		}
		vals[i] = nr
	}
	return &Table2D{
		Slews: append([]float64(nil), t.Slews...),
		Loads: append([]float64(nil), t.Loads...),
		Vals:  vals,
	}
}

func scaleImmunity(ic *ImmunityCurve, k float64) *ImmunityCurve {
	peaks := make([]float64, len(ic.Peaks))
	for i, p := range ic.Peaks {
		peaks[i] = p * k
	}
	return &ImmunityCurve{
		Widths: append([]float64(nil), ic.Widths...),
		Peaks:  peaks,
	}
}
