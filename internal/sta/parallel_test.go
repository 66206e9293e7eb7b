package sta

import (
	"context"
	"slices"
	"testing"

	"repro/internal/interval"
	"repro/internal/netlist"
	"repro/internal/units"
)

// wideMesh builds three levels of n instances each, wide enough that every
// level and the port list fan out: in_i → INV → a_i; NAND2(a_i, a_{i+1}) →
// b_i; XOR2(b_i, a_i) → out_i. With loop set, a NAND/INV cycle off in_0
// adds a feedback region.
func wideMesh(n int, loop bool) func(d *netlist.Design) error {
	return func(d *netlist.Design) error {
		type conn struct {
			inst, pin, net string
			dir            netlist.Dir
		}
		var conns []conn
		inst := func(name, cell string, ins []string, out string) error {
			if _, err := d.AddInst(name, cell); err != nil {
				return err
			}
			for i, in := range ins {
				conns = append(conns, conn{name, string(rune('A' + i)), in, netlist.In})
			}
			conns = append(conns, conn{name, "Y", out, netlist.Out})
			return nil
		}
		for i := 0; i < n; i++ {
			s, next := itoa(i), itoa((i+1)%n)
			if _, err := d.AddPort("in"+s, netlist.In); err != nil {
				return err
			}
			if _, err := d.AddPort("out"+s, netlist.Out); err != nil {
				return err
			}
			for _, err := range []error{
				inst("u1_"+s, "INV_X1", []string{"in" + s}, "a"+s),
				inst("u2_"+s, "NAND2_X1", []string{"a" + s, "a" + next}, "b"+s),
				inst("u3_"+s, "XOR2_X1", []string{"b" + s, "a" + s}, "out"+s),
			} {
				if err != nil {
					return err
				}
			}
		}
		if loop {
			for _, err := range []error{
				inst("x0", "NAND2_X1", []string{"in0", "fb"}, "y"),
				inst("x1", "INV_X1", []string{"y"}, "fb"),
			} {
				if err != nil {
					return err
				}
			}
		}
		for _, c := range conns {
			if err := d.Connect(c.inst, c.pin, c.net, c.dir); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestParallelRunMatchesSerial pins the level-parallel pass to the serial
// one, field for field: from scratch, after an incremental padding update
// on the parallel-built result, and through the feedback fallback (which
// re-runs with the result's own fan-out).
func TestParallelRunMatchesSerial(t *testing.T) {
	const n = 3 * parallelBelow
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		loop bool
	}{{"acyclic", false}, {"feedback", true}} {
		t.Run(tc.name, func(t *testing.T) {
			b := mustDesign(t, wideMesh(n, tc.loop))
			padding := make([]float64, b.Net.NumNets())
			opts := Options{
				WindowPadding: padding, ClockPeriod: 1 * units.Nano,
				InputTiming: map[string]*Timing{"in7": {
					Rise:     interval.SetOf(10*units.Pico, 40*units.Pico),
					SlewRise: Range{Min: 15 * units.Pico, Max: 30 * units.Pico},
					SlewFall: emptyRange(),
				}},
			}
			serial, err := Run(b, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				par, err := RunCtx(ctx, b, opts, workers)
				if err != nil {
					t.Fatal(err)
				}
				requireEqualResults(t, par, serial)
			}

			par, err := RunCtx(ctx, b, opts, 4)
			if err != nil {
				t.Fatal(err)
			}
			changed := []netlist.NetID{b.Net.FindNet("a3"), b.Net.FindNet("b" + itoa(100))}
			padding[changed[0]], padding[changed[1]] = 25*units.Pico, 10*units.Pico
			parDirty, err := par.UpdatePaddingCtx(ctx, opts, changed)
			if err != nil {
				t.Fatal(err)
			}
			serDirty, err := serial.UpdatePaddingCtx(ctx, opts, changed)
			if err != nil {
				t.Fatal(err)
			}
			requireEqualResults(t, par, serial)
			if !slices.Equal(parDirty, serDirty) {
				t.Fatalf("dirty sets differ: %d nets parallel, %d serial", len(parDirty), len(serDirty))
			}
			fresh, err := Run(b, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireEqualResults(t, par, fresh)
		})
	}
}
