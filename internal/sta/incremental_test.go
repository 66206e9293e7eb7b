package sta

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/netlist"
	"repro/internal/units"
)

// twoChains builds two independent inverter chains in one design, so an
// incremental update on one chain must leave the other untouched.
func twoChains(d *netlist.Design) error {
	for _, s := range []string{"1", "2"} {
		if _, err := d.AddPort("in"+s, netlist.In); err != nil {
			return err
		}
		if _, err := d.AddPort("out"+s, netlist.Out); err != nil {
			return err
		}
		if _, err := d.AddInst("u"+s, "INV_X1"); err != nil {
			return err
		}
		if _, err := d.AddInst("v"+s, "INV_X2"); err != nil {
			return err
		}
		for _, c := range [][4]string{
			{"u" + s, "A", "in" + s, "in"}, {"u" + s, "Y", "mid" + s, "out"},
			{"v" + s, "A", "mid" + s, "in"}, {"v" + s, "Y", "out" + s, "out"},
		} {
			dir := netlist.In
			if c[3] == "out" {
				dir = netlist.Out
			}
			if err := d.Connect(c[0], c[1], c[2], dir); err != nil {
				return err
			}
		}
	}
	return nil
}

// requireEqualResults compares two results field for field: every net
// and pin annotation and every required time, exactly (the incremental
// and the parallel paths must run the same arithmetic as a fresh serial
// run).
func requireEqualResults(t *testing.T, got, want *Result) {
	t.Helper()
	d := want.design.Net
	for id := range want.nets {
		if got.hasNet[id] != want.hasNet[id] || !reflect.DeepEqual(got.nets[id], want.nets[id]) {
			t.Fatalf("net %s: got %v %+v, want %v %+v", d.NetName(netlist.NetID(id)),
				got.hasNet[id], got.nets[id], want.hasNet[id], want.nets[id])
		}
	}
	if !reflect.DeepEqual(got.pins, want.pins) || !reflect.DeepEqual(got.hasPin, want.hasPin) {
		t.Fatal("pin annotations differ")
	}
	if !reflect.DeepEqual(got.required, want.required) {
		t.Fatalf("required times differ: got %v, want %v", got.required, want.required)
	}
	if got.early != want.early || got.late != want.late {
		t.Fatalf("derates differ: got %v/%v, want %v/%v", got.early, got.late, want.early, want.late)
	}
}

func TestUpdatePaddingMatchesFreshRun(t *testing.T) {
	b := mustDesign(t, twoChains)
	padding := make([]float64, b.Net.NumNets())
	opts := Options{WindowPadding: padding, ClockPeriod: 1 * units.Nano}
	res, err := Run(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Every evalInst call of the update, by instance: value tables have no
	// pointer identity to betray a recomputation, and a count also catches
	// one that lands on the value it replaced.
	var evaluated []string
	res.onEval = func(inst netlist.InstID) { evaluated = append(evaluated, b.Net.InstName(inst)) }

	mid1 := b.Net.FindNet("mid1")
	padding[mid1] = 30 * units.Pico
	dirty, err := res.UpdatePaddingCtx(context.Background(), opts, []netlist.NetID{mid1})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the padded cone, as ascending net IDs.
	want := []netlist.NetID{mid1, b.Net.FindNet("out1")}
	slices.Sort(want)
	if !slices.Equal(dirty, want) {
		t.Fatalf("dirty = %v, want mid1 and out1 (%v)", dirty, want)
	}
	// Exactly the padded net's driver and its fanout, once each, in level
	// order: the untouched chain (u2, v2) is not evaluated at all.
	if want := []string{"u1", "v1"}; !slices.Equal(evaluated, want) {
		t.Fatalf("update evaluated %v, want exactly %v", evaluated, want)
	}
	fresh, err := Run(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, res, fresh)

	// Growing the same net again keeps matching (the double-padding
	// hazard: a stale padded annotation merged into the re-evaluation
	// would pad twice).
	evaluated = evaluated[:0]
	padding[mid1] = 55 * units.Pico
	if _, err := res.UpdatePaddingCtx(context.Background(), opts, []netlist.NetID{mid1}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"u1", "v1"}; !slices.Equal(evaluated, want) {
		t.Fatalf("second update evaluated %v, want exactly %v", evaluated, want)
	}
	fresh, err = Run(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, res, fresh)
}

func TestUpdatePaddingPortNetIsNoop(t *testing.T) {
	b := mustDesign(t, twoChains)
	padding := make([]float64, b.Net.NumNets())
	opts := Options{WindowPadding: padding}
	res, err := Run(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Port-driven nets are seeded, never padded, so a padding entry on one
	// dirties nothing.
	in1 := b.Net.FindNet("in1")
	padding[in1] = 40 * units.Pico
	dirty, err := res.UpdatePaddingCtx(context.Background(), opts, []netlist.NetID{in1})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) != 0 {
		t.Fatalf("dirty = %v, want empty", dirty)
	}
	fresh, err := Run(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, res, fresh)
}

func TestUpdatePaddingFeedbackFallsBackToFullRun(t *testing.T) {
	b := mustDesign(t, func(d *netlist.Design) error {
		if _, err := d.AddPort("in", netlist.In); err != nil {
			return err
		}
		for _, n := range []string{"g1", "g2"} {
			if _, err := d.AddInst(n, "NAND2_X1"); err != nil {
				return err
			}
		}
		for _, c := range [][4]string{
			{"g1", "A", "in", "in"}, {"g1", "B", "q", "in"}, {"g1", "Y", "p", "out"},
			{"g2", "A", "p", "in"}, {"g2", "B", "in", "in"}, {"g2", "Y", "q", "out"},
		} {
			dir := netlist.In
			if c[3] == "out" {
				dir = netlist.Out
			}
			if err := d.Connect(c[0], c[1], c[2], dir); err != nil {
				return err
			}
		}
		return nil
	})
	padding := make([]float64, b.Net.NumNets())
	opts := Options{WindowPadding: padding}
	res, err := Run(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := b.Net.FindNet("p")
	padding[p] = 25 * units.Pico
	dirty, err := res.UpdatePaddingCtx(context.Background(), opts, []netlist.NetID{p})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) != len(res.nets) || !slices.IsSorted(dirty) {
		t.Fatalf("feedback fallback dirtied %d of %d nets: %v", len(dirty), len(res.nets), dirty)
	}
	fresh, err := Run(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, res, fresh)
}
