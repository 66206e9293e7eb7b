package sta

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bind"
	"repro/internal/interval"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/units"
)

func mustDesign(t testing.TB, build func(d *netlist.Design) error) *bind.Design {
	t.Helper()
	d := netlist.New("t")
	if err := build(d); err != nil {
		t.Fatal(err)
	}
	b, err := bind.New(d, liberty.Generic(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func chain2(d *netlist.Design) error {
	if _, err := d.AddPort("in", netlist.In); err != nil {
		return err
	}
	if _, err := d.AddPort("out", netlist.Out); err != nil {
		return err
	}
	if _, err := d.AddInst("u0", "INV_X1"); err != nil {
		return err
	}
	if _, err := d.AddInst("u1", "INV_X2"); err != nil {
		return err
	}
	for _, c := range [][4]string{
		{"u0", "A", "in", "in"}, {"u0", "Y", "mid", "out"},
		{"u1", "A", "mid", "in"}, {"u1", "Y", "out", "out"},
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
}

func TestChainWindowsMatchTables(t *testing.T) {
	b := mustDesign(t, chain2)
	res, err := Run(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lib := b.Lib
	slew := 20 * units.Pico
	load := b.NetworkOf(b.Net.FindNet("mid")).TotalCap()
	cell, err := lib.ResolveCell("", "INV_X1")
	if err != nil {
		t.Fatal(err)
	}
	arc := cell.ArcsTo("Y")[0]
	// Input [0,0] both dirs; INV is negative unate, so mid fall comes
	// from in rise and mid rise from in fall.
	wantFall := arc.DelayFall.Eval(slew, load)
	wantRise := arc.DelayRise.Eval(slew, load)
	mt := timingOf(res, "mid")
	fallHull := mt.Fall.Hull()
	if math.Abs(fallHull.Lo-wantFall) > 1e-15 || math.Abs(fallHull.Hi-wantFall) > 1e-15 {
		t.Fatalf("mid fall = %v, want point %g", mt.Fall, wantFall)
	}
	if riseHull := mt.Rise.Hull(); math.Abs(riseHull.Lo-wantRise) > 1e-15 {
		t.Fatalf("mid rise = %v, want %g", mt.Rise, wantRise)
	}
	// Slews come from the slew tables.
	wantSlewF := arc.SlewFall.Eval(slew, load)
	if math.Abs(mt.SlewFall.Min-wantSlewF) > 1e-15 {
		t.Fatalf("mid slew fall = %+v, want %g", mt.SlewFall, wantSlewF)
	}
	// out is two inversions deep: strictly later than mid.
	ot := timingOf(res, "out")
	if !(ot.Rise.Hull().Lo > mt.Fall.Hull().Lo) {
		t.Fatalf("out rise %v not after mid fall %v", ot.Rise, mt.Fall)
	}
	if !ot.HasActivity() {
		t.Fatal("out inactive")
	}
}

func TestInputWindowSpreadPropagates(t *testing.T) {
	b := mustDesign(t, chain2)
	w := interval.New(0, 100*units.Pico)
	slew := Range{Min: defaultInputSlew, Max: defaultInputSlew}
	in := &Timing{Rise: interval.NewSet(w), Fall: interval.NewSet(w), SlewRise: slew, SlewFall: slew}
	res, err := Run(b, Options{InputTiming: map[string]*Timing{"in": in}})
	if err != nil {
		t.Fatal(err)
	}
	mt := timingOf(res, "mid")
	// The window length must be at least the input spread (delay range
	// only adds to it).
	if totalLength(mt.Fall) < w.Length() {
		t.Fatalf("mid fall window %v narrower than input %v", mt.Fall, w)
	}
	if mt.Fall.Hull().Lo <= 0 {
		t.Fatalf("mid fall starts at %g, want > 0", mt.Fall.Hull().Lo)
	}
}

func TestInputTimingOverride(t *testing.T) {
	b := mustDesign(t, chain2)
	custom := &Timing{
		Rise:     interval.SetOf(50*units.Pico, 60*units.Pico),
		SlewRise: Range{Min: 10 * units.Pico, Max: 40 * units.Pico},
		SlewFall: emptyRange(),
	}
	res, err := Run(b, Options{InputTiming: map[string]*Timing{"in": custom}})
	if err != nil {
		t.Fatal(err)
	}
	mt := timingOf(res, "mid")
	// in only rises -> mid only falls (negative unate).
	if !mt.Rise.IsEmpty() {
		t.Fatalf("mid rise = %v, want empty", mt.Rise)
	}
	if mt.Fall.IsEmpty() {
		t.Fatal("mid fall empty")
	}
	if mt.Fall.Hull().Lo < 50*units.Pico {
		t.Fatalf("mid fall %v starts before the input window", mt.Fall)
	}
	// Slew range at input widens the delay range, so the output window is
	// wider than the input window.
	if totalLength(mt.Fall) < 10*units.Pico {
		t.Fatalf("mid fall window %v lost the input spread", mt.Fall)
	}
}

func TestNonUnateXorPropagatesBothDirections(t *testing.T) {
	b := mustDesign(t, func(d *netlist.Design) error {
		if _, err := d.AddPort("a", netlist.In); err != nil {
			return err
		}
		if _, err := d.AddPort("b", netlist.In); err != nil {
			return err
		}
		if _, err := d.AddInst("x", "XOR2_X1"); err != nil {
			return err
		}
		for _, c := range [][3]string{{"A", "a", "in"}, {"B", "b", "in"}, {"Y", "y", "out"}} {
			dir := netlist.In
			if c[2] == "out" {
				dir = netlist.Out
			}
			if err := d.Connect("x", c[0], c[1], dir); err != nil {
				return err
			}
		}
		return nil
	})
	// Input a only rises; through XOR both output transitions appear.
	custom := &Timing{
		Rise:     interval.SetOf(0, 0),
		SlewRise: Range{Min: 20 * units.Pico, Max: 20 * units.Pico},
		SlewFall: emptyRange(),
	}
	res, err := Run(b, Options{InputTiming: map[string]*Timing{
		"a": custom,
		"b": {SlewRise: emptyRange(), SlewFall: emptyRange()},
	}})
	if err != nil {
		t.Fatal(err)
	}
	yt := timingOf(res, "y")
	if yt.Rise.IsEmpty() || yt.Fall.IsEmpty() {
		t.Fatalf("XOR output = %+v, want both directions active", yt)
	}
}

func TestLoopGetsInfiniteWindows(t *testing.T) {
	b := mustDesign(t, func(d *netlist.Design) error {
		if _, err := d.AddPort("in", netlist.In); err != nil {
			return err
		}
		for _, n := range []string{"g1", "g2"} {
			if _, err := d.AddInst(n, "NAND2_X1"); err != nil {
				return err
			}
		}
		conns := [][4]string{
			{"g1", "A", "in", "in"}, {"g1", "B", "q", "in"}, {"g1", "Y", "p", "out"},
			{"g2", "A", "p", "in"}, {"g2", "B", "in", "in"}, {"g2", "Y", "q", "out"},
		}
		for _, c := range conns {
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
	res, err := Run(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The loop nets end up with infinite (fully pessimistic) windows.
	pt := timingOf(res, "p")
	if !pt.Rise.IsInfinite() || !pt.Fall.IsInfinite() {
		t.Fatalf("loop net p = %+v, want infinite windows", pt)
	}
	if !pt.SlewRise.valid() {
		t.Fatal("loop net slew invalid")
	}
}

func TestPinTimingIncludesWireDelay(t *testing.T) {
	// With lumped (no-SPEF) networks the load pins hang off tiny 1 mΩ
	// segments, so pin arrival ≈ source arrival; this exercises the pin
	// annotation path and the unknown-pin default.
	b := mustDesign(t, chain2)
	res, err := Run(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mid := b.Net.FindNet("mid")
	var load netlist.ConnID
	for _, lc := range b.Net.Loads(mid) {
		load = lc
	}
	pt := res.TimingOfPin(load)
	st := timingOf(res, "mid")
	if pt.Fall.IsEmpty() {
		t.Fatal("pin timing empty")
	}
	if math.Abs(pt.Fall.Hull().Lo-st.Fall.Hull().Lo) > 1e-12 {
		t.Fatalf("pin fall %v far from source %v", pt.Fall, st.Fall)
	}
	// A connection that is no load pin gets the inactive default.
	if res.TimingOfPin(b.Net.Driver(mid)).HasActivity() {
		t.Fatal("a driving pin has activity")
	}
	if timingOf(res, "ghost").HasActivity() {
		t.Fatal("unknown net has activity")
	}
}

func (r Range) widen(v float64) Range {
	return Range{Min: math.Min(r.Min, v), Max: math.Max(r.Max, v)}
}

func TestRangeHelpers(t *testing.T) {
	r := emptyRange()
	if r.valid() {
		t.Fatal("empty range valid")
	}
	r = r.widen(5)
	if !r.valid() || r.Min != 5 || r.Max != 5 {
		t.Fatalf("widen = %+v", r)
	}
	r = r.widen(2)
	if r.Min != 2 || r.Max != 5 {
		t.Fatalf("widen = %+v", r)
	}
	u := r.union(Range{Min: 4, Max: 9})
	if u.Min != 2 || u.Max != 9 {
		t.Fatalf("union = %+v", u)
	}
}

func TestTimingEqualWithin(t *testing.T) {
	a := &Timing{Rise: interval.SetOf(0, 1), SlewRise: Range{1, 2}, SlewFall: emptyRange()}
	b := &Timing{Rise: interval.SetOf(0, 1.0000001), SlewRise: Range{1, 2}, SlewFall: emptyRange()}
	if !a.equalWithin(b, 1e-3) {
		t.Fatal("near-equal timings reported different")
	}
	c := &Timing{Rise: interval.SetOf(0, 2), SlewRise: Range{1, 2}, SlewFall: emptyRange()}
	if a.equalWithin(c, 1e-3) {
		t.Fatal("different timings reported equal")
	}
	d := &Timing{Rise: interval.SetOf(0, 1), Fall: interval.SetOf(0, 1), SlewRise: Range{1, 2}, SlewFall: emptyRange()}
	if a.equalWithin(d, 1e-3) {
		t.Fatal("empty-vs-nonempty reported equal")
	}
}

func BenchmarkRunChain32(b *testing.B) {
	d := netlist.New("chain")
	if _, err := d.AddPort("in", netlist.In); err != nil {
		b.Fatal(err)
	}
	prev := "in"
	for i := 0; i < 32; i++ {
		name := "u" + itoa(i)
		if _, err := d.AddInst(name, "INV_X1"); err != nil {
			b.Fatal(err)
		}
		next := "n" + itoa(i)
		if err := d.Connect(name, "A", prev, netlist.In); err != nil {
			b.Fatal(err)
		}
		if err := d.Connect(name, "Y", next, netlist.Out); err != nil {
			b.Fatal(err)
		}
		prev = next
	}
	bd, err := bind.New(d, liberty.Generic(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(bd, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestDeratesWidenWindows(t *testing.T) {
	b := mustDesign(t, chain2)
	plain, err := Run(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	derated, err := Run(b, Options{EarlyDerate: 0.9, LateDerate: 1.15})
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range []string{"mid", "out"} {
		p := timingOf(plain, net).Fall.Hull()
		d := timingOf(derated, net).Fall.Hull()
		if p.IsEmpty() || d.IsEmpty() {
			continue
		}
		if !(d.Lo <= p.Lo+1e-18 && d.Hi >= p.Hi-1e-18) {
			t.Fatalf("%s: derated %v does not cover plain %v", net, d, p)
		}
		if !(d.Lo < p.Lo && d.Hi > p.Hi) {
			t.Fatalf("%s: derates had no effect: %v vs %v", net, d, p)
		}
	}
	// Identity derates reproduce the plain run exactly.
	ident, err := Run(b, Options{EarlyDerate: 1, LateDerate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSet(timingOf(ident, "mid").Fall, timingOf(plain, "mid").Fall) {
		t.Fatal("identity derates changed windows")
	}
}

func TestQuickWindowMonotonicity(t *testing.T) {
	// Growing an input window can only grow every downstream window.
	b := mustDesign(t, chain2)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lo := r.Float64() * 100 * units.Pico
		len1 := r.Float64() * 100 * units.Pico
		grow := r.Float64() * 100 * units.Pico
		slew := Range{Min: 20 * units.Pico, Max: 20 * units.Pico}
		mk := func(hi float64) map[string]*Timing {
			w := interval.SetOf(lo, hi)
			return map[string]*Timing{"in": {Rise: w, Fall: w, SlewRise: slew, SlewFall: slew}}
		}
		small, err := Run(b, Options{InputTiming: mk(lo + len1)})
		if err != nil {
			return false
		}
		big, err := Run(b, Options{InputTiming: mk(lo + len1 + grow)})
		if err != nil {
			return false
		}
		for _, net := range []string{"mid", "out"} {
			sw := timingOf(small, net)
			bw := timingOf(big, net)
			for _, rise := range []bool{true, false} {
				sh, bh := sw.Window(rise).Hull(), bw.Window(rise).Hull()
				if sh.IsEmpty() {
					continue
				}
				if bh.Lo > sh.Lo+1e-18 || bh.Hi < sh.Hi-1e-18 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// timingOf is the annotation of the net of that name.
func timingOf(r *Result, net string) *Timing { return r.TimingOf(r.design.Net.FindNet(net)) }

// totalLength sums the lengths of a set's windows.
func totalLength(s interval.Set) (sum float64) {
	for _, w := range s.Windows() {
		sum += w.Length()
	}
	return sum
}

// sameSet reports whether two sets hold the same windows.
func sameSet(a, b interval.Set) bool { return slices.Equal(a.Windows(), b.Windows()) }
