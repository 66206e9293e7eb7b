package liberty

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/units"
)

// mustCell resolves a cell the test depends on, failing the test (not
// the process) when the library is missing it.
func mustCell(t testing.TB, lib *Library, name string) *Cell {
	t.Helper()
	c, err := lib.ResolveCell("", name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGenericLibraryValidates(t *testing.T) {
	lib := Generic()
	if err := lib.Validate(); err != nil {
		t.Fatal(err)
	}
	if lib.Vdd != 1.2 {
		t.Fatalf("vdd = %g", lib.Vdd)
	}
	if len(lib.cells) != 14 {
		t.Fatalf("cells = %d", len(lib.cells))
	}
}

func TestGenericCellStructure(t *testing.T) {
	lib := Generic()
	inv := lib.Cell("INV_X1")
	if inv == nil {
		t.Fatal("missing INV_X1")
	}
	if len(inv.InputPins()) != 1 || len(inv.OutputPins()) != 1 {
		t.Fatalf("INV pins: %d in, %d out", len(inv.InputPins()), len(inv.OutputPins()))
	}
	if inv.Pin("A").Cap <= 0 {
		t.Fatal("INV input cap not positive")
	}
	nand := mustCell(t, lib, "NAND2_X1")
	if len(nand.InputPins()) != 2 {
		t.Fatalf("NAND2 inputs = %d", len(nand.InputPins()))
	}
	if len(nand.ArcsTo("Y")) != 2 {
		t.Fatalf("ArcsTo(Y) = %d", len(nand.ArcsTo("Y")))
	}
	if nand.Arc("A", "Y") == nil || nand.Arc("Y", "A") != nil {
		t.Fatal("Arc lookup wrong")
	}
}

func TestGenericDriveStrengthOrdering(t *testing.T) {
	lib := Generic()
	x1 := mustCell(t, lib, "INV_X1")
	x4 := mustCell(t, lib, "INV_X4")
	if !(x4.DriveRes < x1.DriveRes) {
		t.Fatalf("X4 drive %g not stronger than X1 %g", x4.DriveRes, x1.DriveRes)
	}
	if !(x4.HoldRes < x1.HoldRes) {
		t.Fatal("X4 hold resistance not stronger")
	}
	// Stronger cells are faster at the same load.
	s, l := 20*units.Pico, 20*units.Femto
	d1 := x1.Arc("A", "Y").DelayRise.Eval(s, l)
	d4 := x4.Arc("A", "Y").DelayRise.Eval(s, l)
	if !(d4 < d1) {
		t.Fatalf("X4 delay %g not faster than X1 %g", d4, d1)
	}
}

func TestGenericDelayMonotoneInLoad(t *testing.T) {
	lib := Generic()
	arc := mustCell(t, lib, "BUF_X1").Arc("A", "Y")
	prev := -1.0
	for _, load := range []float64{1e-15, 1e-14, 5e-14, 1e-13} {
		d := arc.DelayFall.Eval(20*units.Pico, load)
		if d <= prev {
			t.Fatalf("delay not increasing with load at %g", load)
		}
		prev = d
	}
}

func TestGenericUnateness(t *testing.T) {
	lib := Generic()
	if mustCell(t, lib, "INV_X1").Arcs[0].Unate != NegativeUnate {
		t.Error("INV not negative unate")
	}
	if mustCell(t, lib, "BUF_X1").Arcs[0].Unate != PositiveUnate {
		t.Error("BUF not positive unate")
	}
	if mustCell(t, lib, "XOR2_X1").Arcs[0].Unate != NonUnate {
		t.Error("XOR not non-unate")
	}
}

func TestLibraryImmunityFallback(t *testing.T) {
	lib := Generic()
	pin := mustCell(t, lib, "INV_X1").Pin("A")
	if lib.Immunity(pin) != lib.DefaultImmunity {
		t.Fatal("pin without own curve should use default")
	}
	own := DefaultImmunity(1.2, 0.6, 10e-12)
	pin.Immunity = own
	if lib.Immunity(pin) != own {
		t.Fatal("pin's own curve not used")
	}
	if lib.Immunity(nil) != lib.DefaultImmunity {
		t.Fatal("nil pin should use default")
	}
}

func TestLibraryAddDuplicate(t *testing.T) {
	lib := NewLibrary("t", 1.0)
	c := &Cell{Name: "X", Pins: map[string]*Pin{}, DriveRes: 1, HoldRes: 1}
	if err := lib.AddCell(c); err != nil {
		t.Fatal(err)
	}
	if err := lib.AddCell(c); err == nil {
		t.Fatal("duplicate cell accepted")
	}
}

func TestCellValidateErrors(t *testing.T) {
	bad := &Cell{
		Name: "BAD",
		Pins: map[string]*Pin{
			"A": {Name: "A", Dir: Input, Cap: 1e-15},
			"Y": {Name: "Y", Dir: Output},
		},
		DriveRes: 100,
		HoldRes:  100,
		Arcs:     []*Arc{{From: "Z", To: "Y"}},
	}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "bad from-pin") {
		t.Fatalf("Validate = %v", err)
	}
	bad.Arcs[0].From = "A"
	bad.Arcs[0].To = "A"
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "bad to-pin") {
		t.Fatalf("Validate = %v", err)
	}
	bad.Arcs[0].To = "Y"
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "missing tables") {
		t.Fatalf("Validate = %v", err)
	}
	bad.Arcs = nil
	bad.DriveRes = 0
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "resistance") {
		t.Fatalf("Validate = %v", err)
	}
}

func TestLibraryValidateErrors(t *testing.T) {
	lib := NewLibrary("t", 0)
	if err := lib.Validate(); err == nil {
		t.Fatal("zero vdd accepted")
	}
	lib.Vdd = 1
	if err := lib.Validate(); err == nil {
		t.Fatal("missing default immunity accepted")
	}
}

func TestResolveCellUnknown(t *testing.T) {
	lib := Generic()
	if _, err := lib.ResolveCell("u42", "DOES_NOT_EXIST"); err == nil {
		t.Fatal("ResolveCell on unknown did not error")
	} else {
		msg := err.Error()
		if !strings.Contains(msg, "DOES_NOT_EXIST") || !strings.Contains(msg, "u42") {
			t.Fatalf("error does not name cell and instance: %v", err)
		}
	}
	// Without an instance the error still names the cell and library.
	if _, err := lib.ResolveCell("", "DOES_NOT_EXIST"); err == nil {
		t.Fatal("ResolveCell without instance did not error")
	} else if !strings.Contains(err.Error(), "DOES_NOT_EXIST") {
		t.Fatalf("error does not name cell: %v", err)
	}
	if c, err := lib.ResolveCell("u1", "INV_X1"); err != nil || c == nil || c.Name != "INV_X1" {
		t.Fatalf("ResolveCell(INV_X1) = %v, %v", c, err)
	}
}

func TestParseWriteRoundTrip(t *testing.T) {
	lib := Generic()
	var sb strings.Builder
	if err := Write(&sb, lib); err != nil {
		t.Fatal(err)
	}
	lib2, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := lib2.Validate(); err != nil {
		t.Fatalf("round-tripped library invalid: %v", err)
	}
	if len(lib2.cells) != len(lib.cells) || lib2.Vdd != lib.Vdd {
		t.Fatal("round trip changed library")
	}
	// Spot-check numeric fidelity through a table evaluation.
	a1 := mustCell(t, lib, "NAND2_X1").Arc("A", "Y")
	a2 := mustCell(t, lib2, "NAND2_X1").Arc("A", "Y")
	s, l := 37*units.Pico, 13*units.Femto
	if g1, g2 := a1.DelayRise.Eval(s, l), a2.DelayRise.Eval(s, l); g1 != g2 {
		t.Fatalf("table fidelity: %g vs %g", g1, g2)
	}
	if a2.Transfer == nil || a2.Transfer.DCGain != a1.Transfer.DCGain {
		t.Fatal("transfer curve lost in round trip")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"vdd 1.0",                                   // before library
		"library a\nlibrary b",                      // duplicate
		"library a\nvdd x",                          // bad number
		"library a\ncell c\ncell d",                 // unterminated cell
		"library a\npin A in 1e-15",                 // pin outside cell
		"library a\ncell c\npin A weird",            // bad pin
		"library a\ncell c\narc A Y diag",           // bad unateness
		"library a\ncell c\ntransfer 0.1 0.8 1e-12", // transfer before arc
		"library a\ncell c\narc A Y pos\ntable delay_rise 2 1 0 1 2 3", // short table
		"library a\ncell c\narc A Y pos\ntable bogus 1 1 0 0 1",        // bad kind
		"library a\nend",                      // end outside cell
		"library a\ndefault_immunity 2 0 1 1", // immunity arity
		"",                                    // no library
		"library a\ncell c",                   // EOF inside cell
	}
	for _, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseImmunityPerPin(t *testing.T) {
	src := `library t
vdd 1.0
default_immunity 2 0 1e-11 0.9 0.5
cell C
pin A in 1e-15
pin Y out
drive 100
hold 100
immunity A 2 0 1e-11 0.8 0.4
arc A Y pos
table delay_rise 1 1 0 0 1e-12
table delay_fall 1 1 0 0 1e-12
table slew_rise 1 1 0 0 1e-12
table slew_fall 1 1 0 0 1e-12
end
`
	lib, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	pin := mustCell(t, lib, "C").Pin("A")
	if pin.Immunity == nil || pin.Immunity.MaxPeak(0) != 0.8 {
		t.Fatalf("per-pin immunity not parsed: %+v", pin.Immunity)
	}
	if err := lib.Validate(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTableEval(b *testing.B) {
	lib := Generic()
	arc := mustCell(b, lib, "INV_X1").Arc("A", "Y")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arc.DelayRise.Eval(33*units.Pico, 17*units.Femto)
	}
}

func TestScaleCorners(t *testing.T) {
	base := Generic()
	slow := Scale(base, "slow", 1.2, 1.3, 0.9)
	if err := slow.Validate(); err != nil {
		t.Fatal(err)
	}
	if slow.Name != "slow" || slow.Vdd != base.Vdd*0.9 {
		t.Fatalf("header: %s vdd=%g", slow.Name, slow.Vdd)
	}
	bi := mustCell(t, base, "INV_X1")
	si := mustCell(t, slow, "INV_X1")
	if si.HoldRes != bi.HoldRes*1.3 {
		t.Fatalf("hold res = %g", si.HoldRes)
	}
	s, l := 20*units.Pico, 20*units.Femto
	bd := bi.Arc("A", "Y").DelayRise.Eval(s, l)
	sd := si.Arc("A", "Y").DelayRise.Eval(s, l)
	if units.RelErr(sd, bd*1.2, 1e-15) > 1e-12 {
		t.Fatalf("delay scale: %g vs %g", sd, bd*1.2)
	}
	// Immunity scaled with supply.
	if got := slow.DefaultImmunity.MaxPeak(0); units.RelErr(got, base.DefaultImmunity.MaxPeak(0)*0.9, 1e-12) > 1e-9 {
		t.Fatalf("immunity scale: %g", got)
	}
	// Transfer threshold follows the supply too.
	bt := bi.Arc("A", "Y").Transfer.Threshold
	st := si.Arc("A", "Y").Transfer.Threshold
	if units.RelErr(st, bt*0.9, 1e-12) > 1e-9 {
		t.Fatalf("threshold scale: %g vs %g", st, bt*0.9)
	}
	// The base library is untouched.
	if mustCell(t, base, "INV_X1").HoldRes != bi.HoldRes {
		t.Fatal("Scale mutated the source library")
	}
}

// TestArcIndex: ArcsTo answers from the cell's index — the
// arcs of a pin in Arcs order, nothing allocated per query — whoever asks
// first (every worker of a timing level does), and an arc added after a
// query is seen by the next.
func TestArcIndex(t *testing.T) {
	cell := mustCell(t, Generic(), "NAND2_X1")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if to := cell.ArcsTo("Y"); len(to) != 2 || to[0] != cell.Arcs[0] || to[1] != cell.Arcs[1] {
				t.Errorf("ArcsTo(Y) = %v, want the cell's two arcs in order", to)
			}
		}()
	}
	wg.Wait()
	if n := testing.AllocsPerRun(100, func() {
		if len(cell.ArcsTo("Y")) != 2 || cell.ArcsTo("A") != nil {
			t.Fatal("arc index answers wrongly")
		}
	}); n != 0 {
		t.Errorf("ArcsTo: %v allocations per query, want 0", n)
	}
	extra := *cell.Arcs[0]
	extra.From = "C"
	grown := &Cell{Name: "grown", Arcs: []*Arc{cell.Arcs[0]}}
	if len(grown.ArcsTo("Y")) != 1 {
		t.Fatal("one arc to Y expected")
	}
	grown.Arcs = append(grown.Arcs, &extra)
	if to := grown.ArcsTo("Y"); len(to) != 2 || to[1] != &extra {
		t.Fatalf("after adding an arc ArcsTo(Y) = %v", to)
	}
}

// Arc returns the arc from one pin to another, or nil.
func (c *Cell) Arc(from, to string) *Arc {
	for _, a := range c.Arcs {
		if a.From == from && a.To == to {
			return a
		}
	}
	return nil
}
