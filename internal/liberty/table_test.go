package liberty

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mkTable(t *testing.T) *Table2D {
	t.Helper()
	tbl, err := NewTable2D(
		[]float64{1, 2, 4},
		[]float64{10, 20},
		[][]float64{{1, 2}, {3, 4}, {5, 6}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestNewTable2DValidation(t *testing.T) {
	if _, err := NewTable2D(nil, []float64{1}, nil); err == nil {
		t.Error("empty slews accepted")
	}
	if _, err := NewTable2D([]float64{2, 1}, []float64{1}, [][]float64{{1}, {2}}); err == nil {
		t.Error("descending slews accepted")
	}
	if _, err := NewTable2D([]float64{1}, []float64{1}, [][]float64{{1}, {2}}); err == nil {
		t.Error("row count mismatch accepted")
	}
	if _, err := NewTable2D([]float64{1}, []float64{1, 2}, [][]float64{{1}}); err == nil {
		t.Error("col count mismatch accepted")
	}
}

func TestTableEvalCorners(t *testing.T) {
	tbl := mkTable(t)
	cases := []struct{ s, l, want float64 }{
		{1, 10, 1}, {1, 20, 2}, {2, 10, 3}, {4, 20, 6},
	}
	for _, c := range cases {
		if got := tbl.Eval(c.s, c.l); got != c.want {
			t.Errorf("Eval(%g,%g) = %g, want %g", c.s, c.l, got, c.want)
		}
	}
}

func TestTableEvalInterpolates(t *testing.T) {
	tbl := mkTable(t)
	// Midpoint of slews 1..2 at load 10: between 1 and 3 -> 2.
	if got := tbl.Eval(1.5, 10); got != 2 {
		t.Fatalf("Eval(1.5,10) = %g", got)
	}
	// Bilinear center of the (1..2)x(10..20) cell: mean of 1,2,3,4 = 2.5.
	if got := tbl.Eval(1.5, 15); got != 2.5 {
		t.Fatalf("Eval(1.5,15) = %g", got)
	}
}

func TestTableEvalClamps(t *testing.T) {
	tbl := mkTable(t)
	if got := tbl.Eval(0.1, 5); got != 1 {
		t.Fatalf("below-range Eval = %g", got)
	}
	if got := tbl.Eval(100, 100); got != 6 {
		t.Fatalf("above-range Eval = %g", got)
	}
}

// TestTableConstant: a 1×1 table holds its one value at every slew and
// load, inside or outside its one-point grid.
func TestTableConstant(t *testing.T) {
	c := &Table2D{Slews: []float64{0}, Loads: []float64{0}, Vals: [][]float64{{7}}}
	if got := c.Eval(123, -5); got != 7 {
		t.Fatalf("1x1 Eval = %g", got)
	}
}

func TestTableMinMax(t *testing.T) {
	tbl := mkTable(t)
	if tbl.MaxVal() != 6 || tbl.MinVal() != 1 {
		t.Fatalf("min/max = %g/%g", tbl.MinVal(), tbl.MaxVal())
	}
}

func TestQuickTableEvalWithinBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tbl, err := NewTable2D(
			[]float64{0, 1, 3},
			[]float64{0, 2},
			[][]float64{
				{r.Float64(), r.Float64()},
				{r.Float64(), r.Float64()},
				{r.Float64(), r.Float64()},
			},
		)
		if err != nil {
			return false
		}
		for k := 0; k < 30; k++ {
			v := tbl.Eval(r.Float64()*5-1, r.Float64()*4-1)
			if v < tbl.MinVal()-1e-12 || v > tbl.MaxVal()+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickTableEvalMonotoneForMonotoneData(t *testing.T) {
	// For a table monotone in load, Eval must be monotone in load too.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tbl := mustTable(t)
		l1 := r.Float64() * 30
		l2 := l1 + r.Float64()*10
		s := r.Float64() * 5
		return tbl.Eval(s, l1) <= tbl.Eval(s, l2)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func mustTable(t *testing.T) *Table2D {
	tbl, err := NewTable2D(
		[]float64{1, 2, 4},
		[]float64{10, 20},
		[][]float64{{1, 2}, {3, 4}, {5, 6}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestImmunityCurve(t *testing.T) {
	ic, err := NewImmunityCurve(
		[]float64{0, 10e-12, 40e-12},
		[]float64{1.1, 0.8, 0.5},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := ic.MaxPeak(0); got != 1.1 {
		t.Fatalf("MaxPeak(0) = %g", got)
	}
	if got := ic.MaxPeak(5e-12); math.Abs(got-0.95) > 1e-12 {
		t.Fatalf("MaxPeak(5ps) = %g", got)
	}
	if got := ic.MaxPeak(1); got != 0.5 {
		t.Fatalf("MaxPeak(huge) = %g (clamp)", got)
	}
}

func TestImmunityCurveValidation(t *testing.T) {
	if _, err := NewImmunityCurve([]float64{0, 1}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewImmunityCurve([]float64{1, 0}, []float64{1, 1}); err == nil {
		t.Error("descending widths accepted")
	}
	if _, err := NewImmunityCurve([]float64{0, 1}, []float64{0.5, 0.9}); err == nil {
		t.Error("increasing peaks accepted")
	}
	if _, err := NewImmunityCurve(nil, nil); err == nil {
		t.Error("empty curve accepted")
	}
}

func TestDefaultImmunityShape(t *testing.T) {
	ic := DefaultImmunity(1.2, 0.48, 30e-12)
	if got := ic.MaxPeak(0); math.Abs(got-1.2) > 1e-9 {
		t.Fatalf("zero-width peak = %g, want vdd", got)
	}
	// Asymptotically approaches the DC margin.
	wide := ic.MaxPeak(16 * 30e-12)
	if wide < 0.48 || wide > 0.55 {
		t.Fatalf("wide-glitch peak = %g, want near 0.48", wide)
	}
	// Monotone non-increasing across the characterized range.
	for i := 1; i < len(ic.Widths); i++ {
		if ic.Peaks[i] > ic.Peaks[i-1] {
			t.Fatalf("peaks not monotone at %d", i)
		}
	}
}

func TestTransferCurve(t *testing.T) {
	tc, err := NewTransferCurve(0.4, 0.8, 20e-12)
	if err != nil {
		t.Fatal(err)
	}
	if got := tc.OutputPeak(0.3, 100e-12); got != 0 {
		t.Fatalf("sub-threshold output = %g", got)
	}
	// Wide glitch: gain -> DCGain.
	got := tc.OutputPeak(0.9, 2000e-12)
	want := 0.8 * (0.9 - 0.4) * (2000.0 / 2020.0)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("OutputPeak = %g, want %g", got, want)
	}
	// Negative glitch magnitude handled.
	if got := tc.OutputPeak(-0.9, 2000e-12); math.Abs(got-want) > 1e-12 {
		t.Fatalf("negative glitch OutputPeak = %g", got)
	}
	if got := tc.Gain(0); got != 0 {
		t.Fatalf("Gain(0) = %g", got)
	}
	if tc.Gain(1) >= 0.8+1e-12 {
		t.Fatalf("Gain exceeds DCGain")
	}
}

func TestTransferCurveValidation(t *testing.T) {
	if _, err := NewTransferCurve(-0.1, 0.8, 1e-12); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, err := NewTransferCurve(0.1, -0.8, 1e-12); err == nil {
		t.Error("negative gain accepted")
	}
	if _, err := NewTransferCurve(0.1, 0.8, 0); err == nil {
		t.Error("zero tchar accepted")
	}
}
