package waveform

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSortsAndDedups(t *testing.T) {
	w, err := New(Point{2, 5}, Point{0, 1}, Point{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	pts := w.pts
	if len(pts) != 2 || pts[0].T != 0 || pts[1].T != 2 {
		t.Fatalf("points = %v", pts)
	}
}

func TestNewRejectsConflictingDuplicates(t *testing.T) {
	if _, err := New(Point{1, 0}, Point{1, 5}); err == nil {
		t.Fatal("want error for conflicting duplicate times")
	}
}

func TestNewRejectsNaN(t *testing.T) {
	if _, err := New(Point{math.NaN(), 0}); err == nil {
		t.Fatal("want error for NaN time")
	}
	if _, err := New(Point{0, math.Inf(1)}); err == nil {
		t.Fatal("want error for Inf voltage")
	}
}

func TestEvalInterpolatesAndExtrapolates(t *testing.T) {
	w := MustNew(Point{0, 0}, Point{10, 10})
	cases := []struct{ t, want float64 }{
		{-5, 0}, {0, 0}, {5, 5}, {10, 10}, {15, 10},
	}
	for _, c := range cases {
		if got := w.Eval(c.t); got != c.want {
			t.Errorf("Eval(%g) = %g, want %g", c.t, got, c.want)
		}
	}
}

func TestEvalZeroWaveform(t *testing.T) {
	var w PWL
	if _, v := w.Peak(); w.Eval(3) != 0 || v != 0 {
		t.Fatal("zero waveform misbehaves")
	}
}

// TestConstant: a waveform of one breakpoint holds its value at every
// time, and the zero waveform is zero everywhere.
func TestConstant(t *testing.T) {
	w := MustNew(Point{V: 1.8})
	if w.Eval(-100) != 1.8 || w.Eval(100) != 1.8 {
		t.Fatal("one breakpoint not constant")
	}
	if _, v := (PWL{}).Peak(); v != 0 || (PWL{}).Eval(5) != 0 {
		t.Fatal("zero waveform not zero")
	}
}

func TestPeakSigned(t *testing.T) {
	w := MustNew(Point{0, 0}, Point{1, -0.9}, Point{2, 0.5}, Point{3, 0})
	tt, v := w.Peak()
	if v != -0.9 || tt != 1 {
		t.Fatalf("Peak = (%g, %g)", tt, v)
	}
}

// TestMaxMin: a waveform's extremes lie on its breakpoints, and Peak
// reports the one of larger magnitude with its sign, on either side of
// zero.
func TestMaxMin(t *testing.T) {
	w := MustNew(Point{0, 1}, Point{1, -2}, Point{2, 3})
	if tt, v := w.Peak(); v != 3 || tt != 2 {
		t.Fatalf("Peak = (%g, %g), want (2, 3)", tt, v)
	}
	if tt, v := w.Negate().Peak(); v != -3 || tt != 2 {
		t.Fatalf("negated Peak = (%g, %g), want (2, -3)", tt, v)
	}
	if tt, v := w.ScaleV(0.5).Add(w.Negate()).Peak(); v != -1.5 || tt != 2 {
		t.Fatalf("Peak of the halved difference = (%g, %g), want (2, -1.5)", tt, v)
	}
}

func TestAddSuperposition(t *testing.T) {
	a := MustNew(Point{0, 0}, Point{2, 2})
	b := MustNew(Point{1, 0}, Point{3, 2})
	s := a.Add(b)
	cases := []struct{ t, want float64 }{
		{0, 0}, {1, 1}, {2, 3}, {3, 4}, {4, 4},
	}
	for _, c := range cases {
		if got := s.Eval(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("sum.Eval(%g) = %g, want %g", c.t, got, c.want)
		}
	}
}

func TestAddWithZero(t *testing.T) {
	a := MustNew(Point{0, 1}, Point{1, 2})
	if got := a.Add(PWL{}); !pwlEqual(got, a) {
		t.Fatalf("a+0 = %v", got)
	}
	if got := (PWL{}).Add(a); !pwlEqual(got, a) {
		t.Fatalf("0+a = %v", got)
	}
}

func pwlEqual(a, b PWL) bool {
	ap, bp := a.pts, b.pts
	if len(ap) != len(bp) {
		return false
	}
	for i := range ap {
		if ap[i] != bp[i] {
			return false
		}
	}
	return true
}

func TestWidthAbove(t *testing.T) {
	w := MustNew(Point{0, 0}, Point{1, 1}, Point{2, 0})
	if got := w.WidthAbove(0.5); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("WidthAbove(0.5) = %g, want 1", got)
	}
	if got := w.WidthAbove(2); got != 0 {
		t.Fatalf("WidthAbove(2) = %g, want 0", got)
	}
	if got := w.WidthAbove(-1); math.Abs(got-2.0) > 1e-12 {
		// Above -1 for the whole span.
		t.Fatalf("WidthAbove(-1) = %g, want 2", got)
	}
}

func TestArea(t *testing.T) {
	w := MustNew(Point{0, 0}, Point{1, 1}, Point{2, 0})
	if got := w.Area(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("Area = %g, want 1", got)
	}
}

// TestSample: evaluating a ramp on a uniform grid reads the ramp back at
// every grid point, both ends included.
func TestSample(t *testing.T) {
	w := MustNew(Point{0, 0}, Point{10, 10})
	for i := 0; i <= 10; i++ {
		if got := w.Eval(float64(i)); got != float64(i) {
			t.Fatalf("Eval(%d) = %g", i, got)
		}
	}
}

func TestShiftScale(t *testing.T) {
	w := MustNew(Point{0, 1}, Point{1, 2})
	if got := w.ScaleV(2).Eval(1); got != 4 {
		t.Fatalf("scaled Eval(1) = %g", got)
	}
	if got := w.Negate().Eval(1); got != -2 {
		t.Fatalf("Negate Eval = %g", got)
	}
}

func TestSpan(t *testing.T) {
	if _, _, ok := (PWL{}).Span(); ok {
		t.Fatal("zero waveform has a span")
	}
	lo, hi, ok := MustNew(Point{1, 0}, Point{4, 0}).Span()
	if !ok || lo != 1 || hi != 4 {
		t.Fatalf("Span = %g %g %v", lo, hi, ok)
	}
}

func randPWL(r *rand.Rand) PWL {
	n := 2 + r.Intn(8)
	pts := make([]Point, n)
	t := r.Float64() * 10
	for i := range pts {
		pts[i] = Point{T: t, V: r.Float64()*4 - 2}
		t += 0.01 + r.Float64()
	}
	return MustNew(pts...)
}

func TestQuickAddCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randPWL(r), randPWL(r)
		s1, s2 := a.Add(b), b.Add(a)
		for k := 0; k < 30; k++ {
			tt := r.Float64()*30 - 5
			if math.Abs(s1.Eval(tt)-s2.Eval(tt)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickAddPointwise(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randPWL(r), randPWL(r)
		s := a.Add(b)
		for k := 0; k < 30; k++ {
			tt := r.Float64()*30 - 5
			if math.Abs(s.Eval(tt)-(a.Eval(tt)+b.Eval(tt))) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickPeakIsBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := randPWL(r)
		_, peak := w.Peak()
		for k := 0; k < 50; k++ {
			tt := r.Float64()*30 - 5
			if math.Abs(w.Eval(tt)) > math.Abs(peak)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickWidthAboveMonotone(t *testing.T) {
	// Raising the threshold can only shrink the width.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := randPWL(r)
		l1 := r.Float64()*2 - 1
		l2 := l1 + r.Float64()
		return w.WidthAbove(l2) <= w.WidthAbove(l1)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
