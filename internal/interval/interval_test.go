package interval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewNormalizesInverted(t *testing.T) {
	w := New(5, 3)
	if !w.IsEmpty() {
		t.Fatalf("New(5,3) = %v, want empty", w)
	}
}

func TestNewPanicsOnNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(NaN, 1) did not panic")
		}
	}()
	New(math.NaN(), 1)
}

func TestEmptyBasics(t *testing.T) {
	e := Empty()
	if !e.IsEmpty() {
		t.Fatal("Empty() not empty")
	}
	if e.Length() != 0 {
		t.Fatalf("empty length = %g", e.Length())
	}
	if e.Contains(0) {
		t.Fatal("empty contains 0")
	}
	if e.Overlaps(Infinite()) {
		t.Fatal("empty overlaps infinite")
	}
	if got := e.Shift(10); !got.IsEmpty() {
		t.Fatalf("empty.Shift = %v", got)
	}
	if !math.IsNaN(e.Midpoint()) {
		t.Fatalf("empty midpoint = %g", e.Midpoint())
	}
}

func TestInfinite(t *testing.T) {
	inf := Infinite()
	if !inf.IsInfinite() {
		t.Fatal("Infinite not infinite")
	}
	if !inf.Contains(1e30) || !inf.Contains(-1e30) {
		t.Fatal("infinite window missing points")
	}
	if !math.IsInf(inf.Length(), 1) {
		t.Fatalf("infinite length = %g", inf.Length())
	}
	if inf.Midpoint() != 0 {
		t.Fatalf("infinite midpoint = %g", inf.Midpoint())
	}
}

func TestPoint(t *testing.T) {
	p := Point(3)
	if p.IsEmpty() || p.Length() != 0 || !p.Contains(3) || p.Contains(3.0001) {
		t.Fatalf("Point(3) misbehaves: %v", p)
	}
}

func TestContainsWindow(t *testing.T) {
	w := New(0, 10)
	cases := []struct {
		o    Window
		want bool
	}{
		{New(2, 5), true},
		{New(0, 10), true},
		{New(-1, 5), false},
		{New(5, 11), false},
		{Empty(), true},
		{Infinite(), false},
	}
	for _, c := range cases {
		if got := w.ContainsWindow(c.o); got != c.want {
			t.Errorf("ContainsWindow(%v) = %v, want %v", c.o, got, c.want)
		}
	}
	if Empty().ContainsWindow(New(1, 2)) {
		t.Error("empty contains nonempty")
	}
}

func TestOverlapsTouching(t *testing.T) {
	a, b := New(0, 5), New(5, 9)
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Fatal("touching closed windows must overlap")
	}
	x := a.Intersect(b)
	if x.IsEmpty() || x.Lo != 5 || x.Hi != 5 {
		t.Fatalf("Intersect touching = %v", x)
	}
}

func TestIntersectDisjoint(t *testing.T) {
	if x := New(0, 1).Intersect(New(2, 3)); !x.IsEmpty() {
		t.Fatalf("disjoint intersect = %v", x)
	}
}

func TestHull(t *testing.T) {
	if h := New(0, 1).Hull(New(5, 6)); h.Lo != 0 || h.Hi != 6 {
		t.Fatalf("hull = %v", h)
	}
	if h := Empty().Hull(New(2, 3)); !h.Equal(New(2, 3)) {
		t.Fatalf("empty hull = %v", h)
	}
	if h := New(2, 3).Hull(Empty()); !h.Equal(New(2, 3)) {
		t.Fatalf("hull empty = %v", h)
	}
}

func TestShiftRange(t *testing.T) {
	w := New(10, 20).ShiftRange(1, 3)
	if w.Lo != 11 || w.Hi != 23 {
		t.Fatalf("ShiftRange = %v", w)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ShiftRange(3,1) did not panic")
		}
	}()
	New(0, 1).ShiftRange(3, 1)
}

func TestMidpoint(t *testing.T) {
	if m := New(2, 6).Midpoint(); m != 4 {
		t.Fatalf("midpoint = %g", m)
	}
	if m := New(math.Inf(-1), 5).Midpoint(); m != 5 {
		t.Fatalf("half-infinite midpoint = %g", m)
	}
	if m := New(5, math.Inf(1)).Midpoint(); m != 5 {
		t.Fatalf("half-infinite midpoint = %g", m)
	}
}

func TestString(t *testing.T) {
	if s := Empty().String(); s != "[empty]" {
		t.Fatalf("empty string = %q", s)
	}
	if s := Infinite().String(); s != "[-inf,+inf]" {
		t.Fatalf("infinite string = %q", s)
	}
	if s := New(1, 2).String(); s == "" {
		t.Fatal("empty render")
	}
}

// randWindow draws a bounded window (possibly empty) from r.
func randWindow(r *rand.Rand) Window {
	if r.Intn(10) == 0 {
		return Empty()
	}
	a := r.Float64()*200 - 100
	b := r.Float64()*200 - 100
	if a > b {
		a, b = b, a
	}
	return Window{Lo: a, Hi: b}
}

func TestQuickIntersectCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randWindow(r), randWindow(r)
		return a.Intersect(b).Equal(b.Intersect(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickHullContainsBoth(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randWindow(r), randWindow(r)
		h := a.Hull(b)
		return h.ContainsWindow(a) && h.ContainsWindow(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectInsideBoth(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randWindow(r), randWindow(r)
		x := a.Intersect(b)
		return a.ContainsWindow(x) && b.ContainsWindow(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickOverlapIffNonEmptyIntersect(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randWindow(r), randWindow(r)
		return a.Overlaps(b) == !a.Intersect(b).IsEmpty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickShiftPreservesLength(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := randWindow(r)
		dt := r.Float64()*20 - 10
		got, want := w.Shift(dt).Length(), w.Length()
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
