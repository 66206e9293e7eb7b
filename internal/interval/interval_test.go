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
}

func TestPoint(t *testing.T) {
	p := Point(3)
	if p.IsEmpty() || p.Length() != 0 || !p.Contains(3) || p.Contains(3.0001) {
		t.Fatalf("Point(3) misbehaves: %v", p)
	}
}

// TestContainsWindow: a window lies inside w exactly when intersecting it
// with w leaves it whole — how a combined window is held inside each
// member's.
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
		if got := w.Intersect(c.o).Equal(c.o); got != c.want {
			t.Errorf("%v inside %v = %v, want %v", c.o, w, got, c.want)
		}
	}
	if o := New(1, 2); Empty().Intersect(o).Equal(o) {
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

// TestHull: a set's hull runs from its first member's start to its last
// member's end, and an empty window adds nothing to it.
func TestHull(t *testing.T) {
	if h := NewSet(New(0, 1), New(5, 6)).Hull(); h.Lo != 0 || h.Hi != 6 {
		t.Fatalf("hull = %v", h)
	}
	if h := NewSet(Empty(), New(2, 3)).Hull(); !h.Equal(New(2, 3)) {
		t.Fatalf("empty hull = %v", h)
	}
	if h := NewSet(New(2, 3), Empty()).Hull(); !h.Equal(New(2, 3)) {
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
		h := NewSet(a, b).Hull()
		return h.Intersect(a).Equal(a) && h.Intersect(b).Equal(b)
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
		return a.Intersect(x).Equal(x) && b.Intersect(x).Equal(x)
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

// Equal reports exact equality, treating all empty windows as equal.
func (w Window) Equal(o Window) bool {
	if w.IsEmpty() && o.IsEmpty() {
		return true
	}
	return w.Lo == o.Lo && w.Hi == o.Hi
}
