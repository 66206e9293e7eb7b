package interval

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNewSetMergesOverlap(t *testing.T) {
	s := NewSet(New(0, 5), New(3, 8), New(10, 12))
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2: %v", s.Len(), s)
	}
	ws := s.Windows()
	if !ws[0].Equal(New(0, 8)) || !ws[1].Equal(New(10, 12)) {
		t.Fatalf("windows = %v", ws)
	}
}

func TestNewSetMergesTouching(t *testing.T) {
	s := NewSet(New(0, 5), New(5, 8))
	if s.Len() != 1 || !s.Windows()[0].Equal(New(0, 8)) {
		t.Fatalf("touching not merged: %v", s)
	}
}

func TestNewSetDropsEmpty(t *testing.T) {
	s := NewSet(Empty(), New(1, 2), Empty())
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// TestSetContains: an instant is in a set exactly when the set meets the
// point window there — members' ends included, the gaps between them not.
func TestSetContains(t *testing.T) {
	s := NewSet(New(0, 2), New(5, 7), New(10, 11))
	for _, tc := range []struct {
		t    float64
		want bool
	}{{-1, false}, {0, true}, {2, true}, {3, false}, {5, true}, {7, true}, {8, false}, {11, true}, {12, false}} {
		if got := !s.IntersectWindow(Point(tc.t)).IsEmpty(); got != tc.want {
			t.Errorf("%g in %v = %v, want %v", tc.t, s, got, tc.want)
		}
	}
}

func TestSetOverlapsWindow(t *testing.T) {
	s := NewSet(New(0, 2), New(5, 7))
	if s.IntersectWindow(New(2, 3)).IsEmpty() {
		t.Error("should overlap at touching point 2")
	}
	if !s.IntersectWindow(New(3, 4)).IsEmpty() {
		t.Error("should not overlap gap")
	}
	if !s.IntersectWindow(Empty()).IsEmpty() {
		t.Error("overlaps empty")
	}
}

func TestSetIntersect(t *testing.T) {
	a := NewSet(New(0, 5), New(10, 15))
	b := NewSet(New(3, 12))
	x := a.Intersect(b)
	want := NewSet(New(3, 5), New(10, 12))
	if !slices.Equal(x.Windows(), want.Windows()) {
		t.Fatalf("Intersect = %v, want %v", x, want)
	}
}

func TestSetUnion(t *testing.T) {
	a := NewSet(New(0, 2))
	b := NewSet(New(1, 5), New(8, 9))
	u := a.Union(b)
	want := NewSet(New(0, 5), New(8, 9))
	if !slices.Equal(u.Windows(), want.Windows()) {
		t.Fatalf("Union = %v, want %v", u, want)
	}
}

// TestSetShift: a shift by an exact delay moves every member and keeps
// them apart.
func TestSetShift(t *testing.T) {
	s := NewSet(New(0, 1), New(4, 5)).ShiftRange(10, 10)
	want := NewSet(New(10, 11), New(14, 15))
	if !slices.Equal(s.Windows(), want.Windows()) {
		t.Fatalf("Shift = %v", s)
	}
}

func TestSetShiftRangeMerges(t *testing.T) {
	// Widening by the delay spread can make members touch; result must be
	// normalized.
	s := NewSet(New(0, 2), New(3, 5)).ShiftRange(0, 1)
	if s.Len() != 1 || !s.Hull().Equal(New(0, 6)) {
		t.Fatalf("ShiftRange = %v", s)
	}
}

func TestSetHullAndLength(t *testing.T) {
	s := NewSet(New(1, 2), New(5, 9))
	if !s.Hull().Equal(New(1, 9)) || s.Hull().Length() != 8 {
		t.Fatalf("Hull = %v", s.Hull())
	}
	if !NewSet().Hull().IsEmpty() {
		t.Fatal("empty set hull not empty")
	}
}

func TestSetString(t *testing.T) {
	if s := NewSet().String(); s != "{}" {
		t.Fatalf("empty set string = %q", s)
	}
	if s := NewSet(New(1, 2)).String(); s == "" {
		t.Fatal("blank render")
	}
}

// covers reports whether instant t lies in a member window of s.
func covers(s Set, t float64) bool {
	return slices.ContainsFunc(s.Windows(), func(w Window) bool { return w.Contains(t) })
}

func randSet(r *rand.Rand) Set {
	n := r.Intn(5)
	ws := make([]Window, n)
	for i := range ws {
		ws[i] = randWindow(r)
	}
	return NewSet(ws...)
}

func TestQuickSetMembersDisjointSorted(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randSet(r)
		ws := s.Windows()
		for i := 1; i < len(ws); i++ {
			// Strictly increasing with a genuine gap (touching merged).
			if !(ws[i-1].Hi < ws[i].Lo) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSetUnionCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randSet(r), randSet(r)
		return slices.Equal(a.Union(b).Windows(), b.Union(a).Windows())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSetIntersectSubset(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randSet(r), randSet(r)
		x := a.Intersect(b)
		for _, w := range x.Windows() {
			mid := (w.Lo + w.Hi) / 2
			if !covers(a, mid) || !covers(b, mid) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetHelpers(t *testing.T) {
	if s := SetOf(1, 2); s.Len() != 1 || !covers(s, 1.5) {
		t.Fatalf("SetOf = %v", s)
	}
	if !EmptySet().IsEmpty() {
		t.Fatal("EmptySet not empty")
	}
	if !InfiniteSet().IsInfinite() {
		t.Fatal("InfiniteSet not infinite")
	}
	if SetOf(0, 1).IsInfinite() {
		t.Fatal("finite set reported infinite")
	}
}

func TestSetSimplify(t *testing.T) {
	s := NewSet(New(0, 1), New(2, 3), New(2.5, 4), New(10, 11), New(20, 21))
	// Normalized: [0,1] [2,4] [10,11] [20,21].
	if s.Len() != 4 {
		t.Fatalf("setup Len = %d", s.Len())
	}
	s2 := s.Simplify(2)
	if s2.Len() != 2 {
		t.Fatalf("Simplify(2) Len = %d: %v", s2.Len(), s2)
	}
	// Coverage only grows.
	for _, w := range s.Windows() {
		if !covers(s2, (w.Lo+w.Hi)/2) {
			t.Fatalf("Simplify lost coverage of %v", w)
		}
	}
	// Smallest gaps merged first: [0,1]+[2,4] merge before the far ones.
	if !covers(s2, 1.5) {
		t.Fatalf("smallest gap not merged: %v", s2)
	}
	if s.Simplify(10).Len() != 4 {
		t.Fatal("Simplify above size changed set")
	}
	if s.Simplify(0).Len() != 1 {
		t.Fatal("Simplify(0) should clamp to 1")
	}
}

func TestQuickSimplifyCoverage(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randSet(r)
		s2 := s.Simplify(1 + r.Intn(3))
		for k := 0; k < 30; k++ {
			x := r.Float64()*220 - 110
			if covers(s, x) && !covers(s2, x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// norm is the list model the Set operations are held to: drop the empties,
// sort, merge what overlaps or touches. Everything below builds on it.
func norm(ws []Window) []Window {
	var out []Window
	for _, w := range ws {
		if !w.IsEmpty() {
			out = append(out, w)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Lo != out[j].Lo {
			return out[i].Lo < out[j].Lo
		}
		return out[i].Hi < out[j].Hi
	})
	merged := out[:0]
	for _, w := range out {
		if n := len(merged); n > 0 && merged[n-1].Hi >= w.Lo {
			merged[n-1].Hi = math.Max(merged[n-1].Hi, w.Hi)
			continue
		}
		merged = append(merged, w)
	}
	return merged
}

// gridWindow draws from a small grid, so that touching, nested, point and
// empty windows — and now and then an infinite edge — turn up all the time.
func gridWindow(r *rand.Rand) Window {
	w := Window{Lo: float64(r.Intn(12)), Hi: float64(r.Intn(12))} // inverted: empty
	switch r.Intn(12) {
	case 0:
		w.Lo = math.Inf(-1)
	case 1:
		w.Hi = math.Inf(1)
	case 2:
		w = Infinite()
	case 3:
		w.Hi = w.Lo
	}
	return w
}

func gridWindows(r *rand.Rand) []Window {
	ws := make([]Window, r.Intn(6))
	for i := range ws {
		ws[i] = gridWindow(r)
	}
	return ws
}

// checkCanonical reports how s departs from the one representation a set of
// its windows may have: the window inline or the spill slice, never both,
// members sorted with a real gap between them.
func checkCanonical(s Set) error {
	ws := s.Windows()
	switch {
	case s.n != len(ws) || s.Len() != len(ws):
		return fmt.Errorf("n = %d, Len = %d, %d windows", s.n, s.Len(), len(ws))
	case (s.spill != nil) != (s.n > 1):
		return fmt.Errorf("%d windows, spill %v", s.n, s.spill)
	case s.n != 1 && s.one != [1]Window{}:
		return fmt.Errorf("%d windows and a stale inline window %v", s.n, s.one)
	}
	for i, w := range ws {
		if w.IsEmpty() || i > 0 && !(ws[i-1].Hi < w.Lo) {
			return fmt.Errorf("members not sorted, disjoint and non-empty: %v", ws)
		}
		if s.At(i) != w {
			return fmt.Errorf("At(%d) = %v, Windows()[%d] = %v", i, s.At(i), i, w)
		}
	}
	if !reflect.DeepEqual(s, NewSet(ws...)) {
		return fmt.Errorf("%#v is not field for field the set rebuilt from its windows", s)
	}
	return nil
}

// checkSetAgainstModel runs every Set operation on seeded random operands
// and compares each result — canonical, window for window — with the same
// operation done on lists. union is the Union under test.
func checkSetAgainstModel(seeds int, union func(a, b Set) Set) error {
	same := func(op string, got Set, want []Window) error {
		if err := checkCanonical(got); err != nil {
			return fmt.Errorf("%s: %v", op, err)
		}
		if !slices.Equal(got.Windows(), norm(want)) {
			return fmt.Errorf("%s = %v, the list model gives %v", op, got, norm(want))
		}
		return nil
	}
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		aw, bw, w := gridWindows(r), gridWindows(r), gridWindow(r)
		a, b := NewSet(aw...), NewSet(bw...)
		an, bn := norm(aw), norm(bw)
		d1 := float64(r.Intn(4))
		d2 := d1 + float64(r.Intn(3))
		shift := func(ws []Window, lo, hi float64) (out []Window) {
			for _, x := range ws {
				out = append(out, x.ShiftRange(lo, hi))
			}
			return out
		}
		var meet, meetW []Window
		for _, x := range an {
			meetW = append(meetW, x.Intersect(w))
			for _, y := range bn {
				meet = append(meet, x.Intersect(y))
			}
		}
		// Simplify on the list: merge across the smallest gap, leftmost first.
		most := 1 + r.Intn(3)
		simple := slices.Clone(an)
		for len(simple) > most {
			best := 1
			for i := 2; i < len(simple); i++ {
				if simple[i].Lo-simple[i-1].Hi < simple[best].Lo-simple[best-1].Hi {
					best = i
				}
			}
			simple[best-1].Hi = simple[best].Hi
			simple = slices.Delete(simple, best, best+1)
		}
		for _, c := range []struct {
			op   string
			got  Set
			want []Window
		}{
			{"NewSet", a, aw},
			{"Union", union(a, b), append(slices.Clone(an), bn...)},
			{"Add", a.Add(w), append(slices.Clone(an), w)},
			{"Intersect", a.Intersect(b), meet},
			{"IntersectWindow", a.IntersectWindow(w), meetW},
			{"ShiftRange", a.ShiftRange(d1, d2), shift(an, d1, d2)},
			{"Simplify", a.Simplify(most), simple},
		} {
			if err := same(c.op, c.got, c.want); err != nil {
				return fmt.Errorf("seed %d, a = %v, b = %v, w = %v: %v", seed, a, b, w, err)
			}
		}
		// The readers, against the list.
		hull := Empty()
		if len(an) > 0 {
			hull = Window{Lo: an[0].Lo, Hi: an[len(an)-1].Hi}
		}
		switch {
		case !a.Hull().Equal(hull):
			return fmt.Errorf("seed %d: hull %v of %v", seed, a.Hull(), a)
		case a.IsEmpty() != (len(an) == 0) || a.IsInfinite() != (len(an) == 1 && an[0].IsInfinite()):
			return fmt.Errorf("seed %d: %v IsEmpty/IsInfinite", seed, a)
		}
	}
	return nil
}

// TestSetMatchesListModel is the property; the second half shows it can
// fail. The planted mutant is a Union whose one-window fast path merges
// windows that overlap and forgets the ones that only touch — the
// representation's easiest mistake, and one the inline form invites.
func TestSetMatchesListModel(t *testing.T) {
	const seeds = 3000
	if err := checkSetAgainstModel(seeds, Set.Union); err != nil {
		t.Fatal(err)
	}
	mutant := func(a, b Set) Set {
		if a.n != 1 || b.n != 1 {
			return a.Union(b)
		}
		x, y := a.one[0], b.one[0]
		if y.Lo < x.Lo {
			x, y = y, x
		}
		if x.Hi > y.Lo { // the bug: >= merges touching windows too
			return single(Window{Lo: x.Lo, Hi: max(x.Hi, y.Hi)})
		}
		return setOf([]Window{x, y})
	}
	err := checkSetAgainstModel(seeds, mutant)
	if err == nil {
		t.Fatal("a Union that leaves touching windows unmerged passed: the property checks nothing")
	}
	t.Logf("the planted mutant is caught: %v", err)

	// Both ways across the inline↔spill boundary, spelled out.
	two := SetOf(0, 1).Union(SetOf(3, 4))
	if two.Len() != 2 || two.spill == nil {
		t.Fatalf("two disjoint singles did not spill: %#v", two)
	}
	for op, s := range map[string]Set{
		"Intersect": two.Intersect(SetOf(0.5, 2)), "Simplify(1)": two.Simplify(1),
		"Union bridging the gap": two.Union(SetOf(1, 3)), "ShiftRange closing the gap": two.ShiftRange(0, 2),
	} {
		if s.Len() != 1 || s.spill != nil {
			t.Errorf("%s of a two-window set came back as %#v, want one inline window", op, s)
		}
	}
	if size := unsafe.Sizeof(Set{}); size > 32 {
		t.Errorf("a Set is %d bytes, want at most 32", size)
	}
	if !reflect.DeepEqual(Set{}, NewSet()) || !Set.IsEmpty(Set{}) {
		t.Error("the zero Set is not the empty set")
	}
}

// TestSetOperationsDoNotAllocate: one window in, one window out, no heap —
// and a warm Scan answers the scan-line query without any either.
func TestSetOperationsDoNotAllocate(t *testing.T) {
	a, b, w := SetOf(0, 5), SetOf(3, 8), New(2, 4)
	var sink Set
	for op, fn := range map[string]func(){
		"ShiftRange":      func() { sink = a.ShiftRange(1, 2) },
		"Union":           func() { sink = a.Union(b) },
		"Intersect":       func() { sink = a.Intersect(b) },
		"IntersectWindow": func() { sink = a.IntersectWindow(w) },
		"NewSet":          func() { sink = NewSet(w) },
		"InfiniteSet":     func() { sink = InfiniteSet() },
		"Simplify":        func() { sink = a.Simplify(8) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s of single windows: %v allocations, want 0", op, n)
		}
	}
	if sink.IsEmpty() {
		t.Fatal("the operations returned nothing")
	}
	items := []Weighted{{New(0, 4), 1}, {New(2, 6), 2}, {New(5, 9), 3}, {New(3, 3), 1}}
	var sc Scan
	want := new(Scan).MaxOverlapSum(items)
	if n := testing.AllocsPerRun(100, func() {
		if got := sc.MaxOverlapSum(items); got.Sum != want.Sum || got.At != want.At || !slices.Equal(got.Members, want.Members) {
			t.Fatalf("warm scan gave %+v, want %+v", got, want)
		}
	}); n != 0 {
		t.Errorf("warm Scan.MaxOverlapSum: %v allocations, want 0", n)
	}
}
