package interval

import (
	"slices"
	"strings"
)

// Set is a union of pairwise-disjoint, sorted, non-empty windows. The zero
// value is the empty set. Sets model switching opportunities split across
// multiple clock phases or mode conditions: a net clocked by a gated clock
// may switch in [0,200ps] or [600,800ps] but never between.
//
// A Set is a value, 32 bytes, and canonical: nearly every set an analysis
// meets is one window, and that window lives in the Set itself. The spill
// slice exists exactly when Len() > 1 (then one is zero), so equal sets are
// equal field for field (reflect.DeepEqual) and the one-window operations
// touch no heap. Compare with Equal; == does not compile.
//
// All Set operations return normalized sets and never mutate their
// receivers.
type Set struct {
	_     [0]func() // not comparable: two equal multi-window sets differ by pointer
	one   [1]Window // the window, when n == 1
	n     int       // number of disjoint windows
	spill *[]Window // all n windows, when n > 1
}

// single returns the set of one non-empty window.
func single(w Window) Set { return Set{one: [1]Window{w}, n: 1} }

// setOf wraps windows that are already disjoint, sorted and non-empty; the
// set owns the slice.
func setOf(ws []Window) Set {
	switch len(ws) {
	case 0:
		return Set{}
	case 1:
		return single(ws[0])
	}
	return Set{n: len(ws), spill: &ws}
}

// ws returns the member windows without copying: the spill slice, or a view
// of the inline window. On a local copy of a Set the view stays on the stack.
func (s *Set) ws() []Window {
	if s.spill != nil {
		return *s.spill
	}
	return s.one[:s.n]
}

// merger accumulates windows that arrive in ascending order into canonical
// form, merging each one that overlaps or touches its predecessor. Nothing
// is allocated until a second disjoint window turns up.
type merger struct {
	last Window   // the still-open last window, when n > 0
	n    int      // windows so far, last included
	done []Window // the closed windows before last
	hint int      // capacity for done when it is first needed
}

func (m *merger) add(w Window) {
	if w.IsEmpty() {
		return
	}
	if m.n > 0 {
		if m.last.Hi >= w.Lo {
			if w.Hi > m.last.Hi {
				m.last.Hi = w.Hi
			}
			return
		}
		if m.done == nil {
			m.done = make([]Window, 0, max(m.hint, 2))
		}
		m.done = append(m.done, m.last)
	}
	m.last = w
	m.n++
}

func (m *merger) set() Set {
	if m.n <= 1 {
		return Set{one: [1]Window{m.last}, n: m.n}
	}
	return setOf(append(m.done, m.last))
}

// SetOf returns the one-window set [lo, hi]. Like New, it panics on NaN
// bounds — sanitation is the caller's contract.
func SetOf(lo, hi float64) Set {
	//snavet:nanguard SetOf is New's one-window convenience and shares its documented NaN panic contract
	return NewSet(New(lo, hi))
}

// EmptySet returns the set with no instants.
func EmptySet() Set { return Set{} }

// InfiniteSet returns the set covering the whole time axis.
func InfiniteSet() Set { return single(Infinite()) }

// IsInfinite reports whether the set covers the whole axis.
func (s Set) IsInfinite() bool {
	return s.n == 1 && s.one[0].IsInfinite()
}

// byLoHi orders windows by left edge, then right edge.
func byLoHi(a, b Window) int {
	switch {
	case a.Lo != b.Lo:
		if a.Lo < b.Lo {
			return -1
		}
		return 1
	case a.Hi < b.Hi:
		return -1
	case a.Hi > b.Hi:
		return 1
	}
	return 0
}

// NewSet builds a normalized set from arbitrary windows: empties are
// dropped, the rest are sorted and overlapping or touching windows are
// merged.
func NewSet(windows ...Window) Set {
	if len(windows) == 1 {
		if windows[0].IsEmpty() {
			return Set{}
		}
		return single(windows[0])
	}
	var buf [8]Window
	ws := append(buf[:0], windows...)
	slices.SortFunc(ws, byLoHi)
	m := merger{hint: len(ws)}
	for _, w := range ws {
		m.add(w)
	}
	return m.set()
}

// Windows returns a copy of the set's windows in ascending order.
func (s Set) Windows() []Window {
	return append([]Window(nil), s.ws()...)
}

// IsEmpty reports whether the set contains no instants.
func (s Set) IsEmpty() bool { return s.n == 0 }

// Len returns the number of disjoint windows in the set.
func (s Set) Len() int { return s.n }

// At returns the i-th window in ascending order, 0 <= i < Len(). With Len
// it walks a set without the copy Windows makes.
func (s Set) At(i int) Window {
	if s.spill != nil {
		return (*s.spill)[i]
	}
	return s.one[:s.n][i]
}

// Hull returns the smallest single window containing the whole set.
func (s Set) Hull() Window {
	if s.n == 0 {
		return Empty()
	}
	return Window{Lo: s.At(0).Lo, Hi: s.At(s.n - 1).Hi}
}

// Union returns the set covering every instant in s or o, by a linear
// merge of the two sorted member lists.
func (s Set) Union(o Set) Set {
	if s.n == 0 {
		return o
	}
	if o.n == 0 {
		return s
	}
	a, b := s.ws(), o.ws()
	m := merger{hint: len(a) + len(b)}
	for len(a) > 0 || len(b) > 0 {
		if len(a) == 0 || len(b) > 0 && byLoHi(b[0], a[0]) < 0 {
			m.add(b[0])
			b = b[1:]
		} else {
			m.add(a[0])
			a = a[1:]
		}
	}
	return m.set()
}

// Add returns the set with window w merged in.
func (s Set) Add(w Window) Set { return s.Union(NewSet(w)) }

// Intersect returns the set of instants present in both s and o, using a
// linear merge over the two sorted member lists.
func (s Set) Intersect(o Set) Set {
	a, b := s.ws(), o.ws()
	m := merger{hint: max(len(a), len(b))}
	for len(a) > 0 && len(b) > 0 {
		m.add(a[0].Intersect(b[0]))
		if a[0].Hi < b[0].Hi {
			a = a[1:]
		} else {
			b = b[1:]
		}
	}
	return m.set()
}

// IntersectWindow returns the part of the set inside w.
func (s Set) IntersectWindow(w Window) Set {
	return s.Intersect(NewSet(w))
}

// ShiftRange translates every member by an uncertain delay in [dMin, dMax]
// and re-normalizes in one pass: the shift is monotone, so the members stay
// sorted and only adjacent ones can come to touch.
func (s Set) ShiftRange(dMin, dMax float64) Set {
	m := merger{hint: s.n}
	for _, w := range s.ws() {
		m.add(w.ShiftRange(dMin, dMax))
	}
	return m.set()
}

// Simplify reduces the set to at most max member windows by repeatedly
// merging the pair separated by the smallest gap — a conservative
// over-approximation (the result covers a superset of the instants). It
// bounds window fragmentation during fixpoint iteration over loops.
func (s Set) Simplify(max int) Set {
	if max < 1 {
		max = 1
	}
	if s.n <= max {
		return s
	}
	ws := s.Windows()
	for len(ws) > max {
		// Find the smallest inter-window gap.
		best := 1
		bestGap := ws[1].Lo - ws[0].Hi
		for i := 2; i < len(ws); i++ {
			if gap := ws[i].Lo - ws[i-1].Hi; gap < bestGap {
				best, bestGap = i, gap
			}
		}
		ws[best-1] = Window{Lo: ws[best-1].Lo, Hi: ws[best].Hi}
		ws = append(ws[:best], ws[best+1:]...)
	}
	return setOf(ws)
}

// String renders the set for reports.
func (s Set) String() string {
	if s.IsEmpty() {
		return "{}"
	}
	parts := make([]string, s.n)
	for i, w := range s.ws() {
		parts[i] = w.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}
