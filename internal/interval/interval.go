// Package interval implements the time-window algebra at the heart of noise
// window propagation.
//
// A Window is a closed interval [Lo, Hi] on the time axis. Static timing
// analysis produces switching windows (the interval during which a net may
// transition); the noise analyzer derives from them noise windows (the
// interval during which a crosstalk glitch may peak). The combination step of
// windowed noise analysis reduces to questions this package answers directly:
// do two windows overlap, what is their intersection, and — for a set of
// weighted windows — what is the maximum total weight achievable at any
// single instant (see Scan.MaxOverlapSum in scanline.go).
//
// The package also provides Set, a normalized union of disjoint windows, for
// nets whose switching opportunities are split across multiple clock phases.
package interval

import (
	"fmt"
	"math"
)

// Window is a closed time interval [Lo, Hi]. A Window with Lo > Hi is empty;
// use Empty to construct one and IsEmpty to test. The zero value is the
// degenerate point window [0, 0], which is valid and non-empty.
type Window struct {
	Lo, Hi float64
}

// New returns the window [lo, hi]. It panics if either bound is NaN; an
// inverted pair is normalized to the canonical empty window so that callers
// computing bounds arithmetically do not need to special-case emptiness.
func New(lo, hi float64) Window {
	if math.IsNaN(lo) || math.IsNaN(hi) {
		panic("interval: NaN window bound")
	}
	if lo > hi {
		return Empty()
	}
	return Window{Lo: lo, Hi: hi}
}

// Empty returns the canonical empty window.
func Empty() Window {
	return Window{Lo: math.Inf(1), Hi: math.Inf(-1)}
}

// Infinite returns the window covering the entire time axis. It models the
// absence of timing information: an aggressor with an infinite switching
// window may switch at any time, which is exactly the pessimistic assumption
// the paper's noise windows remove.
func Infinite() Window {
	return Window{Lo: math.Inf(-1), Hi: math.Inf(1)}
}

// Point returns the degenerate window [t, t].
func Point(t float64) Window {
	return Window{Lo: t, Hi: t}
}

// IsEmpty reports whether the window contains no instants.
func (w Window) IsEmpty() bool { return w.Lo > w.Hi }

// IsInfinite reports whether the window covers the entire time axis.
func (w Window) IsInfinite() bool {
	return math.IsInf(w.Lo, -1) && math.IsInf(w.Hi, 1)
}

// Length returns Hi-Lo, or 0 for an empty window. The length of an infinite
// or half-infinite window is +Inf.
func (w Window) Length() float64 {
	if w.IsEmpty() {
		return 0
	}
	return w.Hi - w.Lo
}

// Contains reports whether instant t lies inside the closed window.
func (w Window) Contains(t float64) bool {
	return !w.IsEmpty() && w.Lo <= t && t <= w.Hi
}

// Overlaps reports whether the two closed windows share at least one instant.
// Touching endpoints count as overlap: two glitches whose windows meet at a
// single instant can align there.
func (w Window) Overlaps(o Window) bool {
	if w.IsEmpty() || o.IsEmpty() {
		return false
	}
	return w.Lo <= o.Hi && o.Lo <= w.Hi
}

// Intersect returns the overlap of the two windows (possibly empty).
func (w Window) Intersect(o Window) Window {
	if !w.Overlaps(o) {
		return Empty()
	}
	return Window{Lo: math.Max(w.Lo, o.Lo), Hi: math.Min(w.Hi, o.Hi)}
}

// Shift translates the window by dt. Shifting an empty window yields an
// empty window. This models adding a fixed delay to a noise window.
func (w Window) Shift(dt float64) Window {
	if w.IsEmpty() {
		return w
	}
	return Window{Lo: w.Lo + dt, Hi: w.Hi + dt}
}

// ShiftRange translates the window by an uncertain delay in [dMin, dMax]:
// the result covers every instant reachable from w under any delay in that
// range. This is how a noise window moves through a gate whose delay has a
// min/max spread. dMin must not exceed dMax.
func (w Window) ShiftRange(dMin, dMax float64) Window {
	if dMin > dMax {
		panic(fmt.Sprintf("interval: ShiftRange with dMin %g > dMax %g", dMin, dMax))
	}
	if w.IsEmpty() {
		return w
	}
	return Window{Lo: w.Lo + dMin, Hi: w.Hi + dMax}
}

// String renders the window for reports, in picoseconds when finite bounds
// are small enough for that to be the natural unit.
func (w Window) String() string {
	if w.IsEmpty() {
		return "[empty]"
	}
	if w.IsInfinite() {
		return "[-inf,+inf]"
	}
	return fmt.Sprintf("[%.4g,%.4g]", w.Lo, w.Hi)
}
