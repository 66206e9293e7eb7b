// Package waveform provides piecewise-linear (PWL) voltage waveforms and the
// measurements static noise analysis makes on them: peak voltage, width at a
// threshold, area, and level-crossing times.
//
// PWL waveforms are the lingua franca between the analytical noise models
// (which emit glitch templates), the transient MNA simulator (which emits
// sampled node voltages), and the checks (which measure peaks and widths
// against library noise-rejection curves).
package waveform

import (
	"fmt"
	"math"
	"sort"
)

// Point is one breakpoint of a PWL waveform.
type Point struct {
	T float64 // time, seconds
	V float64 // voltage, volts
}

// PWL is a piecewise-linear waveform: linear interpolation between sorted
// breakpoints, constant extrapolation before the first and after the last.
// The zero value is the identically-zero waveform.
type PWL struct {
	pts []Point
}

// New builds a PWL from breakpoints. Points are sorted by time; duplicate
// times are allowed only if they carry equal voltages (a true step must be
// modelled with a short ramp). It returns an error on NaN/Inf coordinates or
// on conflicting duplicates.
func New(pts ...Point) (PWL, error) {
	cp := append([]Point(nil), pts...)
	for _, p := range cp {
		if math.IsNaN(p.T) || math.IsInf(p.T, 0) || math.IsNaN(p.V) || math.IsInf(p.V, 0) {
			return PWL{}, fmt.Errorf("waveform: invalid point (%g, %g)", p.T, p.V)
		}
	}
	sort.SliceStable(cp, func(i, j int) bool { return cp[i].T < cp[j].T })
	out := cp[:0]
	for _, p := range cp {
		if n := len(out); n > 0 && out[n-1].T == p.T {
			if out[n-1].V != p.V {
				return PWL{}, fmt.Errorf("waveform: conflicting values %g and %g at t=%g", out[n-1].V, p.V, p.T)
			}
			continue
		}
		out = append(out, p)
	}
	return PWL{pts: append([]Point(nil), out...)}, nil
}

// MustNew is New but panics on error; for literals in tests and generators.
func MustNew(pts ...Point) PWL {
	w, err := New(pts...)
	if err != nil {
		panic(err)
	}
	return w
}

// Eval returns the waveform value at time t.
func (w PWL) Eval(t float64) float64 {
	n := len(w.pts)
	if n == 0 {
		return 0
	}
	if t <= w.pts[0].T {
		return w.pts[0].V
	}
	if t >= w.pts[n-1].T {
		return w.pts[n-1].V
	}
	i := sort.Search(n, func(i int) bool { return w.pts[i].T >= t })
	a, b := w.pts[i-1], w.pts[i]
	frac := (t - a.T) / (b.T - a.T)
	return a.V + frac*(b.V-a.V)
}

// Span returns the time range covered by breakpoints (first to last).
// The zero waveform spans nothing and returns ok=false.
func (w PWL) Span() (lo, hi float64, ok bool) {
	if len(w.pts) == 0 {
		return 0, 0, false
	}
	return w.pts[0].T, w.pts[len(w.pts)-1].T, true
}

// Peak returns the breakpoint with the maximum |V| (PWL extrema always lie
// on breakpoints). For the zero waveform it returns (0, 0).
func (w PWL) Peak() (t, v float64) {
	best := 0.0
	for _, p := range w.pts {
		if math.Abs(p.V) > math.Abs(best) {
			best = p.V
			t = p.T
		}
	}
	return t, best
}

// ScaleV multiplies every voltage by k.
func (w PWL) ScaleV(k float64) PWL {
	out := make([]Point, len(w.pts))
	for i, p := range w.pts {
		out[i] = Point{T: p.T, V: p.V * k}
	}
	return PWL{pts: out}
}

// Negate returns -w.
func (w PWL) Negate() PWL { return w.ScaleV(-1) }

// Add returns the pointwise sum of the two waveforms: superposition of
// glitches. The breakpoint set of the result is the union of both inputs'.
func (w PWL) Add(o PWL) PWL {
	if len(w.pts) == 0 {
		return PWL{pts: append([]Point(nil), o.pts...)}
	}
	if len(o.pts) == 0 {
		return PWL{pts: append([]Point(nil), w.pts...)}
	}
	times := make([]float64, 0, len(w.pts)+len(o.pts))
	for _, p := range w.pts {
		times = append(times, p.T)
	}
	for _, p := range o.pts {
		times = append(times, p.T)
	}
	sort.Float64s(times)
	out := make([]Point, 0, len(times))
	for _, t := range times {
		if n := len(out); n > 0 && out[n-1].T == t {
			continue
		}
		out = append(out, Point{T: t, V: w.Eval(t) + o.Eval(t)})
	}
	return PWL{pts: out}
}

// WidthAbove returns the total time the waveform spends strictly above
// level. It measures glitch width at a threshold for positive-going
// glitches; use Negate for undershoot glitches.
func (w PWL) WidthAbove(level float64) float64 {
	if len(w.pts) < 2 {
		return 0
	}
	var width float64
	for i := 1; i < len(w.pts); i++ {
		a, b := w.pts[i-1], w.pts[i]
		da, db := a.V-level, b.V-level
		dt := b.T - a.T
		switch {
		case da > 0 && db > 0:
			width += dt
		case da > 0 && db <= 0:
			width += dt * da / (da - db)
		case da <= 0 && db > 0:
			width += dt * db / (db - da)
		}
	}
	return width
}

// Area returns the integral of the waveform over its breakpoint span
// (trapezoidal, exact for PWL). Constant tails outside the span are not
// integrated.
func (w PWL) Area() float64 {
	var area float64
	for i := 1; i < len(w.pts); i++ {
		a, b := w.pts[i-1], w.pts[i]
		area += (b.T - a.T) * (a.V + b.V) / 2
	}
	return area
}

// String summarises the waveform for debugging.
func (w PWL) String() string {
	if len(w.pts) == 0 {
		return "pwl{0}"
	}
	t, v := w.Peak()
	return fmt.Sprintf("pwl{%d pts, peak %.4gV @ %.4gs}", len(w.pts), v, t)
}
