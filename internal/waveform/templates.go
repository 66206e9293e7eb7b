package waveform

// SatRamp returns a saturated-ramp transition: v0 until t0, linear to v1
// over slew seconds, then v1. It models an aggressor's switching edge; slew
// is the 0–100 % transition time. A non-positive slew is replaced by a very
// short ramp so the waveform stays single-valued.
func SatRamp(t0, slew, v0, v1 float64) PWL {
	if slew <= 0 {
		slew = 1e-15
	}
	return MustNew(
		Point{T: t0, V: v0},
		Point{T: t0 + slew, V: v1},
	)
}

// Triangle returns a triangular glitch: zero until t0, linear rise to peak
// at tPeak, linear fall back to zero at t1. It is the simplest conservative
// glitch template; the noise checks consume its peak and threshold width.
// Requires t0 <= tPeak <= t1.
func Triangle(t0, tPeak, t1, peak float64) PWL {
	if !(t0 <= tPeak && tPeak <= t1) {
		panic("waveform: Triangle requires t0 <= tPeak <= t1")
	}
	if t0 == t1 {
		return PWL{}
	}
	pts := []Point{{T: t0, V: 0}}
	if tPeak > t0 {
		pts = append(pts, Point{T: tPeak, V: peak})
	} else {
		pts[0].V = peak
	}
	if t1 > tPeak {
		pts = append(pts, Point{T: t1, V: 0})
	}
	return MustNew(pts...)
}

// GlitchMetrics captures the scalar measurements the noise checks consume.
type GlitchMetrics struct {
	Peak  float64 // signed peak voltage
	PeakT float64 // time of the peak
	Width float64 // time spent beyond half the peak magnitude
	Area  float64 // integral of the waveform (charge-like)
}

// MeasureGlitch extracts peak, half-peak width, and area from a glitch
// waveform. For a negative glitch (undershoot) the width is measured below
// half the (negative) peak. A zero waveform yields zero metrics.
func MeasureGlitch(w PWL) GlitchMetrics {
	t, v := w.Peak()
	m := GlitchMetrics{Peak: v, PeakT: t, Area: w.Area()}
	if v > 0 {
		m.Width = w.WidthAbove(v / 2)
	} else if v < 0 {
		m.Width = w.Negate().WidthAbove(-v / 2)
	}
	return m
}
