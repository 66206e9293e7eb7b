// Package units defines the physical unit conventions used throughout the
// repository and small helpers for working with them.
//
// All quantities are carried as float64 in base SI units:
//
//	time        seconds   (typical magnitudes: ps = 1e-12)
//	voltage     volts
//	capacitance farads    (typical magnitudes: fF = 1e-15)
//	resistance  ohms
//	current     amperes
//
// The scale constants below exist so that call sites read naturally, e.g.
// 50*units.Pico for a 50 ps slew or 3*units.Femto for a 3 fF coupling cap.
package units

import "math"

// Metric scale factors.
const (
	Femto = 1e-15
	Pico  = 1e-12
	Nano  = 1e-9
	Kilo  = 1e3
)

// RelErr returns |a-b| / max(|b|, floor). It is used by the accuracy
// experiments to compare the analytical noise model against transient
// simulation without blowing up when the reference value is near zero.
func RelErr(a, b, floor float64) float64 {
	den := math.Abs(b)
	if den < floor {
		den = floor
	}
	return math.Abs(a-b) / den
}

// FiniteNonNeg reports whether v is finite and >= 0 — the one rule a
// window padding, a filter threshold and a clock period are held to. NaN
// fails it, and so does +Inf, which would reach the engine or fail to
// encode as JSON.
func FiniteNonNeg(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }
