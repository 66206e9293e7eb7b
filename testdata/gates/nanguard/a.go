// Golden cases for the nanguard analyzer: non-constant bounds reaching
// interval.New need a NaN guard in the enclosing function.
package nanguard

import (
	"math"

	"repro/internal/interval"
)

const pico = 1e-12

// unguarded passes runtime floats straight into New: both bounds
// reported.
func unguarded(lo, hi float64) interval.Window {
	return interval.New(lo, hi) // want `window bound lo reaches interval.New with no NaN guard` `window bound hi reaches interval.New with no NaN guard`
}

// guarded tests IsNaN on a path before constructing: clean.
func guarded(lo, hi float64) (interval.Window, bool) {
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return interval.Window{}, false
	}
	return interval.New(lo, hi), true
}

// infGuarded uses IsInf, which also proves the bound was considered:
// clean.
func infGuarded(lo float64) interval.Window {
	if math.IsInf(lo, 0) || math.IsNaN(lo) {
		lo = 0
	}
	return interval.New(lo, lo+10*pico)
}

// constants need no guard; the compiler already proved them finite.
func constants() interval.Window {
	return interval.New(0, 60*pico)
}

// derived bounds are covered when the guard mentions their roots: the
// check on width covers lo+width.
func derived(lo, width float64) interval.Window {
	if math.IsNaN(lo) || math.IsNaN(width) {
		return interval.Window{}
	}
	return interval.New(lo, lo+width)
}

// sanitized delegates the guard to a named sanitizer helper: clean.
func sanitized(lo, hi float64) interval.Window {
	return interval.New(sanitizeBound(lo), sanitizeBound(hi))
}

func sanitizeBound(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// waived documents why the bound cannot be NaN: suppressed.
func waived(half float64) interval.Window {
	//snavet:nanguard half is |width|/2 of a validated glitch, non-NaN by construction
	return interval.New(-half, half)
}
