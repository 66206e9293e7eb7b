package liberty

import (
	"fmt"
	"math"
	"sort"
)

// ImmunityCurve is a cell input's noise-rejection characteristic: the
// maximum glitch peak (volts) the input tolerates without causing a
// functional failure, as a function of the glitch width (seconds). Narrow
// glitches are filtered by the gate's inertia, so the allowed peak falls
// monotonically from near the supply at zero width toward the DC noise
// margin at infinite width.
type ImmunityCurve struct {
	Widths []float64 // ascending glitch widths, seconds
	Peaks  []float64 // allowed peak at each width, volts (non-increasing)
}

// NewImmunityCurve validates and returns an immunity curve.
func NewImmunityCurve(widths, peaks []float64) (*ImmunityCurve, error) {
	if len(widths) == 0 || len(widths) != len(peaks) {
		return nil, fmt.Errorf("liberty: immunity curve wants equal non-empty widths and peaks")
	}
	if !sort.Float64sAreSorted(widths) {
		return nil, fmt.Errorf("liberty: immunity widths must be ascending")
	}
	for i := 1; i < len(peaks); i++ {
		if peaks[i] > peaks[i-1] {
			return nil, fmt.Errorf("liberty: immunity peaks must be non-increasing (entry %d)", i)
		}
	}
	return &ImmunityCurve{Widths: widths, Peaks: peaks}, nil
}

// MaxPeak returns the maximum tolerable glitch peak for a glitch of the
// given width, by linear interpolation; outside the characterized range the
// curve is clamped (wide glitches use the final, DC-like entry).
func (c *ImmunityCurve) MaxPeak(width float64) float64 {
	lo, hi, f := locate(c.Widths, width)
	return c.Peaks[lo]*(1-f) + c.Peaks[hi]*f
}

// DefaultImmunity builds the canonical rejection curve used by the generic
// library: allowed peak decays from nearly vdd at zero width to the DC
// margin dcMargin with characteristic width tChar:
//
//	maxPeak(w) = dcMargin + (vdd − dcMargin) · tChar/(tChar + w)
func DefaultImmunity(vdd, dcMargin, tChar float64) *ImmunityCurve {
	widths := []float64{0, tChar / 2, tChar, 2 * tChar, 4 * tChar, 8 * tChar, 16 * tChar}
	peaks := make([]float64, len(widths))
	for i, w := range widths {
		peaks[i] = dcMargin + (vdd-dcMargin)*tChar/(tChar+w)
	}
	return &ImmunityCurve{Widths: widths, Peaks: peaks}
}

// TransferCurve is a cell's noise-transfer (noise propagation)
// characteristic from an input to an output: given an input glitch below
// the failure threshold, the output glitch peak is
//
//	outPeak = gain(width) · max(0, inPeak − Threshold)
//
// where gain grows with input glitch width (wide glitches approach the DC
// voltage gain of the cell, narrow glitches are attenuated by inertia):
//
//	gain(w) = DCGain · w/(w + TChar)
//
// For well-behaved static CMOS cells operating below the failure threshold
// the effective gain is below one, which makes windowed noise propagation a
// contraction and guarantees fixpoint convergence on loops.
type TransferCurve struct {
	Threshold float64 // input peak below which nothing propagates, volts
	DCGain    float64 // asymptotic gain for very wide glitches
	TChar     float64 // characteristic width, seconds
}

// NewTransferCurve validates parameters.
func NewTransferCurve(threshold, dcGain, tChar float64) (*TransferCurve, error) {
	if threshold < 0 || dcGain < 0 || tChar <= 0 {
		return nil, fmt.Errorf("liberty: invalid transfer curve (%g, %g, %g)", threshold, dcGain, tChar)
	}
	return &TransferCurve{Threshold: threshold, DCGain: dcGain, TChar: tChar}, nil
}

// Gain returns the width-dependent small-glitch gain.
func (tc *TransferCurve) Gain(width float64) float64 {
	if width <= 0 {
		return 0
	}
	return tc.DCGain * width / (width + tc.TChar)
}

// OutputPeak returns the propagated glitch peak magnitude for an input
// glitch of the given peak magnitude and width.
func (tc *TransferCurve) OutputPeak(inPeak, width float64) float64 {
	excess := math.Abs(inPeak) - tc.Threshold
	if excess <= 0 {
		return 0
	}
	return tc.Gain(width) * excess
}
