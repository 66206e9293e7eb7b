package units

import (
	"math"
	"testing"
)

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1.0, 1.0, 0) {
		t.Error("exact equality failed")
	}
	if !ApproxEqual(1.0, 1.0+1e-15, 1e-12) {
		t.Error("tiny absolute difference rejected")
	}
	if !ApproxEqual(1e12, 1e12*(1+1e-13), 1e-12) {
		t.Error("tiny relative difference rejected")
	}
	if ApproxEqual(1, 2, 1e-12) {
		t.Error("different values accepted")
	}
	if ApproxEqual(math.NaN(), math.NaN(), 1) {
		t.Error("NaN compared equal")
	}
	if ApproxEqual(1, math.NaN(), 1) {
		t.Error("NaN compared equal to number")
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(1.1, 1.0, 1e-3); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelErr = %g", got)
	}
	// Floor kicks in for near-zero references.
	if got := RelErr(1e-6, 0, 1e-3); math.Abs(got-1e-3) > 1e-12 {
		t.Errorf("floored RelErr = %g", got)
	}
}

func TestScaleConstants(t *testing.T) {
	if Pico*1e12 != 1 || Femto*1e15 != 1 || Kilo != 1e3 {
		t.Error("scale constants wrong")
	}
}
