package units

import (
	"math"
	"testing"
)

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
