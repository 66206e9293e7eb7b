package waveform

import (
	"math"
	"testing"
)

func TestSatRamp(t *testing.T) {
	w := SatRamp(10, 4, 0, 1.2)
	if got := w.Eval(9); got != 0 {
		t.Fatalf("before ramp: %g", got)
	}
	if got := w.Eval(12); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("mid ramp: %g", got)
	}
	if got := w.Eval(20); got != 1.2 {
		t.Fatalf("after ramp: %g", got)
	}
}

func TestSatRampZeroSlew(t *testing.T) {
	w := SatRamp(0, 0, 0, 1)
	if got := w.Eval(1e-12); got != 1 {
		t.Fatalf("zero-slew ramp at 1ps = %g", got)
	}
}

func TestSatRampFalling(t *testing.T) {
	w := SatRamp(0, 2, 1.0, 0)
	if got := w.Eval(1); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("falling mid = %g", got)
	}
}

func TestTriangle(t *testing.T) {
	w := Triangle(0, 1, 3, 0.6)
	tt, v := w.Peak()
	if tt != 1 || v != 0.6 {
		t.Fatalf("peak = (%g, %g)", tt, v)
	}
	// Half-peak width: rises through 0.3 at t=0.5, falls through 0.3 at t=2.
	if got := w.WidthAbove(0.3); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("half width = %g, want 1.5", got)
	}
	if got := w.Area(); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("area = %g, want 0.9", got)
	}
}

func TestTriangleDegenerate(t *testing.T) {
	if _, v := Triangle(1, 1, 1, 0.5).Peak(); v != 0 {
		t.Fatal("point triangle should be zero waveform")
	}
	// Zero rise time: starts at peak.
	w := Triangle(0, 0, 2, 1)
	if got := w.Eval(0); got != 1 {
		t.Fatalf("Eval(0) = %g", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid triangle did not panic")
		}
	}()
	Triangle(2, 1, 3, 0.5)
}

func TestMeasureGlitch(t *testing.T) {
	w := Triangle(0, 1e-12, 3e-12, 0.8)
	m := MeasureGlitch(w)
	if m.Peak != 0.8 {
		t.Fatalf("peak = %g", m.Peak)
	}
	if math.Abs(m.Width-1.5e-12) > 1e-15 {
		t.Fatalf("width = %g", m.Width)
	}
	if math.Abs(m.Area-1.2e-12) > 1e-15 {
		t.Fatalf("area = %g", m.Area)
	}
	if m.PeakT != 1e-12 {
		t.Fatalf("peakT = %g", m.PeakT)
	}
}

func TestMeasureGlitchZero(t *testing.T) {
	m := MeasureGlitch(PWL{})
	if m.Peak != 0 || m.Width != 0 || m.Area != 0 {
		t.Fatalf("zero metrics = %+v", m)
	}
}
