package ckt

import (
	"math"
	"testing"

	"repro/internal/units"
	"repro/internal/waveform"
)

func (m *dense) set(i, j int, v float64) { m.a[i*m.n+j] = v }

func TestLUSolveIdentity(t *testing.T) {
	m := newDense(3)
	for i := 0; i < 3; i++ {
		m.set(i, i, 1)
	}
	f, err := factor(m)
	if err != nil {
		t.Fatal(err)
	}
	x := f.solve([]float64{1, 2, 3})
	for i, want := range []float64{1, 2, 3} {
		if math.Abs(x[i]-want) > 1e-12 {
			t.Fatalf("x = %v", x)
		}
	}
}

func TestLUSolveGeneral(t *testing.T) {
	// A = [[2,1],[1,3]], b = [5,10] -> x = [1,3].
	m := newDense(2)
	m.set(0, 0, 2)
	m.set(0, 1, 1)
	m.set(1, 0, 1)
	m.set(1, 1, 3)
	f, err := factor(m)
	if err != nil {
		t.Fatal(err)
	}
	x := f.solve([]float64{5, 10})
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
}

func TestLUNeedsPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	m := newDense(2)
	m.set(0, 0, 0)
	m.set(0, 1, 1)
	m.set(1, 0, 1)
	m.set(1, 1, 0)
	f, err := factor(m)
	if err != nil {
		t.Fatal(err)
	}
	x := f.solve([]float64{2, 3})
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
}

func TestLUSingular(t *testing.T) {
	m := newDense(2)
	m.set(0, 0, 1)
	m.set(0, 1, 1)
	m.set(1, 0, 2)
	m.set(1, 1, 2)
	if _, err := factor(m); err == nil {
		t.Fatal("singular matrix factored")
	}
}

func TestResistorDividerDC(t *testing.T) {
	c := New()
	if err := c.AddV("vin", "a", waveform.MustNew(waveform.Point{V: 1.0})); err != nil {
		t.Fatal(err)
	}
	if err := c.AddR("a", "mid", 1000); err != nil {
		t.Fatal(err)
	}
	if err := c.AddR("mid", "0", 1000); err != nil {
		t.Fatal(err)
	}
	res, err := c.Tran(1e-12, 10e-12, []string{"mid"})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.volts["mid"] {
		if math.Abs(v-0.5) > 1e-6 {
			t.Fatalf("divider voltage = %g, want 0.5", v)
		}
	}
}

func TestRCStepResponse(t *testing.T) {
	// R=1k, C=1pF: tau = 1ns. Step at t=0 via fast ramp.
	c := New()
	step := waveform.SatRamp(0, 1e-15, 0, 1.0)
	if err := c.AddV("vin", "in", step); err != nil {
		t.Fatal(err)
	}
	if err := c.AddR("in", "out", 1000); err != nil {
		t.Fatal(err)
	}
	if err := c.AddC("out", "0", 1e-12); err != nil {
		t.Fatal(err)
	}
	res, err := c.Tran(5e-12, 5e-9, []string{"out"})
	if err != nil {
		t.Fatal(err)
	}
	w, err := res.Waveform("out")
	if err != nil {
		t.Fatal(err)
	}
	tau := 1e-9
	for _, tt := range []float64{0.5e-9, 1e-9, 2e-9, 4e-9} {
		want := 1 - math.Exp(-tt/tau)
		got := w.Eval(tt)
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("v(%g) = %g, want %g", tt, got, want)
		}
	}
}

func TestCouplingGlitchVsClosedForm(t *testing.T) {
	// Victim node v held through Rh to ground; coupling Cx to aggressor
	// ramp, grounded Cg. During a ramp of slope k the victim follows
	//   v(t) = k·Rh·Cx·(1 − e^{−t/τ}),  τ = Rh·(Cg+Cx).
	rh := 2000.0
	cx := 5 * units.Femto
	cg := 15 * units.Femto
	slew := 50 * units.Pico
	vdd := 1.2
	k := vdd / slew
	tau := rh * (cg + cx)

	c := New()
	if err := c.AddV("agg", "a", waveform.SatRamp(0, slew, 0, vdd)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddR("v", "0", rh); err != nil {
		t.Fatal(err)
	}
	if err := c.AddC("v", "a", cx); err != nil {
		t.Fatal(err)
	}
	if err := c.AddC("v", "0", cg); err != nil {
		t.Fatal(err)
	}
	res, err := c.Tran(0.1*units.Pico, 200*units.Pico, []string{"v"})
	if err != nil {
		t.Fatal(err)
	}
	w, err := res.Waveform("v")
	if err != nil {
		t.Fatal(err)
	}
	// Compare during the ramp.
	for _, tt := range []float64{10 * units.Pico, 25 * units.Pico, 45 * units.Pico} {
		want := k * rh * cx * (1 - math.Exp(-tt/tau))
		got := w.Eval(tt)
		if units.RelErr(got, want, 1e-3) > 0.02 {
			t.Fatalf("glitch v(%g) = %g, want %g", tt, got, want)
		}
	}
	// Peak occurs at end of ramp.
	_, peak := w.Peak()
	wantPeak := k * rh * cx * (1 - math.Exp(-slew/tau))
	if units.RelErr(peak, wantPeak, 1e-3) > 0.02 {
		t.Fatalf("peak = %g, want %g", peak, wantPeak)
	}
}

func TestEnergyDecaysAfterGlitch(t *testing.T) {
	// After the aggressor settles, the victim voltage must decay
	// monotonically toward zero (passive RC).
	c := New()
	if err := c.AddV("agg", "a", waveform.SatRamp(0, 10e-12, 0, 1.2)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddR("v", "0", 5000); err != nil {
		t.Fatal(err)
	}
	if err := c.AddC("v", "a", 4e-15); err != nil {
		t.Fatal(err)
	}
	if err := c.AddC("v", "0", 10e-15); err != nil {
		t.Fatal(err)
	}
	res, err := c.Tran(0.5e-12, 500e-12, []string{"v"})
	if err != nil {
		t.Fatal(err)
	}
	vs := res.volts["v"]
	// Find the peak index, then check non-increase afterward.
	peak := 0
	for i, v := range vs {
		if v > vs[peak] {
			peak = i
		}
	}
	for i := peak + 1; i < len(vs); i++ {
		if vs[i] > vs[i-1]+1e-9 {
			t.Fatalf("victim voltage rose after peak at step %d", i)
		}
	}
	if vs[len(vs)-1] > 0.01*vs[peak] {
		t.Fatalf("glitch did not decay: final %g vs peak %g", vs[len(vs)-1], vs[peak])
	}
}

func TestTranErrors(t *testing.T) {
	c := New()
	if err := c.AddV("v", "a", waveform.MustNew(waveform.Point{V: 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Tran(-1, 1, nil); err == nil {
		t.Fatal("negative step accepted")
	}
	if _, err := c.Tran(1e-12, 1e-9, []string{"ghost"}); err == nil {
		t.Fatal("unknown probe accepted")
	}
}

func TestElementValidation(t *testing.T) {
	c := New()
	if err := c.AddR("a", "b", 0); err == nil {
		t.Fatal("zero resistance accepted")
	}
	if err := c.AddC("a", "b", -1); err == nil {
		t.Fatal("negative capacitance accepted")
	}
	if err := c.AddV("v", "0", waveform.MustNew(waveform.Point{V: 1})); err == nil {
		t.Fatal("grounded source accepted")
	}
}

func TestGroundAliases(t *testing.T) {
	c := New()
	if c.Node("0") != 0 || c.Node("") != 0 || c.Node("gnd") != 0 {
		t.Fatal("ground aliases broken")
	}
	if c.Node("x") == 0 {
		t.Fatal("regular node mapped to ground")
	}
}

func TestResultWaveformUnknownProbe(t *testing.T) {
	r := &Result{volts: map[string][]float64{}}
	if _, err := r.Waveform("x"); err == nil {
		t.Fatal("unknown probe waveform accepted")
	}
}

func BenchmarkTranCluster(b *testing.B) {
	// 8-net coupled cluster: aggressors ramping into one victim ladder.
	build := func() *Circuit {
		c := New()
		if err := c.AddR("v0", "0", 3000); err != nil {
			b.Fatal(err)
		}
		prev := "v0"
		for i := 0; i < 8; i++ {
			node := "v" + string(rune('1'+i))
			if err := c.AddR(prev, node, 100); err != nil {
				b.Fatal(err)
			}
			if err := c.AddC(node, "0", 2e-15); err != nil {
				b.Fatal(err)
			}
			prev = node
		}
		for i := 0; i < 4; i++ {
			an := "a" + string(rune('0'+i))
			if err := c.AddV("src"+an, an, waveform.SatRamp(float64(i)*20e-12, 30e-12, 0, 1.2)); err != nil {
				b.Fatal(err)
			}
			if err := c.AddC("v4", an, 1.5e-15); err != nil {
				b.Fatal(err)
			}
		}
		return c
	}
	c := build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Tran(1e-12, 300e-12, []string{"v4"}); err != nil {
			b.Fatal(err)
		}
	}
}
