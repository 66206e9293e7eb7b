package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/bind"
	"repro/internal/interval"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/spef"
	"repro/internal/sta"
	"repro/internal/units"
)

// busFixture builds a victim net "v" flanked by n aggressor nets
// "a0..a(n-1)", every net driven by an INV_X1 from its own input port and
// received by an INV_X1. Each aggressor couples cx to the victim; the
// victim carries cg of grounded wire cap. The nets named in strangers are
// extracted but absent from the netlist.
func busFixture(t testing.TB, n int, cx, cg float64, strangers ...string) *bind.Design {
	t.Helper()
	d := netlist.New("bus")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	para := spef.NewParasitics("bus")
	addNet := func(name string, conns []spef.Conn, caps []spef.CapEntry) {
		must(para.AddNet(&spef.Net{Name: name, Conns: conns, Caps: caps,
			Ress: []spef.ResEntry{{A: "d" + name + ":Y", B: name + ":1", Ohms: 50},
				{A: name + ":1", B: "r" + name + ":A", Ohms: 50}}}))
	}
	nets := []string{"v"}
	for i := 0; i < n; i++ {
		nets = append(nets, fmt.Sprintf("a%d", i))
	}
	for _, name := range nets {
		if slices.Contains(strangers, name) {
			continue
		}
		_, err := d.AddPort("i_"+name, netlist.In)
		must(err)
		_, err = d.AddInst("d"+name, "INV_X1")
		must(err)
		_, err = d.AddInst("r"+name, "INV_X1")
		must(err)
		must(d.Connect("d"+name, "A", "i_"+name, netlist.In))
		must(d.Connect("d"+name, "Y", name, netlist.Out))
		must(d.Connect("r"+name, "A", name, netlist.In))
		must(d.Connect("r"+name, "Y", "o_"+name, netlist.Out))
	}
	// Victim parasitics: grounded cg plus cx per aggressor.
	vcaps := []spef.CapEntry{{Node: "v:1", F: cg}}
	for i := 0; i < n; i++ {
		vcaps = append(vcaps, spef.CapEntry{Node: "v:1", Other: fmt.Sprintf("a%d:1", i), F: cx})
	}
	conns := func(name string) []spef.Conn {
		return []spef.Conn{
			{Pin: "d" + name + ":Y", Dir: spef.DirOut, Node: "d" + name + ":Y"},
			{Pin: "r" + name + ":A", Dir: spef.DirIn, Node: "r" + name + ":A"},
		}
	}
	addNet("v", conns("v"), vcaps)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("a%d", i)
		addNet(name, conns(name), []spef.CapEntry{{Node: name + ":1", F: 4 * units.Femto}})
	}
	b, err := bind.New(d, liberty.Generic(), para)
	must(err)
	return b
}

// staggeredInputs gives each aggressor input port a disjoint arrival
// window: aggressor i switches in [i*sep, i*sep + width].
func staggeredInputs(n int, sep, width float64) map[string]*sta.Timing {
	m := make(map[string]*sta.Timing)
	for i := 0; i < n; i++ {
		w := interval.SetOf(float64(i)*sep, float64(i)*sep+width)
		m[fmt.Sprintf("i_a%d", i)] = &sta.Timing{
			Rise:     w,
			Fall:     w,
			SlewRise: sta.Range{Min: 20 * units.Pico, Max: 20 * units.Pico},
			SlewFall: sta.Range{Min: 20 * units.Pico, Max: 20 * units.Pico},
		}
	}
	// The victim input is quiet so its own switching is inert.
	m["i_v"] = &sta.Timing{
		SlewRise: sta.Range{Min: math.Inf(1), Max: math.Inf(-1)},
		SlewFall: sta.Range{Min: math.Inf(1), Max: math.Inf(-1)},
	}
	return m
}

func analyze(t testing.TB, b *bind.Design, opts Options) *Result {
	t.Helper()
	res, err := AnalyzeCtx(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDisjointWindowsRemovePessimism(t *testing.T) {
	b := busFixture(t, 3, 3*units.Femto, 10*units.Femto)
	// Aggressors far apart: windows can never overlap.
	inputs := staggeredInputs(3, 10000*units.Pico, 50*units.Pico)

	resA := analyze(t, b, Options{Mode: ModeAllAggressors, STA: sta.Options{InputTiming: inputs}})
	resC := analyze(t, b, Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}})

	nA := resA.NoiseOf("v").Comb[KindLow]
	nC := resC.NoiseOf("v").Comb[KindLow]
	if nA.Peak <= 0 || nC.Peak <= 0 {
		t.Fatalf("peaks: A=%g C=%g", nA.Peak, nC.Peak)
	}
	// All-aggressors sums all three; windows allow only one at a time.
	if nC.Peak >= nA.Peak*0.6 {
		t.Fatalf("windowed peak %g not much below pessimistic %g", nC.Peak, nA.Peak)
	}
	if len(nA.Members) != 3 {
		t.Fatalf("A members = %v", nA.Members)
	}
	if len(nC.Members) != 1 {
		t.Fatalf("C members = %v", nC.Members)
	}
	// Roughly: one aggressor's peak vs three.
	if math.Abs(nA.Peak-3*nC.Peak) > 0.05*nA.Peak {
		t.Fatalf("A=%g, C=%g: expected ~3x ratio", nA.Peak, nC.Peak)
	}
}

func TestOverlappingWindowsMatchPessimistic(t *testing.T) {
	b := busFixture(t, 3, 3*units.Femto, 10*units.Femto)
	// All aggressors share one window: timing cannot help.
	inputs := staggeredInputs(3, 0, 100*units.Pico)

	resA := analyze(t, b, Options{Mode: ModeAllAggressors, STA: sta.Options{InputTiming: inputs}})
	resC := analyze(t, b, Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}})

	nA := resA.NoiseOf("v").Comb[KindLow]
	nC := resC.NoiseOf("v").Comb[KindLow]
	if math.Abs(nA.Peak-nC.Peak) > 1e-6 {
		t.Fatalf("fully overlapping windows: A=%g C=%g, want equal", nA.Peak, nC.Peak)
	}
	if len(nC.Members) != 3 {
		t.Fatalf("C members = %v", nC.Members)
	}
}

func TestModeOrderingInvariant(t *testing.T) {
	// For any window arrangement both windowed analyses are bounded by
	// the classical one. C (sound tent occupancy) may slightly exceed B
	// (classical peak alignment, optimistic against partial tail
	// overlap) in the marginal band — that is the T11 soundness finding
	// — so no C-vs-B ordering is asserted.
	for _, sep := range []float64{0, 30 * units.Pico, 200 * units.Pico, 5000 * units.Pico} {
		b := busFixture(t, 4, 2*units.Femto, 12*units.Femto)
		inputs := staggeredInputs(4, sep, 60*units.Pico)
		pA := analyze(t, b, Options{Mode: ModeAllAggressors, STA: sta.Options{InputTiming: inputs}}).TotalNoise()
		pB := analyze(t, b, Options{Mode: ModeTimingWindows, STA: sta.Options{InputTiming: inputs}}).TotalNoise()
		pC := analyze(t, b, Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}}).TotalNoise()
		if !(pC <= pA+1e-9 && pB <= pA+1e-9) {
			t.Fatalf("sep %g: bound violated: C=%g B=%g A=%g", sep, pC, pB, pA)
		}
		// The peak-occupancy variant of C reproduces the strict old
		// ordering against B on coupled-only designs.
		pCpeak := analyze(t, b, Options{Mode: ModeNoiseWindows, Occupancy: OccupancyPeak, STA: sta.Options{InputTiming: inputs}}).TotalNoise()
		if pCpeak > pB+1e-9 {
			t.Fatalf("sep %g: peak-occupancy C=%g above B=%g", sep, pCpeak, pB)
		}
	}
}

func TestQuietAggressorIgnoredInWindowModes(t *testing.T) {
	b := busFixture(t, 2, 3*units.Femto, 10*units.Femto)
	inputs := staggeredInputs(2, 0, 50*units.Pico)
	// Silence aggressor 1 completely.
	inputs["i_a1"] = inputs["i_v"]
	resC := analyze(t, b, Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}})
	resA := analyze(t, b, Options{Mode: ModeAllAggressors, STA: sta.Options{InputTiming: inputs}})
	nC := resC.NoiseOf("v").Comb[KindLow]
	nA := resA.NoiseOf("v").Comb[KindLow]
	for _, m := range nC.Members {
		if m == "a1" {
			t.Fatal("silent aggressor contributed in window mode")
		}
	}
	// The pessimistic mode still assumes a1 can switch.
	found := false
	for _, m := range nA.Members {
		if m == "a1" {
			found = true
		}
	}
	if !found {
		t.Fatal("all-aggressors mode dropped the silent aggressor")
	}
}

func TestPropagationCreatesDownstreamEvents(t *testing.T) {
	// Strong coupling so the victim glitch exceeds the transfer threshold
	// (0.3·Vdd = 0.36 V) and propagates through the receiving inverter.
	b := busFixture(t, 2, 6*units.Femto, 2*units.Femto)
	inputs := staggeredInputs(2, 0, 50*units.Pico)
	res := analyze(t, b, Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}})

	nv := res.NoiseOf("v").Comb[KindLow]
	if nv.Peak < 0.36 {
		t.Fatalf("victim peak %g too small to exercise propagation", nv.Peak)
	}
	// The victim's receiver drives o_v: it must carry a propagated event.
	ov := res.NoiseOf("o_v")
	if ov == nil {
		t.Fatal("o_v not analyzed")
	}
	var prop *Event
	for k := range Kinds {
		for i := range ov.Events[k] {
			if ov.Events[k][i].Source == "prop:v" {
				prop = &ov.Events[k][i]
			}
		}
	}
	if prop == nil {
		t.Fatalf("no propagated event on o_v: %+v", ov.Events)
	}
	// Inverter: low-victim glitch becomes high-side glitch downstream.
	if len(ov.Events[KindHigh]) == 0 {
		t.Fatal("negative-unate propagation missing on high side")
	}
	// Attenuation: propagated peak below source peak.
	if prop.Peak >= nv.Peak {
		t.Fatalf("propagated peak %g not attenuated from %g", prop.Peak, nv.Peak)
	}
	// Window: shifted later than the source window (gate delay).
	if prop.Window.IsInfinite() || prop.Window.Lo <= nv.Window.Lo {
		t.Fatalf("propagated window %v not delayed from %v", prop.Window, nv.Window)
	}
	if !res.Stats.Converged {
		t.Fatal("propagation did not converge")
	}
}

func TestPropagatedWindowsInfiniteInTimingMode(t *testing.T) {
	b := busFixture(t, 2, 6*units.Femto, 2*units.Femto)
	inputs := staggeredInputs(2, 0, 50*units.Pico)
	res := analyze(t, b, Options{Mode: ModeTimingWindows, STA: sta.Options{InputTiming: inputs}})
	ov := res.NoiseOf("o_v")
	found := false
	for k := range Kinds {
		for _, e := range ov.Events[k] {
			if e.Source == "prop:v" {
				found = true
				if !e.Window.IsInfinite() {
					t.Fatalf("timing-window mode propagated event has window %v, want infinite", e.Window)
				}
			}
		}
	}
	if !found {
		t.Fatal("no propagated event found")
	}
}

func TestNoPropagationOption(t *testing.T) {
	b := busFixture(t, 2, 6*units.Femto, 2*units.Femto)
	inputs := staggeredInputs(2, 0, 50*units.Pico)
	res := analyze(t, b, Options{Mode: ModeNoiseWindows, NoPropagation: true, STA: sta.Options{InputTiming: inputs}})
	ov := res.NoiseOf("o_v")
	for k := range Kinds {
		for _, e := range ov.Events[k] {
			if e.Source == "prop:v" {
				t.Fatal("propagation event present despite NoPropagation")
			}
		}
	}
	if res.Stats.Iterations != 1 {
		t.Fatalf("iterations = %d, want 1", res.Stats.Iterations)
	}
}

func TestViolationsDetectedAndSorted(t *testing.T) {
	// Very strong coupling: combined noise must violate the immunity
	// curve at the victim's receiver.
	b := busFixture(t, 4, 8*units.Femto, 1*units.Femto)
	inputs := staggeredInputs(4, 0, 50*units.Pico)
	res := analyze(t, b, Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}})
	if len(res.Violations) == 0 {
		t.Fatalf("no violations; victim peak = %g", res.NoiseOf("v").WorstPeak())
	}
	for i := 1; i < len(res.Violations); i++ {
		if res.Violations[i].Slack < res.Violations[i-1].Slack {
			t.Fatal("violations not sorted by slack")
		}
	}
	v := res.Violations[0]
	if v.Slack >= 0 || v.Peak <= v.Limit {
		t.Fatalf("violation fields inconsistent: %+v", v)
	}
	if res.WorstSlack() != v.Slack {
		t.Fatalf("WorstSlack = %g, want %g", res.WorstSlack(), v.Slack)
	}
}

func TestFilterAndVirtualAggressor(t *testing.T) {
	b := busFixture(t, 3, 2*units.Femto, 30*units.Femto)
	inputs := staggeredInputs(3, 0, 50*units.Pico)
	// Threshold above every coupling ratio: all filtered into virtual.
	resV := analyze(t, b, Options{
		Mode: ModeNoiseWindows, FilterThreshold: 0.9,
		STA: sta.Options{InputTiming: inputs},
	})
	nv := resV.NoiseOf("v")
	if len(nv.Events[KindLow]) != 1 || nv.Events[KindLow][0].Source != "virtual" {
		t.Fatalf("events = %+v, want single virtual", nv.Events[KindLow])
	}
	if resV.Stats.Filtered != 3 {
		t.Fatalf("filtered = %d", resV.Stats.Filtered)
	}
}

func TestCombinedWindowIsMemberIntersection(t *testing.T) {
	b := busFixture(t, 2, 3*units.Femto, 10*units.Femto)
	// Partially overlapping windows.
	inputs := staggeredInputs(2, 30*units.Pico, 100*units.Pico)
	res := analyze(t, b, Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}})
	comb := res.NoiseOf("v").Comb[KindLow]
	if len(comb.Members) != 2 {
		t.Fatalf("members = %v", comb.Members)
	}
	if comb.Window.IsEmpty() {
		t.Fatal("combined window empty despite overlap")
	}
	if !comb.Window.Contains(comb.At) {
		t.Fatalf("At %g outside combined window %v", comb.At, comb.Window)
	}
	// Intersection is narrower than each member window.
	for k := range res.NoiseOf("v").Events[KindLow] {
		e := res.NoiseOf("v").Events[KindLow][k]
		if comb.Window.Lo < e.Window.Lo || comb.Window.Hi > e.Window.Hi {
			t.Fatalf("combined window %v not inside member %v", comb.Window, e.Window)
		}
	}
}

// combine runs the windowed combination with the default (tent) occupancy.
func combine(events []Event, vdd float64) Combined {
	return new(combiner).combineConstrained(events, vdd, nil, OccupancyTent, nil)
}

func TestCombineHelperEdgeCases(t *testing.T) {
	if c := combine(nil, 1.2); c.Peak != 0 || !math.IsNaN(c.At) {
		t.Fatalf("empty combine = %+v", c)
	}
	// Peak clamps at the rail.
	events := []Event{
		{Peak: 1.0, Width: 1e-11, Window: interval.Infinite(), Source: "a"},
		{Peak: 1.0, Width: 2e-11, Window: interval.Infinite(), Source: "b"},
	}
	c := combine(events, 1.2)
	if c.Peak != 1.2 {
		t.Fatalf("clamped peak = %g", c.Peak)
	}
	if c.Width != 2e-11 {
		t.Fatalf("combined width = %g, want max member width", c.Width)
	}
}

func TestPropagateKindMapping(t *testing.T) {
	propagateKind := func(u liberty.Unateness, in Kind) []Kind {
		kinds, n := propagateKind(u, in)
		return kinds[:n]
	}
	if got := propagateKind(liberty.PositiveUnate, KindLow); len(got) != 1 || got[0] != KindLow {
		t.Fatalf("pos/low = %v", got)
	}
	if got := propagateKind(liberty.NegativeUnate, KindLow); len(got) != 1 || got[0] != KindHigh {
		t.Fatalf("neg/low = %v", got)
	}
	if got := propagateKind(liberty.NegativeUnate, KindHigh); len(got) != 1 || got[0] != KindLow {
		t.Fatalf("neg/high = %v", got)
	}
	if got := propagateKind(liberty.NonUnate, KindHigh); len(got) != 2 {
		t.Fatalf("non/high = %v", got)
	}
}

func TestModeAndKindStrings(t *testing.T) {
	if ModeAllAggressors.String() != "all-aggressors" ||
		ModeTimingWindows.String() != "timing-windows" ||
		ModeNoiseWindows.String() != "noise-windows" {
		t.Fatal("mode strings")
	}
	if KindLow.String() != "low" || KindHigh.String() != "high" {
		t.Fatal("kind strings")
	}
}

func BenchmarkAnalyzeBus8(b *testing.B) {
	bd := busFixture(b, 8, 2*units.Femto, 10*units.Femto)
	inputs := staggeredInputs(8, 40*units.Pico, 60*units.Pico)
	opts := Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeCtx(context.Background(), bd, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func TestParallelAnalysisMatchesSerial(t *testing.T) {
	b := busFixture(t, 6, 4*units.Femto, 8*units.Femto)
	inputs := staggeredInputs(6, 70*units.Pico, 60*units.Pico)
	serial := analyze(t, b, Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}})
	parallel := analyze(t, b, Options{Mode: ModeNoiseWindows, Workers: 4, STA: sta.Options{InputTiming: inputs}})
	if serial.Stats.AggressorPairs != parallel.Stats.AggressorPairs {
		t.Fatalf("pairs: %d vs %d", serial.Stats.AggressorPairs, parallel.Stats.AggressorPairs)
	}
	if len(serial.Violations) != len(parallel.Violations) {
		t.Fatalf("violations: %d vs %d", len(serial.Violations), len(parallel.Violations))
	}
	for name, sn := range serial.Nets {
		pn := parallel.NoiseOf(name)
		if pn == nil {
			t.Fatalf("parallel run missing net %s", name)
		}
		for _, k := range Kinds {
			if math.Abs(sn.Comb[k].Peak-pn.Comb[k].Peak) > 1e-12 {
				t.Fatalf("net %s kind %v: %g vs %g", name, k, sn.Comb[k].Peak, pn.Comb[k].Peak)
			}
			if len(sn.Events[k]) != len(pn.Events[k]) {
				t.Fatalf("net %s kind %v: event counts differ", name, k)
			}
		}
	}
}

func TestCombinedWaveformReconstruction(t *testing.T) {
	b := busFixture(t, 3, 4*units.Femto, 8*units.Femto)
	inputs := staggeredInputs(3, 0, 60*units.Pico)
	res := analyze(t, b, Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}})
	nn := res.NoiseOf("v")
	comb := nn.Comb[KindLow]
	if comb.Peak <= 0 || len(comb.MemberEvents) != len(comb.Members) {
		t.Fatalf("combined = %+v", comb)
	}
	w := nn.CombinedWaveform(KindLow)
	tt, v := w.Peak()
	if math.Abs(tt-comb.At) > 1e-15 {
		t.Fatalf("waveform peak at %g, alignment at %g", tt, comb.At)
	}
	// Sum of member peaks equals the (unclamped) combined peak.
	var want float64
	for _, e := range comb.MemberEvents {
		want += e.Peak
	}
	if math.Abs(v-want) > 1e-12 {
		t.Fatalf("waveform peak %g, want %g", v, want)
	}
	// High-side reconstruction is the mirror image.
	if _, hv := nn.CombinedWaveform(KindHigh).Peak(); hv > 0 {
		t.Fatalf("high-side waveform peak %g, want negative or none", hv)
	}
	// A quiet net yields the zero waveform.
	quiet := &NetNoise{}
	if _, v := quiet.CombinedWaveform(KindLow).Peak(); v != 0 {
		t.Fatal("quiet net waveform not zero")
	}
}

func TestSlacksRecordedAndSorted(t *testing.T) {
	b := busFixture(t, 3, 4*units.Femto, 8*units.Femto)
	inputs := staggeredInputs(3, 0, 60*units.Pico)
	res := analyze(t, b, Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: inputs}})
	if len(res.Slacks) == 0 {
		t.Fatal("no slacks recorded")
	}
	all := res.TightestSlacks(len(res.Slacks))
	for i := 1; i < len(all); i++ {
		if all[i].Slack < all[i-1].Slack {
			t.Fatal("slacks not read tightest-first")
		}
	}
	// The victim's receiver must be among the tightest.
	tight := res.TightestSlacks(1)
	if len(tight) != 1 || tight[0].Net != "v" {
		t.Fatalf("tightest = %+v", tight)
	}
	if res.WorstSlack() != tight[0].Slack {
		t.Fatal("WorstSlack disagrees with sorted list")
	}
	// Asking for more than exist returns all, for fewer than none none.
	if got := len(res.TightestSlacks(10000)); got != len(res.Slacks) {
		t.Fatalf("TightestSlacks clamp: %d vs %d", got, len(res.Slacks))
	}
	for _, n := range []int{0, -1, -len(res.Slacks) - 1} {
		if got := res.TightestSlacks(n); len(got) != 0 {
			t.Fatalf("TightestSlacks(%d) = %d slacks, want none", n, len(got))
		}
	}
}

func TestOccupancyStrings(t *testing.T) {
	if OccupancyTent.String() != "tent" || OccupancyPeak.String() != "peak" || OccupancyWiden.String() != "widen" {
		t.Fatal("occupancy strings")
	}
}

func TestWorstSlackEmpty(t *testing.T) {
	r := &Result{}
	if !math.IsInf(r.WorstSlack(), 1) {
		t.Fatal("empty WorstSlack not +Inf")
	}
}

func TestContributionPolicies(t *testing.T) {
	e := Event{Peak: 1.0, Width: 10, Window: interval.New(100, 200)}
	// Inside the window every policy gives the full peak.
	for _, occ := range []Occupancy{OccupancyTent, OccupancyPeak, OccupancyWiden} {
		if got := contribution(&e, 150, occ); got != 1.0 {
			t.Fatalf("%v inside = %g", occ, got)
		}
	}
	// 4 away from the edge: tent decays, widen (within the width) still
	// full, peak zero.
	if got := contribution(&e, 204, OccupancyTent); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("tent tail = %g, want 0.6", got)
	}
	if got := contribution(&e, 204, OccupancyWiden); got != 1.0 {
		t.Fatalf("widen plateau = %g", got)
	}
	if got := contribution(&e, 204, OccupancyPeak); got != 0 {
		t.Fatalf("peak outside = %g", got)
	}
	// Beyond the width every policy is zero.
	for _, occ := range []Occupancy{OccupancyTent, OccupancyPeak, OccupancyWiden} {
		if got := contribution(&e, 211, occ); got != 0 {
			t.Fatalf("%v far = %g", occ, got)
		}
	}
	// Left side symmetric.
	if got := contribution(&e, 96, OccupancyTent); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("tent left tail = %g", got)
	}
	// Degenerate events contribute nothing.
	empty := Event{Peak: 1, Width: 10, Window: interval.Empty()}
	if contribution(&empty, 0, OccupancyTent) != 0 {
		t.Fatal("empty window contributed")
	}
	zeroW := Event{Peak: 1, Width: 0, Window: interval.New(0, 1)}
	if contribution(&zeroW, 2, OccupancyTent) != 0 {
		t.Fatal("zero-width tail contributed")
	}
	if contribution(&zeroW, 0.5, OccupancyTent) != 1 {
		t.Fatal("zero-width in-window lost")
	}
}

// TestWidenCoversTheTent holds ablation A1's ordering: widen is a
// conservative over-approximation of the tent, so it is never below it —
// not at any instant of one event's tail, and not in a combination that
// aligns one event's peak with another's tail.
func TestWidenCoversTheTent(t *testing.T) {
	e := Event{Peak: 1.0, Width: 10, Window: interval.New(100, 120)}
	for at := 80.0; at <= 140; at += 0.5 {
		peak, tent, widen := contribution(&e, at, OccupancyPeak), contribution(&e, at, OccupancyTent), contribution(&e, at, OccupancyWiden)
		if peak > tent || tent > widen {
			t.Errorf("t=%g: peak %g, tent %g, widen %g; want peak <= tent <= widen", at, peak, tent, widen)
		}
	}
	pair := []Event{
		{Peak: 1, Width: 10, Window: interval.New(0, 0), Source: "a"},
		{Peak: 1, Width: 10, Window: interval.New(7, 7), Source: "b"},
	}
	tent := new(combiner).combineConstrained(pair, 5, nil, OccupancyTent, nil)
	widen := new(combiner).combineConstrained(pair, 5, nil, OccupancyWiden, nil)
	if math.Abs(tent.Peak-1.3) > 1e-12 {
		t.Fatalf("tent combination = %g, want 1.3", tent.Peak)
	}
	if widen.Peak < tent.Peak {
		t.Errorf("widen combination %g is below the tent's %g", widen.Peak, tent.Peak)
	}
}

func TestSameSourceEventsNeverSum(t *testing.T) {
	// Two phases of one aggressor whose tent tails overlap: the combined
	// peak must be a single contribution, not the sum.
	events := []Event{
		{Peak: 0.4, Width: 100e-12, Window: interval.New(0, 50e-12), Source: "a"},
		{Peak: 0.4, Width: 100e-12, Window: interval.New(120e-12, 170e-12), Source: "a"},
	}
	c := combine(events, 1.2)
	if c.Peak > 0.4+1e-12 {
		t.Fatalf("same-source phases summed: %g", c.Peak)
	}
	// Different sources with the same geometry do partially sum.
	events[1].Source = "b"
	c = combine(events, 1.2)
	if !(c.Peak > 0.4+1e-12) {
		t.Fatalf("distinct sources failed to sum: %g", c.Peak)
	}
}

func TestRepairDescribeVariants(t *testing.T) {
	r := Repair{
		Violation:         Violation{Net: "v", Receiver: "r.A", Kind: KindLow, Slack: -0.1},
		CouplingCut:       1,
		DominantAggressor: "a0",
		HoldResFactor:     0.5,
	}
	d := r.Describe()
	if !strings.Contains(d, "fully shield") {
		t.Fatalf("describe = %q", d)
	}
	if !strings.Contains(d, "strengthen victim holding resistance by 2.0x") {
		t.Fatalf("describe = %q", d)
	}
	r.CouplingCut = 0.5
	r.UpsizeTo = "INV_X4"
	d = r.Describe()
	if !strings.Contains(d, "by 50%") || !strings.Contains(d, "INV_X4") {
		t.Fatalf("describe = %q", d)
	}
}
