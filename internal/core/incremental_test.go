package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bind"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/sta"
	"repro/internal/units"
	"repro/internal/workload"
)

// coupledBus binds a small symmetric bus (every line both aggresses and is
// aggressed by its neighbours, as extractors emit it) whose overlapping
// windows produce delay impacts on every line — the joint loop pads nets
// that are aggressors of other victims, which is what drives the
// incremental re-preparation path.
func coupledBus(t testing.TB, bits int) (*bind.Design, sta.Options) {
	t.Helper()
	g, err := workload.Bus(workload.BusSpec{
		Bits: bits, Segs: 2,
		WindowWidth: 80 * units.Pico,
	})
	if err != nil {
		t.Fatal(err)
	}
	bd, err := g.Bind(liberty.Generic())
	if err != nil {
		t.Fatal(err)
	}
	return bd, g.STAOptions()
}

// f64Same is exact float equality with NaN treated as equal to itself —
// Combined.At is NaN for quiet nets, which breaks reflect.DeepEqual.
func f64Same(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func combSame(a, b Combined) bool {
	if !f64Same(a.Peak, b.Peak) || !f64Same(a.Width, b.Width) || !f64Same(a.At, b.At) {
		return false
	}
	if a.Window != b.Window || len(a.Members) != len(b.Members) || len(a.MemberEvents) != len(b.MemberEvents) {
		return false
	}
	for i := range a.Members {
		if a.Members[i] != b.Members[i] {
			return false
		}
	}
	for i := range a.MemberEvents {
		if a.MemberEvents[i] != b.MemberEvents[i] {
			return false
		}
	}
	return true
}

// requireSameNoise compares two noise results exactly (events,
// combinations, violations, slacks) apart from execution statistics.
func requireSameNoise(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Nets) != len(want.Nets) {
		t.Fatalf("%s: net count %d != %d", label, len(got.Nets), len(want.Nets))
	}
	for name, wn := range want.Nets {
		gn := got.Nets[name]
		if gn == nil {
			t.Fatalf("%s: net %s missing", label, name)
		}
		for _, k := range Kinds {
			if !combSame(gn.Comb[k], wn.Comb[k]) {
				t.Fatalf("%s: net %s kind %v comb differs:\n got %+v\nwant %+v",
					label, name, k, gn.Comb[k], wn.Comb[k])
			}
			if len(gn.Events[k]) != len(wn.Events[k]) {
				t.Fatalf("%s: net %s kind %v has %d events, want %d",
					label, name, k, len(gn.Events[k]), len(wn.Events[k]))
			}
			for i := range wn.Events[k] {
				if gn.Events[k][i] != wn.Events[k][i] {
					t.Fatalf("%s: net %s kind %v event %d differs:\n got %+v\nwant %+v",
						label, name, k, i, gn.Events[k][i], wn.Events[k][i])
				}
			}
		}
	}
	if !reflect.DeepEqual(got.Violations, want.Violations) {
		t.Fatalf("%s: violations differ:\n got %+v\nwant %+v", label, got.Violations, want.Violations)
	}
	if !reflect.DeepEqual(got.Slacks, want.Slacks) {
		t.Fatalf("%s: slacks differ:\n got %+v\nwant %+v", label, got.Slacks, want.Slacks)
	}
	if len(got.Diags) != len(want.Diags) {
		t.Fatalf("%s: diag count %d != %d", label, len(got.Diags), len(want.Diags))
	}
}

func requireSameDelay(t *testing.T, label string, got, want *DelayResult) {
	t.Helper()
	if !reflect.DeepEqual(got.Impacts, want.Impacts) {
		t.Fatalf("%s: delay impacts differ:\n got %+v\nwant %+v", label, got.Impacts, want.Impacts)
	}
}

// TestIterativeIncrementalMatchesScratch is the oracle for the dirty-set
// engine: the final round of the incremental loop must equal a from-scratch
// analysis under the same (final) padding, in every mode.
func TestIterativeIncrementalMatchesScratch(t *testing.T) {
	for _, mode := range []Mode{ModeAllAggressors, ModeTimingWindows, ModeNoiseWindows} {
		t.Run(mode.String(), func(t *testing.T) {
			b, staOpts := coupledBus(t, 8)
			opts := Options{Mode: mode, STA: staOpts}
			iter, err := AnalyzeIterativeCtx(context.Background(), b, opts, 0)
			if err != nil {
				t.Fatal(err)
			}
			if iter.Rounds < 2 {
				t.Fatalf("rounds = %d: fixture no longer exercises the incremental path", iter.Rounds)
			}
			if !iter.Converged {
				// The final round must have run under the final padding for
				// the scratch comparison to be apples-to-apples.
				t.Fatalf("loop did not converge (%d rounds, %s)", iter.Rounds, iter.DivergeReason)
			}
			scratch := opts
			scratch.STA.WindowPadding = paddingByID(b.Net, iter.Padding)
			noise, err := AnalyzeCtx(context.Background(), b, scratch)
			if err != nil {
				t.Fatal(err)
			}
			delay, err := AnalyzeDelayCtx(context.Background(), b, scratch)
			if err != nil {
				t.Fatal(err)
			}
			requireSameNoise(t, "noise", iter.Noise, noise)
			requireSameDelay(t, "delay", iter.Delay, delay)
			// Preparation statistics are delta-maintained across rounds and
			// must match a scratch run; Iterations is an execution metric
			// (incremental rounds converge in fewer passes) and is excluded.
			is, ss := iter.Noise.Stats, noise.Stats
			if is.Victims != ss.Victims || is.AggressorPairs != ss.AggressorPairs ||
				is.Filtered != ss.Filtered || is.Propagated != ss.Propagated ||
				is.Converged != ss.Converged || is.DegradedNets != ss.DegradedNets {
				t.Fatalf("stats differ:\n got %+v\nwant %+v", is, ss)
			}
		})
	}
}

// TestLadderWorkloadConvergence pins the multi-round benchmark fixture:
// the ladder must take Steps+1 rounds to converge (one rung captured per
// round), and its incremental result must equal a from-scratch analysis
// at the final padding. If a model change moves the calibrated rung
// placements out of their capture bands, this fails before the benchmark
// numbers silently lose their meaning.
func TestLadderWorkloadConvergence(t *testing.T) {
	g, err := workload.Ladder(workload.LadderSpec{Lines: 16, Steps: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Bind(liberty.Generic())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Mode: ModeNoiseWindows, STA: g.STAOptions()}
	iter, err := AnalyzeIterativeCtx(context.Background(), b, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if iter.Rounds != 6 || !iter.Converged {
		t.Fatalf("ladder ran %d rounds (conv=%v), want 6 converged — rung placement drifted",
			iter.Rounds, iter.Converged)
	}
	scratch := opts
	scratch.STA.WindowPadding = paddingByID(b.Net, iter.Padding)
	noise, err := AnalyzeCtx(context.Background(), b, scratch)
	if err != nil {
		t.Fatal(err)
	}
	delay, err := AnalyzeDelayCtx(context.Background(), b, scratch)
	if err != nil {
		t.Fatal(err)
	}
	requireSameNoise(t, "ladder noise", iter.Noise, noise)
	requireSameDelay(t, "ladder delay", iter.Delay, delay)
}

// TestWorkersDeterminism: the parallel wavefront engine must reproduce the
// serial engine exactly, for both the one-shot and the iterative entry
// points, in every mode.
func TestWorkersDeterminism(t *testing.T) {
	for _, mode := range []Mode{ModeAllAggressors, ModeTimingWindows, ModeNoiseWindows} {
		t.Run(mode.String(), func(t *testing.T) {
			b := busFixture(t, 8, 4*units.Femto, 8*units.Femto)
			inputs := staggeredInputs(8, 40*units.Pico, 60*units.Pico)
			inputs["i_v"] = timingAt(0, 60*units.Pico)
			mk := func(workers int) Options {
				return Options{
					Mode:             mode,
					Workers:          workers,
					LogicCorrelation: true,
					STA:              sta.Options{InputTiming: inputs},
				}
			}
			serial := analyze(t, b, mk(1))
			parallel := analyze(t, b, mk(8))
			requireSameNoise(t, "analyze", parallel, serial)
			if serial.Stats != parallel.Stats {
				t.Fatalf("stats differ: serial %+v parallel %+v", serial.Stats, parallel.Stats)
			}

			iterS, err := AnalyzeIterativeCtx(context.Background(), b, mk(1), 0)
			if err != nil {
				t.Fatal(err)
			}
			iterP, err := AnalyzeIterativeCtx(context.Background(), b, mk(8), 0)
			if err != nil {
				t.Fatal(err)
			}
			if iterS.Rounds != iterP.Rounds || iterS.Converged != iterP.Converged {
				t.Fatalf("loop shape differs: serial %d/%v parallel %d/%v",
					iterS.Rounds, iterS.Converged, iterP.Rounds, iterP.Converged)
			}
			if !reflect.DeepEqual(iterS.Padding, iterP.Padding) {
				t.Fatalf("padding differs: %v vs %v", iterS.Padding, iterP.Padding)
			}
			requireSameNoise(t, "iterative", iterP.Noise, iterS.Noise)
			requireSameDelay(t, "iterative", iterP.Delay, iterS.Delay)
		})
	}
}

// TestIncrementalRoundsReuseCleanVictims pins down the point of the
// exercise: a round's dirty set must not include victims outside the
// padded nets' coupling neighbourhood and fanout.
func TestIncrementalRoundsReuseCleanVictims(t *testing.T) {
	b, staOpts := coupledBus(t, 8)
	prepares := make(map[string]int)
	opts := Options{
		Mode: ModeNoiseWindows,
		STA:  staOpts,
		PrepareHook: func(net string) error {
			prepares[net]++
			return nil
		},
	}
	iter, err := AnalyzeIterativeCtx(context.Background(), b, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if iter.Rounds < 2 {
		t.Fatalf("rounds = %d: fixture no longer exercises the incremental path", iter.Rounds)
	}
	// Round 1 prepares everything once. Later rounds re-prepare only the
	// victims coupled to a padded net; the uncoupled input/output stub
	// nets must stay at one preparation no matter how many rounds ran.
	repreps := 0
	for net, n := range prepares {
		if n < 1 {
			t.Fatalf("net %s never prepared", net)
		}
		if !strings.HasPrefix(net, "b") && n != 1 {
			t.Fatalf("uncoupled net %s prepared %d times, want 1", net, n)
		}
		if n > 1 {
			repreps++
		}
	}
	if repreps == 0 {
		t.Fatal("no victim was ever re-prepared; the incremental path is dead")
	}
	// A line next to a padded line must have been re-prepared.
	for net, pad := range iter.Padding {
		if pad <= 0 || !strings.HasPrefix(net, "b") {
			continue
		}
		var i int
		if _, err := fmt.Sscanf(net, "b%d", &i); err != nil {
			continue
		}
		for _, j := range []int{i - 1, i + 1} {
			p := fmt.Sprintf("b%d", j)
			if prepares[p] > 0 && prepares[p] < 2 {
				t.Fatalf("neighbour %s of padded line %s prepared %d times, want ≥ 2",
					p, net, prepares[p])
			}
		}
	}
}

// paddingByID resolves a padding record by name to the timing engine's
// slice by net ID.
func paddingByID(d *netlist.Design, padding map[string]float64) []float64 {
	out := make([]float64, d.NumNets())
	for net, pad := range padding {
		out[d.FindNet(net)] = pad
	}
	return out
}
