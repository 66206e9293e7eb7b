// Root benchmark harness: one testing.B benchmark per evaluation table and
// figure (DESIGN.md §4). Each benchmark regenerates its experiment at Quick
// fidelity per iteration, so `go test -bench=. -benchmem` both exercises
// the full pipeline and measures the cost of each experiment; the full
// tables behind EXPERIMENTS.md come from `go run ./cmd/noisebench`.
package repro

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/interval"
	"repro/internal/liberty"
	"repro/internal/lint"
	"repro/internal/load"
	"repro/internal/netlist"
	"repro/internal/report"
	"repro/internal/shard"
	"repro/internal/spef"
	"repro/internal/sta"
	"repro/internal/units"
	"repro/internal/vlog"
	"repro/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Run(id, experiments.Config{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkT1Pessimism regenerates Table 1: violations and total noise
// under the three combination policies.
func BenchmarkT1Pessimism(b *testing.B) { benchExperiment(b, "T1") }

// BenchmarkT2Accuracy regenerates Table 2: analytical glitch model versus
// the transient MNA simulator.
func BenchmarkT2Accuracy(b *testing.B) { benchExperiment(b, "T2") }

// BenchmarkT3Runtime regenerates Table 3: analysis runtime scaling.
func BenchmarkT3Runtime(b *testing.B) { benchExperiment(b, "T3") }

// BenchmarkT4Convergence regenerates Table 4: propagation fixpoint
// iteration counts.
func BenchmarkT4Convergence(b *testing.B) { benchExperiment(b, "T4") }

// BenchmarkT5Filtering regenerates Table 5: aggressor filter threshold
// sweep.
func BenchmarkT5Filtering(b *testing.B) { benchExperiment(b, "T5") }

// BenchmarkT6Combination regenerates Table 6: windowed combination
// statistics.
func BenchmarkT6Combination(b *testing.B) { benchExperiment(b, "T6") }

// BenchmarkT7DeltaDelay regenerates Table 7: windowed crosstalk delta-delay
// versus the classical estimate.
func BenchmarkT7DeltaDelay(b *testing.B) { benchExperiment(b, "T7") }

// BenchmarkF1Alignment regenerates Figure 1: combined peak versus
// aggressor window offset.
func BenchmarkF1Alignment(b *testing.B) { benchExperiment(b, "F1") }

// BenchmarkF2Propagation regenerates Figure 2: glitch propagation down a
// gate chain.
func BenchmarkF2Propagation(b *testing.B) { benchExperiment(b, "F2") }

// BenchmarkF3Waveform regenerates Figure 3: combined-waveform
// reconstruction versus the golden simulator.
func BenchmarkF3Waveform(b *testing.B) { benchExperiment(b, "F3") }

// BenchmarkT8Shielding regenerates Table 8: shield insertion versus
// analysis policy.
func BenchmarkT8Shielding(b *testing.B) { benchExperiment(b, "T8") }

// BenchmarkT9Correlation regenerates Table 9: logic-correlation filtering
// on complementary aggressor pairs.
func BenchmarkT9Correlation(b *testing.B) { benchExperiment(b, "T9") }

// BenchmarkT10Iteration regenerates Table 10: the joint noise-timing
// fixpoint loop.
func BenchmarkT10Iteration(b *testing.B) { benchExperiment(b, "T10") }

// BenchmarkT11MonteCarlo regenerates Table 11: sampled alignment versus
// the static bounds.
func BenchmarkT11MonteCarlo(b *testing.B) { benchExperiment(b, "T11") }

// BenchmarkA1Widening regenerates the occupancy-policy ablation: peak
// alignment versus width-widened noise windows.
func BenchmarkA1Widening(b *testing.B) { benchExperiment(b, "A1") }

// BenchmarkA2Multiphase regenerates the set-vs-hull window ablation on a
// two-phase bus.
func BenchmarkA2Multiphase(b *testing.B) { benchExperiment(b, "A2") }

// BenchmarkA3Corners regenerates the process-corner sweep.
func BenchmarkA3Corners(b *testing.B) { benchExperiment(b, "A3") }

// BenchmarkAnalyzeBus64 measures the core analysis alone (no experiment
// scaffolding) on a 64-bit bus under the paper's policy — the number that
// tracks engine-level regressions.
func BenchmarkAnalyzeBus64(b *testing.B) {
	g, err := workload.Bus(workload.BusSpec{
		Bits: 64, Segs: 2,
		WindowSep: 60 * units.Pico, WindowWidth: 80 * units.Pico,
	})
	if err != nil {
		b.Fatal(err)
	}
	bd, err := g.Bind(liberty.Generic())
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions()}
	if _, err := core.AnalyzeCtx(context.Background(), bd, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AnalyzeCtx(context.Background(), bd, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// ladderFixture binds the multi-round convergence workload shared by the
// iterative benchmarks.
func ladderFixture(b *testing.B) (*bind.Design, core.Options) {
	b.Helper()
	g, err := workload.Ladder(workload.LadderSpec{Lines: 64, Steps: 5})
	if err != nil {
		b.Fatal(err)
	}
	bd, err := g.Bind(liberty.Generic())
	if err != nil {
		b.Fatal(err)
	}
	return bd, core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions()}
}

// BenchmarkAnalyzeIterative measures the incremental noise–timing loop on
// a workload that takes six rounds to converge: round one is a full
// analysis, every later round re-analyzes only the padded victim's dirty
// set while the 64-line background bus is reused untouched.
func BenchmarkAnalyzeIterative(b *testing.B) {
	bd, opts := ladderFixture(b)
	iter, err := core.AnalyzeIterativeCtx(context.Background(), bd, opts, 0)
	if err != nil {
		b.Fatal(err)
	}
	if iter.Rounds < 4 || !iter.Converged {
		b.Fatalf("fixture converged in %d rounds (conv=%v), want ≥ 4 for a meaningful loop",
			iter.Rounds, iter.Converged)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AnalyzeIterativeCtx(context.Background(), bd, opts, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeIterativeScratch is the pre-incremental reference: the
// same loop re-run from scratch every round (a fresh full analysis per
// round, as AnalyzeIterative did before the dirty-set engine). The ratio
// to BenchmarkAnalyzeIterative is the incremental speedup.
func BenchmarkAnalyzeIterativeScratch(b *testing.B) {
	bd, opts := ladderFixture(b)
	run := func() int {
		const tol = units.Pico / 100
		padding := make([]float64, bd.Net.NumNets())
		ropts := opts
		ropts.STA.WindowPadding = padding
		for round := 1; round <= 8; round++ {
			if _, err := core.AnalyzeCtx(context.Background(), bd, ropts); err != nil {
				b.Fatal(err)
			}
			delay, err := core.AnalyzeDelayCtx(context.Background(), bd, ropts)
			if err != nil {
				b.Fatal(err)
			}
			grew := false
			for _, im := range delay.Impacts {
				if im.Delta > padding[im.ID]+tol {
					padding[im.ID] = im.Delta
					grew = true
				}
			}
			if !grew {
				return round
			}
		}
		return -1
	}
	if rounds := run(); rounds < 4 {
		b.Fatalf("scratch loop converged in %d rounds, want ≥ 4", rounds)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// roundCounter counts a worker's Do calls, and the evals among them that
// came before the first round op — round 1's.
type roundCounter struct {
	shard.Worker
	calls, round1Evals int
	rounds             bool
}

func (w *roundCounter) Do(ctx context.Context, op string, req, resp any) error {
	w.calls++
	w.rounds = w.rounds || op == shard.OpRound
	if op == shard.OpEval && !w.rounds {
		w.round1Evals++
	}
	return w.Worker.Do(ctx, op, req, resp)
}

// BenchmarkIterateHotFabric runs the noise↔delay fixpoint on the
// benchmark's iterate shape (hot fabric 120 × 16, 2 160 nets, 18 waves, 5
// rounds of 2 passes), single-process and as 4 shards on one in-process
// worker, and reports the sharded run's Worker.Do calls per run. It fails
// outright when the confirming pass of round 1 is sent anything; core's
// TestIterateFixtureEvaluations counts what each pass evaluates.
func BenchmarkIterateHotFabric(b *testing.B) {
	g, err := workload.Fabric(workload.FabricSpec{
		Width: 120, Levels: 16, CouplingDensity: 3, CoupleC: 12 * units.Femto,
		GroundC: 4 * units.Femto, SegRes: 60, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	bd, err := g.Bind(liberty.Generic())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	opts := core.Options{Mode: core.ModeNoiseWindows, FailSoft: true, STA: g.STAOptions()}
	b.Run("local", func(b *testing.B) {
		// Round 1 alone is a session build: two passes, every net once.
		s, err := core.NewSession(ctx, bd, opts)
		if err != nil {
			b.Fatal(err)
		}
		if n := s.Noise(); n.Stats.Iterations != 2 {
			b.Fatalf("round 1 took %d passes, want 2", n.Stats.Iterations)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.AnalyzeIterativeCtx(ctx, bd, opts, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("inproc4", func(b *testing.B) {
		plan, err := core.BuildShardPlan(ctx, bd)
		if err != nil {
			b.Fatal(err)
		}
		calls := 0
		for i := 0; i < b.N; i++ {
			w := &roundCounter{Worker: shard.NewInProc("w0", func(context.Context) (*bind.Design, error) { return bd, nil }, opts)}
			if _, err := shard.Run(ctx, shard.Config{B: bd, Opts: opts, Workers: []shard.Worker{w}, Shards: 4, Token: "bench"}); err != nil {
				b.Fatal(err)
			}
			if w.round1Evals > len(plan.Waves) {
				b.Fatalf("round 1 made %d eval dispatches over %d waves: its second pass is not idle", w.round1Evals, len(plan.Waves))
			}
			calls += w.calls
		}
		b.ReportMetric(float64(calls)/float64(b.N), "dispatches/op")
	})
}

// BenchmarkAnalyzeFabric measures the engine on irregular logic with
// propagation, the other workload family.
func BenchmarkAnalyzeFabric(b *testing.B) {
	g, err := workload.Fabric(workload.FabricSpec{Width: 12, Levels: 8, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	bd, err := g.Bind(liberty.Generic())
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions()}
	if _, err := core.AnalyzeCtx(context.Background(), bd, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AnalyzeCtx(context.Background(), bd, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeHotFabric is the engine's share of batch_deep, alone: the
// hot 300 × 32 fabric (10 200 nets, ≈ 29 000 couplings, ≈ 1 300 propagated
// glitches) through one session — timing, preparation, the propagation
// fixpoint, the violation sweep and the delta-delay pass — with sna's two
// workers. allocs/op over 10 200 is the ledger's core.allocs_per_net.
func BenchmarkAnalyzeHotFabric(b *testing.B) {
	g, err := workload.Fabric(workload.FabricSpec{
		Width: 300, Levels: 32, CouplingDensity: 3, CoupleC: 12 * units.Femto,
		GroundC: 4 * units.Femto, SegRes: 60, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	bd, err := g.Bind(liberty.Generic())
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Mode: core.ModeNoiseWindows, FailSoft: true, Workers: 2, STA: g.STAOptions()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := core.NewSession(context.Background(), bd, opts)
		if err != nil {
			b.Fatal(err)
		}
		if n := s.Noise().Stats; n.Propagated == 0 || len(s.Delay().Impacts) == 0 {
			b.Fatalf("%d propagated glitches, %d delay impacts: the fabric is not hot", n.Propagated, len(s.Delay().Impacts))
		}
	}
}

// BenchmarkSetShiftUnion is the window algebra as timing uses it: a
// single-window set shifted by a delay range and merged into an
// accumulator, the pair of operations sta.evalInst makes per arc and edge.
// 0 allocs/op: the set is a value.
func BenchmarkSetShiftUnion(b *testing.B) {
	in := interval.SetOf(100*units.Pico, 180*units.Pico)
	var out interval.Set
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := float64(i&7) * units.Pico
		out = out.Union(in.ShiftRange(d, d+20*units.Pico))
		if i&63 == 63 {
			out = interval.Set{}
		}
	}
	if out.Len() > 1 {
		b.Fatalf("overlapping shifts did not merge: %v", out)
	}
}

// BenchmarkLoadBus measures the front half of a batch run on the
// benchmark's batch_wide shape at a tenth of its size: a 1500-bit coupled
// bus as Verilog, SPEF and timing files on disk → concurrent parse, lint,
// bind (load.Load + Bind — what sna, noisebench -scale and the server's
// design cache all call).
func BenchmarkLoadBus(b *testing.B) {
	g, err := workload.Bus(workload.BusSpec{
		Bits: 1500, Segs: 1,
		WindowSep: 25 * units.Pico, WindowWidth: 100 * units.Pico,
	})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	var size int64
	write := func(name string, fn func(io.Writer) error) string {
		var text bytes.Buffer
		if err := fn(&text); err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, text.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
		size += int64(text.Len())
		return path
	}
	src := load.Files(
		write("d.v", func(w io.Writer) error { return vlog.Write(w, g.Design) }), "",
		write("d.spef", func(w io.Writer) error { return spef.Write(w, g.Paras) }),
		write("d.win", func(w io.Writer) error { return sta.WriteInputTiming(w, g.Inputs) }))
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loaded, err := load.Load(src, lint.Config{})
		if err != nil {
			b.Fatal(err)
		}
		bd, err := loaded.Bind()
		if err != nil {
			b.Fatal(err)
		}
		if bd.Net.NumNets() != g.Design.NumNets() {
			b.Fatalf("bound %d nets, generated %d", bd.Net.NumNets(), g.Design.NumNets())
		}
	}
}

// benchParseNetlist measures one netlist reader on the 1500-bit bus's
// text, in memory: MB/s and allocations per parse.
func benchParseNetlist(b *testing.B, write func(io.Writer, *netlist.Design) error, parse func(io.Reader) (*netlist.Design, error)) {
	g, err := workload.Bus(workload.BusSpec{Bits: 1500, Segs: 1})
	if err != nil {
		b.Fatal(err)
	}
	var text bytes.Buffer
	if err := write(&text, g.Design); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(text.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := parse(bytes.NewReader(text.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if d.NumConns() != g.Design.NumConns() {
			b.Fatalf("parsed %d connections, generated %d", d.NumConns(), g.Design.NumConns())
		}
	}
}

// BenchmarkParseVerilog and BenchmarkParseNet measure the two netlist
// readers alone, beside BenchmarkLoadBus, which runs them inside the
// loader.
func BenchmarkParseVerilog(b *testing.B) {
	lib := liberty.Generic()
	benchParseNetlist(b, vlog.Write, func(r io.Reader) (*netlist.Design, error) { return vlog.Parse(r, lib) })
}

func BenchmarkParseNet(b *testing.B) { benchParseNetlist(b, netlist.Write, netlist.Parse) }

// BenchmarkSTARun measures the timing pass alone, serial and with the
// levels fanned out over four workers, on a 1500-bit bus (two levels of
// 1500 instances: above the fan-out threshold) — the phase the ledger
// calls sta.run_s, through both entry points core and the replica use.
func BenchmarkSTARun(b *testing.B) {
	g, err := workload.Bus(workload.BusSpec{
		Bits: 1500, Segs: 1,
		WindowSep: 25 * units.Pico, WindowWidth: 100 * units.Pico,
	})
	if err != nil {
		b.Fatal(err)
	}
	bd, err := g.Bind(liberty.Generic())
	if err != nil {
		b.Fatal(err)
	}
	opts := g.STAOptions()
	if _, err := sta.Run(bd, opts); err != nil { // warm the RC analysis cache
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sta.Run(bd, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("workers4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sta.RunCtx(context.Background(), bd, opts, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWriteJSON measures the report path alone on the benchmark's
// batch_deep shape (a hot 300×32 fabric, ≈ 22 MB of JSON): MB/s and
// allocs/op of report.WriteJSON, the phase the ledger calls report.json_s.
// It renders into a file, truncated before each render, as sna -json
// does: the file write, not the encoding, bounds that phase.
func BenchmarkWriteJSON(b *testing.B) {
	g, err := workload.Fabric(workload.FabricSpec{
		Width: 300, Levels: 32, CouplingDensity: 3, CoupleC: 12 * units.Femto, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	bd, err := g.Bind(liberty.Generic())
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.AnalyzeCtx(context.Background(), bd, core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions()})
	if err != nil {
		b.Fatal(err)
	}
	var doc bytes.Buffer
	if err := report.WriteJSON(&doc, res); err != nil {
		b.Fatal(err)
	}
	f, err := os.Create(filepath.Join(b.TempDir(), "report.json"))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Truncate(0); err != nil {
			b.Fatal(err)
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			b.Fatal(err)
		}
		if err := report.WriteJSON(f, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardWire measures the shard protocol's binary codec on the
// largest message of a run: one shard's collect reply for the hot 40×10
// fabric (every net's events, combinations and members), encoded and decoded
// once per iteration. MB/s is of the frame; allocs/op is what the transport
// adds to a remote run that the in-process worker does not pay.
func BenchmarkShardWire(b *testing.B) {
	g, err := workload.Fabric(workload.FabricSpec{
		Width: 40, Levels: 10, CouplingDensity: 3, CoupleC: 12 * units.Femto,
		GroundC: 4 * units.Femto, SegRes: 60, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	bd, err := g.Bind(liberty.Generic())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	plan, err := core.BuildShardPlan(ctx, bd)
	if err != nil {
		b.Fatal(err)
	}
	whole, err := shard.Partition(plan, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewShardEngine(ctx, core.NewShardTiming(bd, core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions()}, nil), plan.ID, whole.Owned[0], nil)
	if err != nil {
		b.Fatal(err)
	}
	for w := range plan.Waves {
		if _, _, err := eng.EvalWave(ctx, w); err != nil {
			b.Fatal(err)
		}
	}
	col, err := eng.Collect(ctx)
	if err != nil {
		b.Fatal(err)
	}
	reply := &shard.Reply{Faults: make([]shard.Fault, 1), Collects: []core.ShardCollect{*col}}
	frame, err := shard.Marshal(reply)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := shard.Marshal(reply)
		if err == nil {
			err = shard.Unmarshal(frame, &shard.Reply{})
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
