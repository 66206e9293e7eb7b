package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/liberty"
	"repro/internal/shard"
	"repro/internal/units"
	"repro/internal/workload"
)

// The engine benchmark suite behind -bench-out: wall-clock and allocation
// numbers for the core analysis entry points, written as JSON so CI and
// the checked-in BENCH_core.json can diff engine-level performance without
// parsing `go test -bench` output. The headline metric is the incremental
// speedup: the iterative loop on the ladder workload versus the same loop
// re-analyzed from scratch every round.

// benchRecord is one benchmark's result.
type benchRecord struct {
	Name        string             `json:"name"`
	Runs        int                `json:"runs"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// measure times fn over runs iterations (after one warmup) and reports
// mean wall clock and heap allocations per iteration.
func measure(ctx context.Context, name string, runs int, fn func() error) (benchRecord, error) {
	rec := benchRecord{Name: name, Runs: runs}
	if err := fn(); err != nil {
		return rec, fmt.Errorf("%s: %w", name, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < runs; i++ {
		if err := ctx.Err(); err != nil {
			return rec, err
		}
		if err := fn(); err != nil {
			return rec, fmt.Errorf("%s: %w", name, err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	rec.NsPerOp = float64(elapsed.Nanoseconds()) / float64(runs)
	rec.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(runs)
	return rec, nil
}

// scratchEngine is the pre-incremental reference as a core.Phases: nothing
// persists between rounds, and each round is one fresh full noise analysis
// plus one fresh delay analysis under the padding so far.
type scratchEngine struct {
	bd   *bind.Design
	opts core.Options
}

func (scratchEngine) BeginRound(context.Context, []string) (int, error) { return 0, nil }
func (scratchEngine) EvalWave(context.Context, int) (bool, error)       { return false, nil }
func (e scratchEngine) DelayImpacts(ctx context.Context, _ int, _ bool) (*core.DelayResult, error) {
	if _, err := core.AnalyzeCtx(ctx, e.bd, e.opts); err != nil {
		return nil, err
	}
	return core.AnalyzeDelayCtx(ctx, e.bd, e.opts)
}

// scratchRounds runs the round loop over scratchEngine and returns the
// round count at convergence.
func scratchRounds(ctx context.Context, bd *bind.Design, opts core.Options) (int, error) {
	padding := make(map[string]float64)
	opts.STA.WindowPadding = padding
	out, err := core.RunIterative(ctx, scratchEngine{bd, opts}, opts, 0, core.RoundState{Padding: padding}, nil)
	if err != nil {
		return 0, err
	}
	if !out.Converged {
		return 0, fmt.Errorf("scratch loop did not converge in %d rounds", out.Rounds)
	}
	return out.Rounds, nil
}

// runBench executes the suite and writes the records to path.
func runBench(ctx context.Context, path string, quick bool, stdout io.Writer) error {
	runs := func(full int) int {
		if quick {
			if full >= 10 {
				return full / 10
			}
			return 1
		}
		return full
	}
	bindGen := func(g *workload.Generated, err error) (*bind.Design, core.Options, error) {
		if err != nil {
			return nil, core.Options{}, err
		}
		bd, err := g.Bind(liberty.Generic())
		if err != nil {
			return nil, core.Options{}, err
		}
		return bd, core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions()}, nil
	}

	bus, busOpts, err := bindGen(workload.Bus(workload.BusSpec{
		Bits: 64, Segs: 2,
		WindowSep: 60 * units.Pico, WindowWidth: 80 * units.Pico,
	}))
	if err != nil {
		return err
	}
	fabric, fabricOpts, err := bindGen(workload.Fabric(workload.FabricSpec{Width: 12, Levels: 8, Seed: 3}))
	if err != nil {
		return err
	}
	ladder, ladderOpts, err := bindGen(workload.Ladder(workload.LadderSpec{Lines: 64, Steps: 5}))
	if err != nil {
		return err
	}

	var records []benchRecord
	add := func(rec benchRecord, err error) error {
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-24s %8d runs  %12.0f ns/op  %10.0f allocs/op\n",
			rec.Name, rec.Runs, rec.NsPerOp, rec.AllocsPerOp)
		records = append(records, rec)
		return nil
	}

	if err := add(measure(ctx, "analyze_bus64", runs(100), func() error {
		_, err := core.AnalyzeCtx(ctx, bus, busOpts)
		return err
	})); err != nil {
		return err
	}
	if err := add(measure(ctx, "analyze_fabric", runs(100), func() error {
		_, err := core.AnalyzeCtx(ctx, fabric, fabricOpts)
		return err
	})); err != nil {
		return err
	}

	// The same bus fixture through the sharded coordinator: in-process
	// workers sharing the bound design, so the column isolates the op
	// protocol, partitioning, and boundary-exchange overhead relative to
	// analyze_bus64 rather than transport or parse cost.
	const distWorkers, distShards = 2, 4
	dist, err := measure(ctx, "distributed_bus64", runs(20), func() error {
		workers := make([]shard.Worker, distWorkers)
		for i := range workers {
			workers[i] = shard.NewInProc(fmt.Sprintf("w%d", i),
				func(context.Context) (*bind.Design, error) { return bus, nil }, busOpts)
		}
		out, err := shard.Run(ctx, shard.Config{
			B: bus, Opts: busOpts, Workers: workers, Shards: distShards, Token: "bench",
		})
		if err != nil {
			return err
		}
		if out.Degraded {
			return fmt.Errorf("distributed bus64 run degraded")
		}
		return nil
	})
	if err != nil {
		return err
	}
	dist.Extra = map[string]float64{"workers": distWorkers, "shards": distShards}
	if err := add(dist, nil); err != nil {
		return err
	}

	iter, err := core.AnalyzeIterativeCtx(ctx, ladder, ladderOpts, 0)
	if err != nil {
		return err
	}
	if !iter.Converged {
		return fmt.Errorf("ladder workload did not converge (%d rounds)", iter.Rounds)
	}
	inc, err := measure(ctx, "iterative_incremental", runs(50), func() error {
		_, err := core.AnalyzeIterativeCtx(ctx, ladder, ladderOpts, 0)
		return err
	})
	if err != nil {
		return err
	}
	inc.Extra = map[string]float64{"rounds": float64(iter.Rounds)}
	if err := add(inc, nil); err != nil {
		return err
	}
	rounds, err := scratchRounds(ctx, ladder, ladderOpts)
	if err != nil {
		return err
	}
	scr, err := measure(ctx, "iterative_scratch", runs(20), func() error {
		_, err := scratchRounds(ctx, ladder, ladderOpts)
		return err
	})
	if err != nil {
		return err
	}
	scr.Extra = map[string]float64{
		"rounds":  float64(rounds),
		"speedup": scr.NsPerOp / inc.NsPerOp,
	}
	if err := add(scr, nil); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "incremental speedup over from-scratch loop: %.2fx\n",
		scr.Extra["speedup"])

	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
