// noisebench regenerates the evaluation tables and figures indexed in
// DESIGN.md §4 and recorded in EXPERIMENTS.md.
//
// Usage:
//
//	noisebench              # run everything at full fidelity
//	noisebench -run T1      # one experiment
//	noisebench -quick       # shrunken sweeps (seconds instead of minutes)
//	noisebench -list        # list experiment IDs
//	noisebench -timeout 5m  # bound the whole sweep's wall clock
//	noisebench -scale -rungs 10000,100000   # capacity ladder -> BENCH_scale.json
//	noisebench -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/report"
)

func main() {
	// SIGINT/SIGTERM cancel the sweep through the same cooperative path a
	// -timeout uses, so an interrupted run still flushes partial results
	// and exits with the failure discipline instead of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("noisebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runID    = fs.String("run", "", "experiment ID to run (default: all)")
		quick    = fs.Bool("quick", false, "shrink sweeps for a fast pass")
		list     = fs.Bool("list", false, "list experiment IDs and exit")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		timeout  = fs.Duration("timeout", 0, "wall-clock budget for the sweep; 0 = unbounded")
		scale    = fs.Bool("scale", false, "climb the capacity ladder (load+analyze per rung) instead of running experiments")
		scaleOut = fs.String("scale-out", "BENCH_scale.json", "scale: output file for the ladder records")
		rungs    = fs.String("rungs", "10000,100000,1000000", "scale: comma-separated ascending net counts")
		maxAPN   = fs.Float64("max-allocs-per-net", 0, "scale: fail if any rung's analysis exceeds this many allocs per net (0 = no gate)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stopProf, profErr := prof.Start(*cpuProf, *memProf)
	if profErr != nil {
		fmt.Fprintln(stderr, "noisebench:", profErr)
		return 2
	}
	defer stopProf()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *scale {
		if err := runScale(ctx, *scaleOut, *rungs, *maxAPN, stdout); err != nil {
			fmt.Fprintln(stderr, "noisebench:", err)
			return 1
		}
		return 0
	}
	cfg := experiments.Config{Quick: *quick, Ctx: ctx}
	emit := func(t *report.Table) {
		if *csv {
			fmt.Fprintf(stdout, "# %s\n", t.Title)
			t.RenderCSV(stdout)
		} else {
			t.Render(stdout)
		}
		fmt.Fprintln(stdout)
	}
	fail := func(err error) int {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			fmt.Fprintln(stderr, "noisebench: sweep cancelled:", err)
		} else {
			fmt.Fprintln(stderr, "noisebench:", err)
		}
		return 1
	}
	var (
		ts  []*report.Table
		err error
	)
	if *runID != "" {
		ts, err = experiments.Run(*runID, cfg)
	} else {
		ts, err = experiments.All(cfg)
	}
	if err != nil {
		return fail(err)
	}
	for _, t := range ts {
		emit(t)
	}
	return 0
}
