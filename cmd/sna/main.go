// sna is the static noise analyzer: it loads a netlist, parasitics, cell
// library, and input timing, lints the combined database, runs windowed
// crosstalk analysis, and prints the violation report.
//
// Usage:
//
//	sna -net design.net -spef design.spef [-lib lib.nlib] [-win design.win] \
//	    [-mode all|timing|noise] [-threshold 0.02] [-dump net1,net2] \
//	    [-lint-only] [-werror] [-suppress NL003,SPF001] \
//	    [-repair] [-delay] [-corr] [-timeout 30s] [-fail-fast] \
//	    [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	sna -rules
//
// The netlist may also be structural Verilog (a .v file).
//
// Without -lib the built-in generic library is used. The -mode flag picks
// the combination policy: "all" (classical pessimistic), "timing"
// (switching-window filtering), or "noise" (the paper's noise windows,
// default).
//
// Every run starts with the lint pre-flight (internal/lint): error-severity
// findings abort the run before analysis, because noise results computed
// from a broken database are worse than no results. -lint-only stops after
// the pre-flight and prints every diagnostic including infos; with -json it
// also writes them to that file as JSON. -rules prints the rule reference
// (ID, default severity, title) and exits.
//
// The engine runs fail-soft by default: a victim whose analysis fails is
// degraded to a conservative full-rail bound and reported in the
// degradation section instead of killing the whole run. -fail-fast
// restores abort-on-first-error. -timeout bounds the wall clock; a run
// over its deadline is cancelled cooperatively and exits with code 4.
//
// Exit codes:
//
//	0  clean: lint passed and no noise violations
//	1  analysis found noise violations
//	2  lint found error-severity problems (analysis not run)
//	3  usage error (bad flags, missing -net, unknown mode or rule ID, a
//	   -threshold or -period that is not finite and >= 0)
//	4  load or analysis failure (unreadable/unparsable input, engine
//	   error, deadline exceeded)
//	5  degraded-clean: no violations, but one or more nets were degraded
//	   to conservative fallbacks, or analyzed against an aggressor of
//	   unknown timing — the result is incomplete, not clean
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/lint"
	"repro/internal/load"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/sta"
	"repro/internal/units"
)

// Exit codes; documented in the package comment and pinned by the
// integration test.
const (
	exitClean      = 0
	exitViolations = 1
	exitLint       = 2
	exitUsage      = 3
	exitFail       = 4
	exitDegraded   = 5
)

func main() {
	// SIGINT/SIGTERM take the same cooperative fail-soft cancellation path
	// as -timeout: the engine stops at the next per-victim checkpoint and
	// the process exits with the failure discipline (code 4) instead of
	// being killed mid-analysis.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is sna on args. prepare, when non-nil, becomes the engine's
// PrepareHook: tests inject per-victim faults through it.
func run(ctx context.Context, args []string, stdout, stderr io.Writer, prepare func(net string) error) int {
	fs := flag.NewFlagSet("sna", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		netPath   = fs.String("net", "", "netlist file (.net or .v), required")
		spefPath  = fs.String("spef", "", "parasitics file (.spef)")
		libPath   = fs.String("lib", "", "cell library (.nlib); default: built-in generic")
		winPath   = fs.String("win", "", "input timing file (.win)")
		modeFlag  = fs.String("mode", "noise", "combination policy: all | timing | noise")
		threshold = fs.Float64("threshold", 0, "aggressor coupling-ratio filter threshold")
		dump      = fs.String("dump", "", "comma-separated nets to dump in detail")
		noProp    = fs.Bool("noprop", false, "disable noise propagation through gates")
		repair    = fs.Bool("repair", false, "suggest a physical fix per violation")
		corr      = fs.Bool("corr", false, "enable logic-correlation aggressor filtering")
		delay     = fs.Bool("delay", false, "also run crosstalk delta-delay analysis")
		iterate   = fs.Bool("iterate", false, "run the joint noise-timing fixpoint loop")
		slacks    = fs.Int("slacks", 0, "also print the N tightest receiver noise margins")
		period    = fs.Float64("period", 0, "clock period in seconds; enables timing slacks in the delta-delay report")
		jsonOut   = fs.String("json", "", "write the full result (with -lint-only: the lint diagnostics) as JSON to this file")
		lintOnly  = fs.Bool("lint-only", false, "run the lint pre-flight and stop")
		rules     = fs.Bool("rules", false, "print the lint rule reference and exit")
		werror    = fs.Bool("werror", false, "treat lint warnings as errors")
		suppress  = fs.String("suppress", "", "comma-separated lint rule IDs to suppress")
		timeout   = fs.Duration("timeout", 0, "wall-clock budget for the analysis; 0 = unbounded")
		failFast  = fs.Bool("fail-fast", false, "abort on the first per-net analysis failure instead of degrading")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file on exit")
		workers   = fs.Int("workers", 0, "parallel analysis workers (0 = serial); results are identical")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *rules {
		printRules(stdout)
		return exitClean
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(stderr, "sna:", err)
		return exitUsage
	}
	defer stopProf()
	if *netPath == "" {
		fmt.Fprintln(stderr, "sna: -net is required")
		return exitUsage
	}
	mode, err := core.ParseMode(*modeFlag)
	if err != nil {
		fmt.Fprintln(stderr, "sna:", err)
		return exitUsage
	}
	if !units.FiniteNonNeg(*threshold) {
		fmt.Fprintf(stderr, "sna: bad -threshold %v (want finite >= 0)\n", *threshold)
		return exitUsage
	}
	if !units.FiniteNonNeg(*period) {
		fmt.Fprintf(stderr, "sna: bad -period %v (want finite seconds >= 0; 0 = off)\n", *period)
		return exitUsage
	}
	lintCfg, err := lint.ParseConfig(*suppress, *werror)
	if err != nil {
		fmt.Fprintln(stderr, "sna:", err)
		return exitUsage
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	fail := func(err error) int {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			fmt.Fprintf(stderr, "sna: analysis cancelled: %s deadline exceeded\n", *timeout)
		case errors.Is(err, context.Canceled):
			fmt.Fprintln(stderr, "sna: interrupted: analysis cancelled by signal")
		default:
			fmt.Fprintln(stderr, "sna:", err)
		}
		return exitFail
	}
	// Load ends with the lint pre-flight: it always runs, and error
	// findings gate the analysis.
	loaded, err := load.Load(load.Files(*netPath, *libPath, *spefPath, *winPath), lintCfg)
	if err != nil {
		return fail(err)
	}
	lres := loaded.Lint
	if *lintOnly {
		report.Lint(stdout, lres)
		if *jsonOut != "" {
			if err := writeJSONFile(ctx, *jsonOut, func(w io.Writer) error { return report.WriteLintJSON(w, lres) }); err != nil {
				return fail(err)
			}
		}
		if lres.HasErrors() {
			return exitLint
		}
		return exitClean
	}
	if lres.HasErrors() {
		report.Lint(stderr, lres)
		fmt.Fprintln(stderr, "sna: design rejected by lint; fix the errors above or suppress the rules (-suppress)")
		return exitLint
	}
	if lres.Warnings() > 0 {
		report.Lint(stderr, lres)
	}

	b, err := loaded.Bind()
	if err != nil {
		return fail(err)
	}
	opts := core.Options{
		Mode:             mode,
		Workers:          *workers,
		FilterThreshold:  *threshold,
		NoPropagation:    *noProp,
		LogicCorrelation: *corr,
		FailSoft:         !*failFast,
		PrepareHook:      prepare,
		STA:              sta.Options{InputTiming: loaded.Inputs, ClockPeriod: *period},
	}
	// Noise and delay come off one prepared analyzer: -delay runs the
	// delay pass on the victims the noise analysis already prepared (a
	// session), and -iterate's loop ends with both results for its final
	// padding.
	var (
		res  *core.Result
		dres *core.DelayResult
	)
	switch {
	case *iterate:
		iter, err := core.AnalyzeIterativeCtx(ctx, b, opts, 0)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "noise-timing loop: %d rounds, converged=%v, max window padding %s\n",
			iter.Rounds, iter.Converged, report.SI(iter.MaxPadding(), "s"))
		if iter.Diverging {
			fmt.Fprintf(stdout, "noise-timing loop diverging: %s\n", iter.DivergeReason)
		}
		res, dres = iter.Noise, iter.Delay
	case *delay:
		s, err := core.NewSession(ctx, b, opts)
		if err != nil {
			return fail(err)
		}
		res, dres = s.Noise(), s.Delay()
	default:
		if res, err = core.AnalyzeCtx(ctx, b, opts); err != nil {
			return fail(err)
		}
	}
	report.Violations(stdout, res)
	report.Degradations(stdout, res.Diags)
	if *jsonOut != "" {
		if err := writeJSONFile(ctx, *jsonOut, func(w io.Writer) error { return report.WriteJSON(w, res) }); err != nil {
			return fail(err)
		}
	}
	if *slacks > 0 {
		report.SlackTable(stdout, res, *slacks)
	}
	if *repair && len(res.Violations) > 0 {
		repairs, err := core.SuggestRepairsCtx(ctx, b, res, 0.05)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "suggested repairs (5% margin):")
		for _, r := range repairs {
			fmt.Fprintln(stdout, "  "+r.Describe())
		}
	}
	if *delay {
		delayTable(stdout, res, dres, *period)
	}
	if *dump != "" {
		for _, name := range strings.Split(*dump, ",") {
			name = strings.TrimSpace(name)
			nn := res.NoiseOf(name)
			if nn == nil {
				fmt.Fprintf(stdout, "net %s: not analyzed\n", name)
				continue
			}
			report.NetSummary(stdout, nn)
		}
	}
	if len(res.Violations) > 0 {
		return exitViolations
	}
	// A run with diagnosed nets and no violations is NOT clean: degraded
	// victims were never actually analyzed, assumed ones were analyzed
	// against an aggressor of unknown timing, so signoff must distinguish
	// "checked and passed" from "gave up conservatively".
	if len(res.Diags) > 0 {
		return exitDegraded
	}
	return exitClean
}

// writeJSONFile writes a JSON report to path through write. A write that
// fails, or that -timeout or a signal cancels, leaves no truncated report
// behind: the partial file is removed (a device or pipe named by path is
// left alone).
func writeJSONFile(ctx context.Context, path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(ctxWriter{ctx, f})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		if fi, serr := os.Lstat(path); serr == nil && fi.Mode().IsRegular() {
			os.Remove(path)
		}
	}
	return err
}

// ctxWriter refuses writes once its context is done.
type ctxWriter struct {
	ctx context.Context
	w   io.Writer
}

func (c ctxWriter) Write(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.w.Write(p)
}

// delayTable renders the delta-delay result computed beside res.
func delayTable(stdout io.Writer, res *core.Result, dres *core.DelayResult, period float64) {
	cols := []string{"net", "edge", "noise", "delta", "members"}
	if period > 0 {
		cols = append(cols, "slack-before", "slack-after")
	}
	t := report.NewTable(
		fmt.Sprintf("crosstalk delta-delay (%s): %d impacted edges, worst %s",
			dres.Mode, len(dres.Impacts), report.SI(dres.WorstDelta(), "s")),
		cols...)
	limit := 20
	for i, im := range dres.Impacts {
		if i == limit {
			t.AddRow("...")
			break
		}
		edge := "fall"
		if im.Rise {
			edge = "rise"
		}
		row := []string{im.Net, edge, report.SI(im.NoisePeak, "V"),
			report.SI(im.Delta, "s"), strings.Join(im.Members, "+")}
		if period > 0 {
			if slack, ok := res.STA.TimingSlack(im.ID); ok {
				row = append(row, report.SI(slack, "s"), report.SI(slack-im.Delta, "s"))
			} else {
				row = append(row, "-", "-")
			}
		}
		t.AddRow(row...)
	}
	t.Render(stdout)
}

// printRules prints the lint rule reference: ID, default severity, title.
func printRules(w io.Writer) {
	t := report.NewTable("registered lint rules", "rule", "severity", "title")
	for _, r := range lint.Rules() {
		t.AddRow(r.ID(), r.Severity().String(), r.Title())
	}
	t.Render(w)
}
