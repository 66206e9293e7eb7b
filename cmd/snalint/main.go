// snalint is the standalone design-rule linter: it loads the same input
// database as sna (netlist, cell library, parasitics, input timing), runs
// every registered lint rule, and prints the diagnostics without running
// noise analysis. Use it to gate extractions and generated workloads in
// scripts and CI.
//
// Usage:
//
//	snalint -net design.net [-spef design.spef] [-lib lib.nlib] [-win design.win] \
//	        [-json] [-werror] [-suppress NL003,SPF001]
//	snalint -rules
//
// -rules prints the rule reference (ID, default severity, title) and
// exits. -json emits the diagnostics as JSON instead of the aligned table.
//
// Exit codes:
//
//	0  no error-severity findings
//	2  lint found error-severity problems
//	3  usage error (bad flags, missing -net, unknown rule ID)
//	4  load failure (unreadable or unparsable input)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
	"repro/internal/load"
	"repro/internal/report"
)

// Exit codes match sna's lint-related subset (there is no "violations"
// outcome here because snalint never runs the analysis).
const (
	exitClean = 0
	exitLint  = 2
	exitUsage = 3
	exitFail  = 4
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("snalint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		netPath  = fs.String("net", "", "netlist file (.net or .v), required")
		spefPath = fs.String("spef", "", "parasitics file (.spef)")
		libPath  = fs.String("lib", "", "cell library (.nlib); default: built-in generic")
		winPath  = fs.String("win", "", "input timing file (.win)")
		jsonOut  = fs.Bool("json", false, "emit diagnostics as JSON")
		werror   = fs.Bool("werror", false, "treat warnings as errors")
		suppress = fs.String("suppress", "", "comma-separated rule IDs to suppress")
		rules    = fs.Bool("rules", false, "print the rule reference and exit")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *rules {
		printRules(stdout)
		return exitClean
	}
	if *netPath == "" {
		fmt.Fprintln(stderr, "snalint: -net is required")
		return exitUsage
	}
	cfg, err := lint.ParseConfig(*suppress, *werror)
	if err != nil {
		fmt.Fprintln(stderr, "snalint:", err)
		return exitUsage
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "snalint:", err)
		return exitFail
	}
	loaded, err := load.Load(load.Files(*netPath, *libPath, *spefPath, *winPath), cfg)
	if err != nil {
		return fail(err)
	}
	res := loaded.Lint
	if *jsonOut {
		if err := report.WriteLintJSON(stdout, res); err != nil {
			return fail(err)
		}
	} else {
		report.Lint(stdout, res)
	}
	if res.HasErrors() {
		return exitLint
	}
	return exitClean
}

func printRules(w io.Writer) {
	t := report.NewTable("registered lint rules", "rule", "severity", "title")
	for _, r := range lint.Rules() {
		t.AddRow(r.ID(), r.Severity().String(), r.Title())
	}
	t.Render(w)
}
