// snavet is the repo's custom vet suite: five go/analysis-style checkers
// that prove, at vet time, the invariants this codebase's incidents were
// made of — context checks in per-net loops (ctxloop), sorted iteration
// ahead of ordered output (mapdeterm), NaN guards ahead of interval.New
// (nanguard), panic-safe semaphore release in the server (deferrelease),
// and journal-before-acknowledge in handlers (ackorder). DESIGN.md §9 maps
// each analyzer to the incident that motivated it.
//
// It runs under go vet, which drives it once per compilation unit through
// the unit-checker protocol (-V=full, -flags, *.cfg) and caches verdicts:
//
//	go build -o bin/snavet ./cmd/snavet
//	go vet -vettool=$PWD/bin/snavet ./...
//	bin/snavet help                           # the analyzers and waiver keys
//
// Findings are waived in source with `//snavet:<key> <reason>` on the
// offending line or the line above. The reason is mandatory, unknown keys
// and stale waivers are diagnostics themselves.
//
// Exit codes:
//
//	0  clean
//	2  diagnostics reported
//	3  usage error
//	4  load/typecheck failure
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/report"
)

const (
	exitClean = 0
	exitDiags = 2
	exitUsage = 3
	exitFail  = 4
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("snavet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		versionFlag = fs.String("V", "", "print version for the go command's build cache (go vet protocol)")
		flagsFlag   = fs.Bool("flags", false, "print flag description in JSON (go vet protocol)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: go vet -vettool=$(which snavet) [packages]\n")
		fmt.Fprintf(stderr, "       snavet help\n")
	}
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	// go vet protocol: describe the executable for the build cache.
	if *versionFlag != "" {
		return printVersion(stdout)
	}
	// go vet protocol: describe pass-through flags; there are none.
	if *flagsFlag {
		fmt.Fprintln(stdout, "[]")
		return exitClean
	}

	rest := fs.Args()
	switch {
	case len(rest) == 1 && rest[0] == "help":
		printHelp(stdout)
		return exitClean
	case len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg"):
		// go vet protocol: a single *.cfg argument names one compilation unit.
		diags, err := analysis.RunUnit(rest[0], analysis.All())
		if err != nil {
			fmt.Fprintf(stderr, "snavet: %v\n", err)
			return exitFail
		}
		// Diagnostics go to stderr, the go vet convention, so go vet
		// interleaves them with its own output correctly.
		for _, d := range diags {
			fmt.Fprintf(stderr, "%s:%d:%d: %s (%s)\n", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
		}
		if len(diags) > 0 {
			return exitDiags
		}
		return exitClean
	}
	fs.Usage()
	return exitUsage
}

// printVersion implements -V=full: the go command caches vet results keyed
// on this line, so it embeds a content hash of the executable — rebuild
// the tool and every cached verdict is invalidated.
func printVersion(stdout io.Writer) int {
	name := "snavet"
	if exe, err := os.Executable(); err == nil {
		name = filepath.Base(exe)
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			_, cErr := io.Copy(h, f)
			f.Close()
			if cErr == nil {
				fmt.Fprintf(stdout, "%s version devel buildID=%x\n", name, h.Sum(nil)[:16])
				return exitClean
			}
		}
	}
	fmt.Fprintf(stdout, "%s version devel buildID=unknown\n", name)
	return exitClean
}

func printHelp(w io.Writer) {
	fmt.Fprintf(w, "snavet enforces this repository's hard-won invariants at vet time.\n\n")
	fmt.Fprintf(w, "Waive a finding with //snavet:<key> <reason> on the line or the line above.\n\n")
	t := report.NewTable("registered analyzers", "analyzer", "waiver key", "description")
	for _, a := range analysis.All() {
		t.AddRow(a.Name, "//snavet:"+a.DirectiveName(), a.Doc)
	}
	t.Render(w)
}
