// Package analysis is snavet's static-analysis framework: a small,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// model (Analyzer, Pass, Diagnostic) plus the one driver snavet has, the
// `go vet -vettool` unit-checker protocol (unit.go): go vet loads the
// packages, snavet checks each compilation unit it is handed.
//
// The analyzers in this package exist to enforce invariants this repository
// learned the hard way (see DESIGN.md §9): context checks in per-net loops,
// deterministic iteration feeding ordered output, NaN guards ahead of
// interval.New, deferred release of server semaphores, and
// journal-before-acknowledge ordering in HTTP handlers. Each is a vet-time
// proof obligation for a bug class that previously had to be found by
// fuzzers, chaos tests, or production review.
//
// Intentional violations are waived in source with a reasoned directive:
//
//	//snavet:<name> <reason>
//
// on the offending line or the line directly above it (suppress.go). A
// directive with no reason, an unknown name, or one that suppresses
// nothing is itself a diagnostic, so waivers stay honest and current.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one invariant check. It mirrors the x/tools shape so
// the checks read like standard vet analyzers and could migrate to the real
// framework wholesale if the dependency ever becomes available.
type Analyzer struct {
	// Name is the analyzer identifier used in diagnostics and -json output.
	Name string
	// Doc is the one-paragraph description shown by `snavet help`.
	Doc string
	// Directive is the //snavet: suppression key; defaults to Name. It
	// exists because the mapdeterm waiver reads `//snavet:ordered`, which
	// documents the claim being made ("this iteration is order-safe")
	// rather than the tool that checks it.
	Directive string
	// Run inspects one type-checked package and reports via pass.Report*.
	Run func(pass *Pass) error
}

// DirectiveName returns the suppression key for the analyzer.
func (a *Analyzer) DirectiveName() string {
	if a.Directive != "" {
		return a.Directive
	}
	return a.Name
}

// Pass carries one package's syntax and type information through an
// analyzer run, in the manner of analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding, positioned for editors and CI.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed marks a finding waived by a //snavet: directive. The
	// drivers drop suppressed findings from output but keep them long
	// enough to mark their directives used.
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over one type-checked package: each analyzer
// runs, its findings are filtered through the package's //snavet:
// directives, and directive hygiene problems (unknown name, missing
// reason, unused waiver) are appended as findings of their own. The result
// is sorted by position for deterministic output.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	dirs := collectDirectives(fset, files)

	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		for _, d := range pass.diags {
			if dirs.suppress(a.DirectiveName(), d.Pos) {
				d.Suppressed = true
			}
			out = append(out, d)
		}
	}
	out = append(out, dirs.problems(analyzers)...)

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// Active filters out suppressed findings, leaving what a driver reports.
func Active(diags []Diagnostic) []Diagnostic {
	out := diags[:0:0]
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// isTestFile reports whether the position sits in a _test.go file. The
// invariants target production code; tests intentionally build degenerate
// inputs (unsorted rows, NaN bounds, deliberately-leaked locks) to pin
// behavior, so analyzer runs skip them wholesale.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}
