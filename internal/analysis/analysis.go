// Package analysis holds five source rules this repository learned the
// hard way (see DESIGN.md §9): context checks in per-net loops,
// deterministic iteration feeding ordered output, NaN guards ahead of
// interval.New, deferred release of server semaphores, and
// journal-before-acknowledge ordering in HTTP handlers. Each is a proof
// obligation for a bug class that previously had to be found by fuzzers,
// chaos tests, or production review. The analyzers take the shape of
// golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic) without the
// dependency; the source gates at the module root (gates_test.go) run them
// over every package's non-test files, and this package's tests run each
// over its golden cases, both on the module as Load reads it.
// Intentional violations are waived in source with a reasoned //snavet:
// directive (suppress.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant check.
type Analyzer struct {
	// Name is the analyzer identifier used in diagnostics.
	Name string
	// Directive is the //snavet: suppression key when it is not Name:
	// mapdeterm's waiver names the claim it makes, `//snavet:ordered`.
	Directive string
	// Run inspects one type-checked package and reports via pass.Reportf.
	Run func(pass *Pass)
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
	// Suppressed marks a finding waived by a //snavet: directive. Active
	// drops suppressed findings, which Run keeps long enough to mark their
	// directives used.
	Suppressed bool
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
// reason, unused waiver) are appended as findings of their own.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) []Diagnostic {
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
		a.Run(pass)
		for _, d := range pass.diags {
			d.Suppressed = suppress(dirs, a.DirectiveName(), d.Pos)
			out = append(out, d)
		}
	}
	return append(out, problems(dirs, analyzers)...)
}

// Active filters out suppressed findings, leaving what a gate reports.
func Active(diags []Diagnostic) []Diagnostic {
	out := diags[:0:0]
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}
