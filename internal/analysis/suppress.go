package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Suppression directives.
//
// A finding is waived by writing, on the reported line or the line
// immediately above it:
//
//	//snavet:<key> <reason>
//
// where <key> is the analyzer's directive name (its Name, or Directive
// when set: mapdeterm's key is "ordered") and <reason> is free text
// explaining why the invariant does not apply. The reason is mandatory: a waiver that does not argue its case is a
// diagnostic. So is a waiver whose key no analyzer owns, and — when the
// owning analyzer ran — a waiver that suppressed nothing, so stale waivers
// die with the code they excused.

const directivePrefix = "//snavet:"

// directive is one parsed //snavet: comment.
type directive struct {
	pos    token.Position
	key    string
	reason string
	used   bool
}

// collectDirectives scans every comment of the files. A directive in a
// file no analyzer reads (a _test.go file, testdata) is a finding of the
// source gates, so none goes unchecked.
func collectDirectives(fset *token.FileSet, files []*ast.File) []*directive {
	var out []*directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if rest, ok := strings.CutPrefix(c.Text, directivePrefix); ok {
					key, reason, _ := strings.Cut(rest, " ")
					out = append(out, &directive{
						pos:    fset.Position(c.Pos()),
						key:    strings.TrimSpace(key),
						reason: strings.TrimSpace(reason),
					})
				}
			}
		}
	}
	return out
}

// suppress reports whether a directive with the given key covers pos —
// same line (trailing comment) or the line directly above (standalone
// comment) — and marks the directive used. Directives with an empty key or
// reason never suppress; they are reported as problems instead.
func suppress(dirs []*directive, key string, pos token.Position) bool {
	hit := false
	for _, d := range dirs {
		if d.key == key && d.reason != "" && d.pos.Filename == pos.Filename && (d.pos.Line == pos.Line || d.pos.Line == pos.Line-1) {
			d.used = true
			hit = true
		}
	}
	return hit
}

// problems returns hygiene diagnostics for the package's directives:
// unknown keys, missing reasons, and — for keys whose analyzer ran —
// waivers that suppressed nothing.
func problems(dirs []*directive, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.DirectiveName()] = true
	}
	var out []Diagnostic
	report := func(d *directive, format string, args ...any) {
		out = append(out, Diagnostic{
			Pos:      d.pos,
			Analyzer: "snavetdirective",
			Message:  "directive " + directivePrefix + d.key + ": " + fmt.Sprintf(format, args...),
		})
	}
	for _, d := range dirs {
		switch {
		case d.key == "":
			report(d, "missing analyzer key")
		case d.reason == "":
			report(d, "missing reason; a waiver must say why the invariant does not apply here")
		case !known[d.key]:
			// The analyzer for this key is not in the run set: with a
			// single analyzer selected (a golden package) we cannot
			// distinguish "unknown" from "not running", so only a full
			// suite run reports unknown keys.
			if len(analyzers) > 1 {
				report(d, "unknown analyzer key")
			}
		case !d.used:
			report(d, "unused: the %s analyzer reports nothing here; delete the stale waiver", d.key)
		}
	}
	return out
}
