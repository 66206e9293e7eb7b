package report

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/lint"
)

// Lint writes a lint result as an aligned-text report: a one-line summary
// followed by one table row per diagnostic (already sorted by Run:
// severity first, then rule, then object).
func Lint(w io.Writer, res *lint.Result) {
	fmt.Fprintf(w, "lint: %d error(s), %d warning(s), %d info(s)\n",
		res.Errors(), res.Warnings(), res.Infos())
	if res.Total() == 0 {
		return
	}
	t := NewTable("", "severity", "rule", "object", "message", "hint")
	for _, d := range res.Diags {
		t.AddRow(d.Sev.String(), d.Rule, d.Object, d.Msg, d.Hint)
	}
	t.Render(w)
}

// lintJSON is the document `sna -lint-only -json` writes: the counts and
// one entry per diagnostic, in Run's order.
type lintJSON struct {
	Tool        string         `json:"tool"`
	Errors      int            `json:"errors"`
	Warnings    int            `json:"warnings"`
	Infos       int            `json:"infos"`
	Diagnostics []lintDiagJSON `json:"diagnostics"`
}

// lintDiagJSON is one diagnostic, positioned by the design object it names.
type lintDiagJSON struct {
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	Object   string `json:"object,omitempty"`
	Message  string `json:"message"`
	Hint     string `json:"hint,omitempty"`
}

// WriteLintJSON serializes a lint result with the same stable-schema
// conventions as WriteJSON: indented, and an empty list rather than null
// when there is nothing to report.
func WriteLintJSON(w io.Writer, res *lint.Result) error {
	out := &lintJSON{
		Tool:        "sna",
		Errors:      res.Errors(),
		Warnings:    res.Warnings(),
		Infos:       res.Infos(),
		Diagnostics: make([]lintDiagJSON, 0, res.Total()),
	}
	for _, d := range res.Diags {
		out.Diagnostics = append(out.Diagnostics, lintDiagJSON{
			Rule:     d.Rule,
			Severity: d.Sev.String(),
			Object:   d.Object,
			Message:  d.Msg,
			Hint:     d.Hint,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
