// Package report renders analysis results and experiment tables as aligned
// text, matching the row/series structure of the paper's tables and
// figures.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/waveform"
)

// Table is a titled grid of cells rendered with aligned columns.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable allocates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.Columns) {
		cells = append(cells, "")
	}
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(t.Columns))
		for i := range t.Columns {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			parts[i] = pad(cell, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// SI formats a value with an engineering prefix and unit, e.g. 1.23e-11 →
// "12.3ps". It covers the prefixes the analyses produce.
func SI(v float64, unit string) string {
	if v == 0 {
		return "0" + unit
	}
	if math.IsInf(v, 1) {
		return "+inf"
	}
	if math.IsInf(v, -1) {
		return "-inf"
	}
	abs := math.Abs(v)
	type scale struct {
		factor float64
		prefix string
	}
	scales := []scale{
		{1e9, "G"}, {1e6, "M"}, {1e3, "k"}, {1, ""},
		{1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"}, {1e-15, "f"},
	}
	for _, s := range scales {
		if abs >= s.factor {
			return fmt.Sprintf("%.3g%s%s", v/s.factor, s.prefix, unit)
		}
	}
	return fmt.Sprintf("%.3g a%s", v/1e-18, unit)
}

// Percent formats a fraction as a percentage.
func Percent(frac float64) string {
	return fmt.Sprintf("%.1f%%", frac*100)
}

// Violations writes a human-readable violation report for one analysis.
func Violations(w io.Writer, res *core.Result) {
	fmt.Fprintf(w, "noise analysis (%s): %d nets, %d violations, %d couplings (%d filtered), %d iterations (converged=%v)\n",
		res.Mode, len(res.Nets), len(res.Violations),
		res.Stats.AggressorPairs, res.Stats.Filtered,
		res.Stats.Iterations, res.Stats.Converged)
	if len(res.Violations) == 0 {
		return
	}
	t := NewTable("", "net", "receiver", "state", "peak", "limit", "slack", "width", "aligned-at", "members")
	for _, v := range res.Violations {
		t.AddRow(
			v.Net, v.Receiver, v.Kind.String(),
			SI(v.Peak, "V"), SI(v.Limit, "V"), SI(v.Slack, "V"),
			SI(v.Width, "s"), SI(v.At, "s"),
			strings.Join(v.Members, "+"),
		)
	}
	t.Render(w)
}

// Degradations writes the fail-soft degradation report: which victims
// the engine could not analyze, at what stage, and why. Degraded nets
// carry conservative full-rail bounds, so the section is the signoff
// reviewer's cue that those nets need a rerun or a waiver — a silent
// fallback would read as a real full-rail violation. Nets that were
// analyzed, but with an aggressor the netlist lacks taken to switch at any
// time, are counted apart and listed in the same table.
func Degradations(w io.Writer, diags []core.Diag) {
	degraded := 0
	for _, d := range diags {
		if d.Degraded {
			degraded++
		}
	}
	if degraded > 0 {
		fmt.Fprintf(w, "degraded nets: %d (conservative full-rail bounds substituted)\n", degraded)
	}
	if n := len(diags) - degraded; n > 0 {
		fmt.Fprintf(w, "assumed nets: %d (analyzed against an aggressor of unknown timing)\n", n)
	}
	if len(diags) == 0 {
		return
	}
	t := NewTable("", "net", "stage", "error")
	for _, d := range diags {
		msg := ""
		if d.Err != nil {
			msg = d.Err.Error()
		}
		t.AddRow(d.Net, d.Stage, msg)
	}
	t.Render(w)
}

// NetSummary writes one net's noise record: every event and the combined
// result per victim state.
func NetSummary(w io.Writer, nn *core.NetNoise) {
	fmt.Fprintf(w, "net %s\n", nn.Net)
	for _, k := range core.Kinds {
		comb := nn.Comb[k]
		fmt.Fprintf(w, "  victim-%s: combined peak %s width %s window %v members %v\n",
			k, SI(comb.Peak, "V"), SI(comb.Width, "s"), comb.Window, comb.Members)
		if comb.Peak > 0 {
			fmt.Fprintf(w, "    shape %s\n", Sparkline(nn.CombinedWaveform(k), 32))
		}
		for _, e := range nn.Events[k] {
			fmt.Fprintf(w, "    %-12s peak %s width %s window %v\n",
				e.Source, SI(e.Peak, "V"), SI(e.Width, "s"), e.Window)
		}
	}
}

// Sparkline renders a waveform as a single line of block characters over
// its breakpoint span — a quick visual for glitch shapes in terminal
// reports. width is the number of output columns (≥ 2). Negative values
// render on the same scale by magnitude with a leading '-' marker.
func Sparkline(pwl waveform.PWL, width int) string {
	if width < 2 {
		width = 2
	}
	lo, hi, ok := pwl.Span()
	if !ok || hi <= lo {
		return strings.Repeat("▁", width)
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	_, peak := pwl.Peak()
	mag := math.Abs(peak)
	if mag == 0 {
		return strings.Repeat("▁", width)
	}
	var sb strings.Builder
	if peak < 0 {
		sb.WriteByte('-')
	}
	for i := 0; i < width; i++ {
		t := lo + (hi-lo)*float64(i)/float64(width-1)
		frac := math.Abs(pwl.Eval(t)) / mag
		idx := int(frac * float64(len(blocks)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(blocks) {
			idx = len(blocks) - 1
		}
		sb.WriteRune(blocks[idx])
	}
	return sb.String()
}

// SlackTable writes the n tightest receiver noise margins — the signoff
// artifact that shows how close passing receivers are to failing.
func SlackTable(w io.Writer, res *core.Result, n int) {
	rows := res.TightestSlacks(n)
	t := NewTable(
		fmt.Sprintf("tightest noise slacks (%d of %d checked)", len(rows), len(res.Slacks)),
		"net", "receiver", "state", "peak", "limit", "slack")
	for _, s := range rows {
		t.AddRow(s.Net, s.Receiver, s.Kind.String(),
			SI(s.Peak, "V"), SI(s.Limit, "V"), SI(s.Slack, "V"))
	}
	t.Render(w)
}

// RenderCSV writes the table as RFC-4180-style CSV (without the title),
// for piping experiment output into plotting tools.
func (t *Table) RenderCSV(w io.Writer) {
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			fmt.Fprint(w, c)
		}
		fmt.Fprintln(w)
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
}
