package report

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/waveform"
)

func TestTableRenderAligned(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("a", "1")
	tb.AddRow("longer-name", "22")
	out := tb.String()
	if !strings.Contains(out, "demo") {
		t.Fatal("title missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + separator + 2 rows
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// All body lines equal width (alignment).
	if len(lines[1]) != len(lines[2]) || len(lines[2]) != len(lines[3]) {
		t.Fatalf("misaligned:\n%s", out)
	}
}

func TestTablePadsShortRows(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("x")
	if len(tb.Rows[0]) != 3 {
		t.Fatalf("row = %v", tb.Rows[0])
	}
}

func TestSI(t *testing.T) {
	cases := []struct {
		v    float64
		unit string
		want string
	}{
		{0, "V", "0V"},
		{1.23e-11, "s", "12.3ps"},
		{2e-15, "F", "2fF"},
		{0.45, "V", "450mV"},
		{1.2, "V", "1.2V"},
		{4700, "ohm", "4.7kohm"},
		{2.5e6, "Hz", "2.5MHz"},
		{-3e-12, "s", "-3ps"},
		{math.Inf(1), "s", "+inf"},
		{math.Inf(-1), "s", "-inf"},
	}
	for _, c := range cases {
		if got := SI(c.v, c.unit); got != c.want {
			t.Errorf("SI(%g, %q) = %q, want %q", c.v, c.unit, got, c.want)
		}
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(0.123); got != "12.3%" {
		t.Fatalf("Percent = %q", got)
	}
}

func TestViolationsOutput(t *testing.T) {
	res := &core.Result{
		Mode: core.ModeNoiseWindows,
		Nets: map[string]*core.NetNoise{"v": {Net: "v"}},
		Violations: []core.Violation{{
			Net: "v", Receiver: "r.A", Kind: core.KindLow,
			Peak: 0.7, Width: 3e-11, Limit: 0.5, Slack: -0.2, At: 1e-10,
			Members: []string{"a0", "a1"},
		}},
	}
	var sb strings.Builder
	Violations(&sb, res)
	out := sb.String()
	for _, want := range []string{"1 violations", "r.A", "700mV", "a0+a1", "-200mV"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestViolationsCleanRun(t *testing.T) {
	res := &core.Result{Mode: core.ModeAllAggressors, Nets: map[string]*core.NetNoise{}}
	var sb strings.Builder
	Violations(&sb, res)
	if !strings.Contains(sb.String(), "0 violations") {
		t.Fatalf("output = %q", sb.String())
	}
}

func TestNetSummary(t *testing.T) {
	nn := &core.NetNoise{Net: "v"}
	nn.Events[core.KindLow] = []core.Event{{Peak: 0.3, Width: 2e-11, Window: interval.New(0, 1e-10), Source: "agg"}}
	nn.Comb[core.KindLow] = core.Combined{Peak: 0.3, Width: 2e-11, Window: interval.New(0, 1e-10), Members: []string{"agg"}}
	var sb strings.Builder
	NetSummary(&sb, nn)
	out := sb.String()
	for _, want := range []string{"net v", "victim-low", "agg", "300mV"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestSparkline(t *testing.T) {
	tri := waveform.Triangle(0, 1e-11, 2e-11, 0.5)
	// Odd width puts one sample exactly on the peak.
	s := Sparkline(tri, 17)
	if len([]rune(s)) != 17 {
		t.Fatalf("width = %d: %q", len([]rune(s)), s)
	}
	// Peak block in the middle, valley blocks at the ends.
	r := []rune(s)
	if r[0] != '▁' || r[len(r)-1] != '▁' {
		t.Fatalf("ends not low: %q", s)
	}
	if r[8] != '█' {
		t.Fatalf("no peak block at center: %q", s)
	}
	// Negative waveforms are marked.
	neg := Sparkline(tri.Negate(), 8)
	if !strings.HasPrefix(neg, "-") {
		t.Fatalf("negative sparkline = %q", neg)
	}
	// Degenerate inputs render flat.
	if got := Sparkline(waveform.PWL{}, 4); got != "▁▁▁▁" {
		t.Fatalf("zero waveform = %q", got)
	}
	if got := Sparkline(waveform.MustNew(waveform.Point{V: 1}), 1); len([]rune(got)) != 2 {
		t.Fatalf("clamped width = %q", got)
	}
}

func TestSlackTable(t *testing.T) {
	res := &core.Result{
		Slacks: []core.ReceiverSlack{
			{Net: "v", Receiver: "r.A", Kind: core.KindLow, Peak: 0.7, Limit: 0.5, Slack: -0.2},
			{Net: "w", Receiver: "s.A", Kind: core.KindHigh, Peak: 0.2, Limit: 0.6, Slack: 0.4},
		},
	}
	var sb strings.Builder
	SlackTable(&sb, res, 10)
	out := sb.String()
	for _, want := range []string{"2 of 2 checked", "r.A", "-200mV", "400mV"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Truncation honors n.
	sb.Reset()
	SlackTable(&sb, res, 1)
	if strings.Contains(sb.String(), "s.A") {
		t.Error("truncated table still shows second row")
	}
}

func TestRenderCSV(t *testing.T) {
	tb := NewTable("ignored", "a", "b")
	tb.AddRow("1", "x,y")
	tb.AddRow("2", `say "hi"`)
	var sb strings.Builder
	tb.RenderCSV(&sb)
	want := "a,b\n1,\"x,y\"\n2,\"say \"\"hi\"\"\"\n"
	if sb.String() != want {
		t.Fatalf("CSV = %q, want %q", sb.String(), want)
	}
	if strings.Contains(sb.String(), "ignored") {
		t.Fatal("title leaked into CSV")
	}
}

func TestDegradationsOutput(t *testing.T) {
	var buf bytes.Buffer
	Degradations(&buf, nil)
	if buf.Len() != 0 {
		t.Fatalf("clean run wrote %q", buf.String())
	}
	diags := []core.Diag{
		{Net: "b1", Stage: core.StageEvaluate, Err: errors.New("injected"), Degraded: true},
		{Net: "b2", Stage: core.StagePrepare, Err: errors.New("panic: oops"), Degraded: true},
	}
	Degradations(&buf, diags)
	out := buf.String()
	if !strings.Contains(out, "degraded nets: 2") {
		t.Fatalf("missing header:\n%s", out)
	}
	for _, want := range []string{"b1", "evaluate", "injected", "b2", "prepare", "full-rail"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}
