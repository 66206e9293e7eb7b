package report

import (
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/interval"
)

// JSON export: a stable, self-describing schema for piping analysis
// results into other tools (dashboards, waiver systems, regression
// tracking) and for the snad analysis service's responses. Quantities are
// base SI units; absent windows are null.
//
// NaN discipline: encoding/json refuses NaN and ±Inf outright (the whole
// marshal fails), so every field that can carry the engine's NaN sentinel
// — Combined.At and Violation.At for quiet nets, DelayImpact.At from
// interval.Combination's `At: math.NaN()` sentinel — is a *float64 that
// encodes as null, and every window bound that can be infinite encodes as
// a null endpoint. The regression tests in json_test.go pin both. The
// remaining producer of the NaN sentinel (interval's Scan.MaxOverlapSum)
// is guarded at its call site: core's delay pass drops combinations with a
// NaN instant before they become impacts. The schema types are exported so
// clients can decode responses (losslessly: marshal → unmarshal →
// re-marshal is byte-identical). Nothing on the write side builds them:
// the writers in encode.go stream the same bytes straight from the
// engine's result, and BuildJSON/BuildDelayJSON are the oracle the tests
// hold those writers to through encoding/json.

// WindowJSON is a noise window; bounds are pointers because windows may be
// unbounded (a virtual aggressor or a degraded net is "always on"): an
// infinite end serializes as null, which JSON can carry and ±Inf cannot.
type WindowJSON struct {
	Lo *float64 `json:"lo"`
	Hi *float64 `json:"hi"`
}

func jsonWin(w interval.Window) *WindowJSON {
	if w.IsEmpty() {
		return nil
	}
	out := &WindowJSON{}
	if !math.IsInf(w.Lo, -1) {
		lo := w.Lo
		out.Lo = &lo
	}
	if !math.IsInf(w.Hi, 1) {
		hi := w.Hi
		out.Hi = &hi
	}
	return out
}

// jsonSet renders each disjoint window of a set.
func jsonSet(s interval.Set) []*WindowJSON {
	if s.IsEmpty() {
		return nil
	}
	out := make([]*WindowJSON, 0, s.Len())
	for i := 0; i < s.Len(); i++ {
		out = append(out, jsonWin(s.At(i)))
	}
	return out
}

// finite returns a pointer to v, or nil when v is NaN or infinite — the
// null encoding for "no meaningful instant".
func finite(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// EventJSON is one glitch hypothesis.
type EventJSON struct {
	Source string      `json:"source"`
	Peak   float64     `json:"peakV"`
	Width  float64     `json:"widthS"`
	Window *WindowJSON `json:"window"`
}

// CombinedJSON is the worst windowed combination for one victim state.
type CombinedJSON struct {
	Peak    float64     `json:"peakV"`
	Width   float64     `json:"widthS"`
	At      *float64    `json:"atS"`
	Window  *WindowJSON `json:"window"`
	Members []string    `json:"members,omitempty"`
}

// NetJSON is one victim net's analysis.
type NetJSON struct {
	Net  string       `json:"net"`
	Low  CombinedJSON `json:"low"`
	High CombinedJSON `json:"high"`
	// Events are included only for nets with any noise, to keep exports
	// of big clean designs small.
	LowEvents  []EventJSON `json:"lowEvents,omitempty"`
	HighEvents []EventJSON `json:"highEvents,omitempty"`
}

// ViolationJSON is one failed receiver check.
type ViolationJSON struct {
	Net      string   `json:"net"`
	Receiver string   `json:"receiver"`
	State    string   `json:"state"`
	Peak     float64  `json:"peakV"`
	Limit    float64  `json:"limitV"`
	Slack    float64  `json:"slackV"`
	At       *float64 `json:"atS"`
	Members  []string `json:"members,omitempty"`
}

// DegradationJSON is one net the fail-soft engine could not analyze.
type DegradationJSON struct {
	Net      string `json:"net"`
	Stage    string `json:"stage"`
	Error    string `json:"error"`
	Degraded bool   `json:"degraded"`
}

// ResultJSON is the full noise-analysis report.
type ResultJSON struct {
	Mode       string          `json:"mode"`
	Stats      core.Stats      `json:"stats"`
	Violations []ViolationJSON `json:"violations"`
	// Degradations lists nets the fail-soft engine could not analyze;
	// their entries in nets carry conservative full-rail bounds.
	Degradations []DegradationJSON `json:"degradations,omitempty"`
	Nets         []NetJSON         `json:"nets"`
}

// DelayImpactJSON is one crosstalk delay push-out.
type DelayImpactJSON struct {
	Net  string `json:"net"`
	Edge string `json:"edge"` // "rise" | "fall"
	// VictimWindow is the victim's own switching-window set for the edge.
	VictimWindow []*WindowJSON `json:"victimWindow,omitempty"`
	NoisePeak    float64       `json:"noisePeakV"`
	Delta        float64       `json:"deltaS"`
	// At is an instant achieving the worst overlap; null when the engine's
	// NaN sentinel marked none.
	At      *float64 `json:"atS"`
	Members []string `json:"members,omitempty"`
}

// DelayResultJSON is the design-wide crosstalk delta-delay report.
type DelayResultJSON struct {
	Mode         string            `json:"mode"`
	Impacts      []DelayImpactJSON `json:"impacts"`
	Degradations []DegradationJSON `json:"degradations,omitempty"`
}

func jsonComb(c core.Combined) CombinedJSON {
	return CombinedJSON{
		Peak:    c.Peak,
		Width:   c.Width,
		At:      finite(c.At),
		Window:  jsonWin(c.Window),
		Members: c.Members,
	}
}

func jsonEvents(events []core.Event) []EventJSON {
	out := make([]EventJSON, 0, len(events))
	for _, e := range events {
		out = append(out, EventJSON{
			Source: e.Source,
			Peak:   e.Peak,
			Width:  e.Width,
			Window: jsonWin(e.Window),
		})
	}
	return out
}

func jsonDiags(diags []core.Diag) []DegradationJSON {
	var out []DegradationJSON
	for _, d := range diags {
		jd := DegradationJSON{Net: d.Net, Stage: d.Stage, Degraded: d.Degraded}
		if d.Err != nil {
			jd.Error = d.Err.Error()
		}
		out = append(out, jd)
	}
	return out
}

// BuildJSON converts a result into the export schema. Nets are sorted by
// name for deterministic output.
func BuildJSON(res *core.Result) *ResultJSON {
	out := &ResultJSON{
		Mode:         res.Mode.String(),
		Stats:        res.Stats,
		Degradations: jsonDiags(res.Diags),
	}
	for _, v := range res.Violations {
		out.Violations = append(out.Violations, ViolationJSON{
			Net:      v.Net,
			Receiver: v.Receiver,
			State:    v.Kind.String(),
			Peak:     v.Peak,
			Limit:    v.Limit,
			Slack:    v.Slack,
			At:       finite(v.At),
			Members:  v.Members,
		})
	}
	names := make([]string, 0, len(res.Nets))
	for n := range res.Nets {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		nn := res.Nets[name]
		jn := NetJSON{
			Net:  name,
			Low:  jsonComb(nn.Comb[core.KindLow]),
			High: jsonComb(nn.Comb[core.KindHigh]),
		}
		if nn.WorstPeak() > 0 {
			jn.LowEvents = jsonEvents(nn.Events[core.KindLow])
			jn.HighEvents = jsonEvents(nn.Events[core.KindHigh])
		}
		out.Nets = append(out.Nets, jn)
	}
	return out
}

// BuildDelayJSON converts a delta-delay result into the export schema.
func BuildDelayJSON(res *core.DelayResult) *DelayResultJSON {
	out := &DelayResultJSON{
		Mode:         res.Mode.String(),
		Degradations: jsonDiags(res.Diags),
	}
	for _, im := range res.Impacts {
		edge := "fall"
		if im.Rise {
			edge = "rise"
		}
		out.Impacts = append(out.Impacts, DelayImpactJSON{
			Net:          im.Net,
			Edge:         edge,
			VictimWindow: jsonSet(im.VictimWindow),
			NoisePeak:    im.NoisePeak,
			Delta:        im.Delta,
			At:           finite(im.At),
			Members:      im.Members,
		})
	}
	return out
}
