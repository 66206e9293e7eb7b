package report

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/liberty"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestWriteJSONRoundTrips(t *testing.T) {
	at := 1.5e-10
	res := &core.Result{
		Mode: core.ModeNoiseWindows,
		Nets: map[string]*core.NetNoise{
			"v": {
				Net: "v",
				Events: [2][]core.Event{
					{{Peak: 0.3, Width: 2e-11, Window: interval.New(1e-10, 2e-10), Source: "a0"}},
					nil,
				},
				Comb: [2]core.Combined{
					{Peak: 0.3, Width: 2e-11, Window: interval.New(1e-10, 2e-10), At: at, Members: []string{"a0"}},
					{At: math.NaN(), Window: interval.Empty()},
				},
			},
			"quiet": {Net: "quiet", Comb: [2]core.Combined{
				{At: math.NaN(), Window: interval.Empty()},
				{At: math.NaN(), Window: interval.Empty()},
			}},
		},
		Violations: []core.Violation{{
			Net: "v", Receiver: "r.A", Kind: core.KindLow,
			Peak: 0.3, Limit: 0.25, Slack: -0.05, At: at, Members: []string{"a0"},
		}},
		Stats: core.Stats{Victims: 2, Converged: true},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	// Must be valid JSON with the documented fields.
	var back map[string]any
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if back["mode"] != "noise-windows" {
		t.Fatalf("mode = %v", back["mode"])
	}
	viols := back["violations"].([]any)
	if len(viols) != 1 {
		t.Fatalf("violations = %v", viols)
	}
	v0 := viols[0].(map[string]any)
	if v0["slackV"].(float64) != -0.05 || v0["state"] != "low" {
		t.Fatalf("violation = %v", v0)
	}
	nets := back["nets"].([]any)
	if len(nets) != 2 {
		t.Fatalf("nets = %d", len(nets))
	}
	// Sorted: quiet before v.
	if nets[0].(map[string]any)["net"] != "quiet" {
		t.Fatal("nets not sorted")
	}
	// Quiet net: null window, no events, null at.
	q := nets[0].(map[string]any)["low"].(map[string]any)
	if q["window"] != nil || q["atS"] != nil {
		t.Fatalf("quiet low = %v", q)
	}
	// Noisy net carries its events.
	vn := nets[1].(map[string]any)
	if _, has := vn["lowEvents"]; !has {
		t.Fatalf("noisy net missing events: %v", vn)
	}
	// NaN must never leak into the output.
	if strings.Contains(buf.String(), "NaN") {
		t.Fatal("NaN leaked into JSON")
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	res := &core.Result{
		Mode: core.ModeAllAggressors,
		Nets: map[string]*core.NetNoise{
			"b": {Net: "b", Comb: [2]core.Combined{{At: math.NaN()}, {At: math.NaN()}}},
			"a": {Net: "a", Comb: [2]core.Combined{{At: math.NaN()}, {At: math.NaN()}}},
		},
	}
	var x, y bytes.Buffer
	if err := WriteJSON(&x, res); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&y, res); err != nil {
		t.Fatal(err)
	}
	if x.String() != y.String() {
		t.Fatal("nondeterministic JSON")
	}
}

func TestWriteJSONDegradations(t *testing.T) {
	res := &core.Result{
		Mode: core.ModeNoiseWindows,
		Nets: map[string]*core.NetNoise{},
		Diags: []core.Diag{
			{Net: "b3", Stage: core.StagePrepare, Err: errors.New("boom"), Degraded: true},
		},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	degs := back["degradations"].([]any)
	if len(degs) != 1 {
		t.Fatalf("degradations = %v", degs)
	}
	d0 := degs[0].(map[string]any)
	if d0["net"] != "b3" || d0["stage"] != "prepare" || d0["error"] != "boom" || d0["degraded"] != true {
		t.Fatalf("degradation = %v", d0)
	}
	// Clean runs omit the section entirely.
	var clean bytes.Buffer
	if err := WriteJSON(&clean, &core.Result{Nets: map[string]*core.NetNoise{}}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clean.String(), "degradations") {
		t.Fatal("clean run emitted degradations section")
	}
}

// degradedRun produces a real engine result with every JSON edge case at
// once: a degraded net (full-rail bound, infinite window), quiet nets
// (NaN At sentinels), and noisy nets with violations.
func degradedRun(t *testing.T) *core.Result {
	t.Helper()
	g, err := workload.Bus(workload.BusSpec{Bits: 4, Segs: 2, WindowWidth: 80 * units.Pico})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Bind(liberty.Generic())
	if err != nil {
		t.Fatal(err)
	}
	faults := chaos.RuntimeFaults{Panic: []string{"b1"}}
	res, err := core.AnalyzeCtx(context.Background(), b, core.Options{
		Mode:        core.ModeNoiseWindows,
		STA:         g.STAOptions(),
		FailSoft:    true,
		PrepareHook: faults.Hook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diags) == 0 || res.Stats.DegradedNets == 0 {
		t.Fatal("fixture did not degrade any net")
	}
	return res
}

// TestJSONRoundTripDegradedRun pins the server's response stability:
// marshal → unmarshal → re-marshal of a degraded run (Diags, DegradedNets,
// infinite windows, NaN sentinels) must be byte-identical.
func TestJSONRoundTripDegradedRun(t *testing.T) {
	res := degradedRun(t)
	var first bytes.Buffer
	if err := WriteJSON(&first, res); err != nil {
		t.Fatal(err)
	}
	back := new(ResultJSON)
	if err := json.Unmarshal(first.Bytes(), back); err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := referenceJSON(&second, back); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("round trip not stable:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
	}
	if strings.Contains(first.String(), "NaN") || strings.Contains(first.String(), "Inf") {
		t.Fatal("non-finite value leaked into JSON")
	}
	if len(back.Degradations) != len(res.Diags) {
		t.Fatalf("degradations lost in round trip: %d != %d", len(back.Degradations), len(res.Diags))
	}
}

// TestDelayJSONNeverCarriesNaN is the regression test for the
// interval.Combination `At: math.NaN()` sentinel: even an impact record
// hand-built with the sentinel must encode as null, never as a NaN that
// would make encoding/json fail the whole response.
func TestDelayJSONNeverCarriesNaN(t *testing.T) {
	res := &core.DelayResult{
		Mode: core.ModeNoiseWindows,
		Impacts: []core.DelayImpact{
			{
				Net: "b2", Rise: true,
				VictimWindow: interval.NewSet(interval.New(1e-10, 2e-10)),
				NoisePeak:    0.2, Delta: 3e-12,
				At:      math.NaN(), // the conflict.go / scanline.go sentinel
				Members: []string{"b1"},
			},
			{
				Net: "b3", Rise: false,
				VictimWindow: interval.NewSet(interval.Infinite()),
				NoisePeak:    0.1, Delta: 1e-12,
				At: 1.2e-10,
			},
		},
		Diags: []core.Diag{{Net: "b9", Stage: core.StageDelay, Err: errors.New("boom"), Degraded: true}},
	}
	var buf bytes.Buffer
	if err := WriteDelayJSON(&buf, res); err != nil {
		t.Fatalf("WriteDelayJSON failed (NaN reached the encoder?): %v", err)
	}
	if strings.Contains(buf.String(), "NaN") || strings.Contains(buf.String(), "Inf") {
		t.Fatalf("non-finite value leaked into delay JSON:\n%s", buf.String())
	}
	var back DelayResultJSON
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Impacts[0].At != nil {
		t.Fatalf("sentinel At should encode as null, got %v", *back.Impacts[0].At)
	}
	if back.Impacts[1].At == nil || *back.Impacts[1].At != 1.2e-10 {
		t.Fatal("finite At lost")
	}
	// The infinite victim window must encode as null endpoints.
	w := back.Impacts[1].VictimWindow[0]
	if w == nil || w.Lo != nil || w.Hi != nil {
		t.Fatalf("infinite window endpoints should be null, got %+v", w)
	}
}

// TestDelayJSONFromEngine: a real delay analysis must serialize cleanly.
func TestDelayJSONFromEngine(t *testing.T) {
	g, err := workload.Bus(workload.BusSpec{Bits: 4, Segs: 2, WindowWidth: 80 * units.Pico})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Bind(liberty.Generic())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.AnalyzeDelayCtx(context.Background(), b, core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDelayJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) || strings.Contains(buf.String(), "NaN") {
		t.Fatalf("bad delay JSON:\n%s", buf.String())
	}
}
