package report

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/liberty"
	"repro/internal/units"
	"repro/internal/workload"
)

// referenceJSON is the encoder the streamed writers replaced and must
// match byte for byte: encoding/json over the schema tree, indented.
func referenceJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// paths are the encoder settings every streamed check runs: the serial
// path, and the ordered parallel one at the real chunk size and at chunks
// of one and of five elements, which cut every array of two (ten) or more.
var paths = []struct{ workers, chunk int }{{1, chunkLen}, {2, chunkLen}, {3, 1}, {2, 5}}

// encodeWith renders doc through an encoder with the given parallelism.
func encodeWith(w io.Writer, workers, chunk int, doc func(e *encoder) *encoder) error {
	e := newEncoder(w)
	e.workers, e.chunk = workers, chunk
	return doc(e).finish()
}

// sameAsReference checks the streamed document, on every path, against the
// reference, and the compact encoding of the same result against
// json.Marshal. When encoding/json refuses the tree (a NaN in a
// non-nullable field) every encoder must refuse it too.
func sameAsReference(t *testing.T, what string, tree any, doc func(e *encoder) *encoder, appendTo func([]byte) ([]byte, error)) {
	t.Helper()
	var want bytes.Buffer
	refErr := referenceJSON(&want, tree)
	for _, p := range paths {
		var got bytes.Buffer
		err := encodeWith(&got, p.workers, p.chunk, doc)
		label := fmt.Sprintf("%s: streamed, %d worker(s), chunks of %d", what, p.workers, p.chunk)
		if refErr != nil {
			if err == nil {
				t.Fatalf("%s: reference refuses (%v), streamed writer accepted", label, refErr)
			}
		} else if err != nil {
			t.Fatalf("%s: %v", label, err)
		} else {
			sameBytes(t, label, got.Bytes(), want.Bytes())
		}
	}

	// The compact encoder appends: what dst held stays in front.
	wantC, refErr := json.Marshal(tree)
	gotC, err := appendTo([]byte("head"))
	if refErr != nil {
		if err == nil {
			t.Fatalf("%s: json.Marshal refuses (%v), compact encoder accepted", what, refErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: compact: %v", what, err)
	}
	if !bytes.HasPrefix(gotC, []byte("head")) {
		t.Fatalf("%s: compact encoder dropped what dst held", what)
	}
	sameBytes(t, what+": compact", gotC[len("head"):], wantC)
}

func sameBytes(t *testing.T, what string, g, w []byte) {
	t.Helper()
	if !bytes.Equal(g, w) {
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("%s JSON differs from reference at byte %d (got %d bytes, want %d)\n got: …%s\nwant: …%s",
			what, i, len(g), len(w), g[lo:min(i+80, len(g))], w[lo:min(i+80, len(w))])
	}
}

func checkNoise(t *testing.T, what string, res *core.Result) {
	t.Helper()
	sameAsReference(t, what, BuildJSON(res), func(e *encoder) *encoder { return e.result(res, nil, nil) },
		func(b []byte) ([]byte, error) { return AppendJSON(b, res, nil, nil) })
}

func checkDelay(t *testing.T, what string, res *core.DelayResult) {
	t.Helper()
	sameAsReference(t, what+" (delay)", BuildDelayJSON(res), func(e *encoder) *encoder { return e.delay(res) },
		func(b []byte) ([]byte, error) { return AppendDelayJSON(b, res) })
}

// hotFabric is the benchmark's batch_deep shape at test size: coupling
// strong enough that glitches propagate and receivers fail.
func hotFabric(width, levels int) (*workload.Generated, error) {
	return workload.Fabric(workload.FabricSpec{
		Width: width, Levels: levels, CouplingDensity: 3, CoupleC: 12 * units.Femto, Seed: 1,
	})
}

// engineCase is one fixture analyzed in one mode.
type engineCase struct {
	name  string
	noise *core.Result
	delay *core.DelayResult
}

// engineCases runs every workload generator through the engine in every
// mode, once per test binary; fabric-deep is the batch_deep shape.
var engineCases = sync.OnceValues(func() ([]engineCase, error) {
	fixtures := []struct {
		name string
		gen  func() (*workload.Generated, error)
	}{
		{"bus", func() (*workload.Generated, error) {
			return workload.Bus(workload.BusSpec{Bits: 6, Segs: 2, WindowWidth: 80 * units.Pico})
		}},
		{"bus-hot", func() (*workload.Generated, error) {
			return workload.Bus(workload.BusSpec{Bits: 6, Segs: 2, CoupleC: 30 * units.Femto, GroundC: 1 * units.Femto})
		}},
		{"bus-clean", func() (*workload.Generated, error) {
			return workload.Bus(workload.BusSpec{Bits: 4, Segs: 2, WindowSep: 500 * units.Pico})
		}},
		{"fabric", func() (*workload.Generated, error) {
			return workload.Fabric(workload.FabricSpec{Width: 12, Levels: 8, Seed: 3})
		}},
		{"fabric-hot", func() (*workload.Generated, error) { return hotFabric(40, 12) }},
		{"chain", func() (*workload.Generated, error) { return workload.Chain(workload.ChainSpec{Depth: 4}) }},
		{"star", func() (*workload.Generated, error) {
			return workload.Star(workload.StarSpec{Windows: []interval.Window{interval.New(0, 1e-10), interval.New(5e-11, 2e-10)}})
		}},
		{"ladder", func() (*workload.Generated, error) { return workload.Ladder(workload.LadderSpec{Lines: 8, Steps: 3}) }},
		{"differential", func() (*workload.Generated, error) {
			return workload.Differential(workload.DifferentialSpec{Pairs: 3})
		}},
		{"scale", func() (*workload.Generated, error) { return workload.Scale(workload.ScaleSpec{Nets: 64}) }},
		{"fabric-deep", func() (*workload.Generated, error) { return hotFabric(60, 16) }},
	}
	var cases []engineCase
	for _, f := range fixtures {
		g, err := f.gen()
		if err != nil {
			return nil, err
		}
		b, err := g.Bind(liberty.Generic())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
		for _, mode := range []core.Mode{core.ModeAllAggressors, core.ModeTimingWindows, core.ModeNoiseWindows} {
			c := engineCase{name: f.name + "/" + mode.String()}
			opts := core.Options{Mode: mode, STA: g.STAOptions()}
			if c.noise, err = core.AnalyzeCtx(context.Background(), b, opts); err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
			if c.delay, err = core.AnalyzeDelayCtx(context.Background(), b, opts); err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
			cases = append(cases, c)
		}
	}
	return cases, nil
})

func loadEngineCases(t *testing.T) []engineCase {
	t.Helper()
	cases, err := engineCases()
	if err != nil {
		t.Fatal(err)
	}
	return cases
}

// TestStreamedJSONMatchesReferenceOnFixtures compares both reports of every
// engine case, on every path.
func TestStreamedJSONMatchesReferenceOnFixtures(t *testing.T) {
	sawViolations, sawClean, sawPropagated := false, false, false
	for _, c := range loadEngineCases(t) {
		checkNoise(t, c.name, c.noise)
		checkDelay(t, c.name, c.delay)
		sawViolations = sawViolations || len(c.noise.Violations) > 0
		sawClean = sawClean || len(c.noise.Violations) == 0
		sawPropagated = sawPropagated || c.noise.Stats.Propagated > 0
	}
	if !sawViolations || !sawClean || !sawPropagated {
		t.Fatalf("fixtures lost coverage: violations=%v clean=%v propagated=%v", sawViolations, sawClean, sawPropagated)
	}
}

func TestStreamedJSONMatchesReferenceOnDegradedRun(t *testing.T) {
	checkNoise(t, "degraded run", degradedRun(t))
}

// hostileNames are strings every escaping rule fires on.
var hostileNames = []string{
	`q"uote`, `back\slash`, "<&>", "tab\there", "nl\ncr\r", "bell\a\b\f\v\x00\x1f\x7f",
	"bad\xffutf8\xc0", "trunc\xe2\x80", "sep\u2028and\u2029", "snow\u2603man", "",
}

// TestStreamedJSONMatchesReferenceOnEdgeCases hand-builds results holding
// every value the engine's sentinels and a hostile netlist can produce.
func TestStreamedJSONMatchesReferenceOnEdgeCases(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	windows := []interval.Window{
		interval.Empty(), interval.Infinite(), interval.New(1e-10, 2e-10),
		{Lo: math.Inf(-1), Hi: 3e-10}, {Lo: -2e-10, Hi: inf}, {Lo: 0, Hi: 0},
	}
	floats := []float64{0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e-6, 9.99e-7, 1e-7, 1.5e-10, 1e-300, 5e-324,
		1e20, 1e21, 1.7e308, 123456789.125, 0.30000000000000004}
	res := &core.Result{Mode: core.ModeNoiseWindows, Nets: map[string]*core.NetNoise{}}
	for i, name := range hostileNames {
		nn := &core.NetNoise{Net: name}
		for k := range nn.Comb {
			w := windows[(i+k)%len(windows)]
			nn.Comb[k] = core.Combined{
				Peak: floats[(2*i+k)%len(floats)], Width: floats[(3*i+k+1)%len(floats)],
				At: []float64{nan, 0, 1.2e-10, inf}[(i+k)%4], Window: w, Members: hostileNames[:i%4],
			}
			for j := 0; j < (i+k)%3; j++ {
				nn.Events[k] = append(nn.Events[k], core.Event{
					Source: hostileNames[(i+j)%len(hostileNames)], Peak: floats[(i+j)%len(floats)],
					Width: floats[(i+j+5)%len(floats)], Window: windows[(i+j)%len(windows)],
				})
			}
		}
		res.Nets[name] = nn
	}
	checkNoise(t, "hostile names, zero violations", res)
	if out := new(bytes.Buffer); WriteJSON(out, res) != nil || !bytes.Contains(out.Bytes(), []byte(`"violations": null`)) {
		t.Fatal("empty violations must encode as null")
	}

	for i, f := range floats {
		res.Violations = append(res.Violations, core.Violation{
			Net: hostileNames[i%len(hostileNames)], Receiver: "r<" + hostileNames[(i+1)%len(hostileNames)] + ">.A",
			Kind: core.Kind(i % 2), Peak: f, Limit: -f, Slack: f / 3,
			At: []float64{nan, f}[i%2], Members: hostileNames[:i%3],
		})
	}
	res.Diags = []core.Diag{
		{Net: hostileNames[0], Stage: core.StagePrepare, Err: errors.New("boom <\"\xff >"), Degraded: true},
		{Net: "noerr", Stage: core.StageEvaluate},
	}
	res.Stats = core.Stats{Victims: len(res.Nets), AggressorPairs: 7, Filtered: -1, Propagated: 1 << 40, Iterations: 3, Converged: true, DegradedNets: 2}
	checkNoise(t, "hostile everything", res)

	checkNoise(t, "no nets", &core.Result{Mode: core.ModeAllAggressors, Nets: map[string]*core.NetNoise{}})
	checkNoise(t, "nil nets", &core.Result{})

	// A NaN where the schema has a plain number is refused by both.
	bad := &core.Result{Nets: map[string]*core.NetNoise{"n": {Net: "n", Comb: [2]core.Combined{{Peak: nan}, {}}}}}
	checkNoise(t, "NaN peak", bad)
	if err := WriteJSON(io.Discard, bad); err == nil {
		t.Fatal("NaN peak must be an error")
	}

	dres := &core.DelayResult{Mode: core.ModeTimingWindows, Diags: res.Diags}
	checkDelay(t, "no impacts", dres)
	for i, name := range hostileNames {
		dres.Impacts = append(dres.Impacts, core.DelayImpact{
			Net: name, Rise: i%2 == 0, NoisePeak: floats[i%len(floats)], Delta: floats[(i+3)%len(floats)],
			At: []float64{nan, 1e-10, inf}[i%3], Members: hostileNames[:i%3],
			VictimWindow: []interval.Set{
				{}, interval.InfiniteSet(), interval.NewSet(windows[2]),
				interval.NewSet(windows[2], interval.New(5e-10, 6e-10), windows[3]),
			}[i%4],
		})
	}
	checkDelay(t, "hostile impacts", dres)
	checkDelay(t, "no diags", &core.DelayResult{Impacts: dres.Impacts[:2]})
}

// failAfter accepts writes of n bytes in all, keeping them, then fails
// every write and counts them.
type failAfter struct {
	n      int
	got    []byte
	failed int
}

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.failed > 0 || len(p) > f.n {
		f.failed++
		return 0, errDiskFull
	}
	f.n -= len(p)
	f.got = append(f.got, p...)
	return len(p), nil
}

// TestWriteJSONStopsAtFirstWriteError: the streamed writers return the
// writer's first error and do not keep encoding into a dead writer.
func TestWriteJSONStopsAtFirstWriteError(t *testing.T) {
	g, err := hotFabric(40, 12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Bind(liberty.Generic())
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions()}
	res, err := core.AnalyzeCtx(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := core.AnalyzeDelayCtx(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	var full, dfull bytes.Buffer
	if err := WriteJSON(&full, res); err != nil {
		t.Fatal(err)
	}
	if err := WriteDelayJSON(&dfull, dres); err != nil {
		t.Fatal(err)
	}
	if full.Len() < 8*flushAt || dfull.Len() < 2*flushAt {
		t.Fatalf("fixture too small to spill: %d and %d bytes", full.Len(), dfull.Len())
	}
	for _, n := range []int{0, flushAt, full.Len() / 2, full.Len() - 1} {
		w := &failAfter{n: n}
		if err := WriteJSON(w, res); !errors.Is(err, errDiskFull) {
			t.Fatalf("fail after %d: err = %v, want the writer's error", n, err)
		}
		if w.failed != 1 {
			t.Fatalf("fail after %d: %d writes after the failure, want none", n, w.failed-1)
		}
	}
	w := &failAfter{n: flushAt}
	if err := WriteDelayJSON(w, dres); !errors.Is(err, errDiskFull) || w.failed != 1 {
		t.Fatalf("delay: err = %v after %d failed writes", err, w.failed)
	}
}

// FuzzEncodeScalars pins the two scalar rules — number formatting and
// string escaping — to encoding/json on arbitrary inputs.
func FuzzEncodeScalars(f *testing.F) {
	for _, v := range []float64{0, 1e-6, 9.99e-7, 1e21, 1e20, -1.5e-10, 5e-324, math.Inf(1), math.NaN()} {
		for _, s := range hostileNames {
			f.Add(math.Float64bits(v), s)
		}
	}
	f.Fuzz(func(t *testing.T, bits uint64, s string) {
		v := math.Float64frombits(bits)
		e := &encoder{}
		e.float(v)
		want, err := json.Marshal(v)
		if (err != nil) != (e.err != nil) {
			t.Fatalf("float %v: reference err %v, streamed err %v", v, err, e.err)
		}
		if err == nil && string(e.buf) != string(want) {
			t.Fatalf("float %v (%#x): got %s, want %s", v, bits, e.buf, want)
		}
		if got, gerr := AppendFloat(nil, v); (gerr != nil) != (err != nil) || err == nil && string(got) != string(want) {
			t.Fatalf("AppendFloat %v: got %s (err %v), want %s (err %v)", v, got, gerr, want, err)
		}
		e = &encoder{}
		e.str(s)
		if want, _ = json.Marshal(s); string(e.buf) != string(want) {
			t.Fatalf("string %q: got %s, want %s", s, e.buf, want)
		}
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Fatalf("AppendString %q: got %s, want %s", s, got, want)
		}

		// Both scalars inside a document, in both modes: a net named s with
		// v wherever the schema has a number or a nullable instant.
		res := &core.Result{Mode: core.ModeNoiseWindows, Nets: map[string]*core.NetNoise{s: {
			Net: s,
			Comb: [2]core.Combined{
				{Peak: v, Width: 1e-11, At: v, Window: interval.New(0, 1e-10), Members: []string{s}},
				{Peak: 0.1, Width: v, At: math.NaN()},
			},
			Events: [2][]core.Event{{{Source: s, Peak: 0.1, Width: 1e-11, Window: interval.Infinite()}}},
		}}}
		checkNoise(t, "fuzzed scalars", res)
	})
}
