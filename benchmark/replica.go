package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/liberty"
	"repro/internal/lint"
	"repro/internal/netlist"
	"repro/internal/report"
	"repro/internal/spef"
	"repro/internal/sta"
	"repro/internal/vlog"
)

// The replica is the traced stand-in for `sna`: a child process of the
// harness's own binary that repeats cmd/sna's pipeline on the same files,
// step for step, with a span around each call into a layer's public
// function. The spans are recorded here, in the benchmark's files, not in
// the program; sna.accounted_share says how much of the real program's
// wall clock they explain.

// replicaSpec is the replica's work order, written by the harness.
type replicaSpec struct {
	Net, SPEF, Win string
	Workers        int
	Delay          bool
	TextOut        string // where the text report goes (sna's stdout)
	JSONOut        string // "" = no JSON report
	ResultOut      string
}

// replicaResult is what the replica measured.
type replicaResult struct {
	Spans    map[string]float64 // seconds, or a count where the name says so
	TextSHA  string
	JSONSHA  string
	ExitCode int // what sna would have exited with
}

// span times fn and records it under name.
func (r *replicaResult) span(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	r.Spans[name] = time.Since(t0).Seconds()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// mallocs is the process-wide count of heap allocations so far; parallel
// parsers allocate on other goroutines, and this counts those too.
func mallocs() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs)
}

func runReplica(specPath string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec replicaSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return err
	}
	res := &replicaResult{Spans: map[string]float64{}}
	if err := res.pipeline(&spec); err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(spec.ResultOut, out, 0o644)
}

// withFile opens path and hands it to fn, as sna's loaders do.
func withFile(path string, fn func(*os.File) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return fn(f)
}

func fileMB(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size()) / 1e6
}

func (r *replicaResult) pipeline(spec *replicaSpec) error {
	ctx := context.Background()
	lib := liberty.Generic()
	var (
		design *netlist.Design
		paras  *spef.Parasitics
		inputs map[string]*sta.Timing
		err    error
	)

	// --- what sna does, in sna's order ---
	parseName, isVerilog := "netlist.parse_s", strings.HasSuffix(spec.Net, ".v")
	if isVerilog {
		parseName = "vlog.parse_s"
	}
	m0 := mallocs()
	if err := r.span(parseName, func() error {
		return withFile(spec.Net, func(f *os.File) error {
			if isVerilog {
				design, err = vlog.Parse(f, lib)
			} else {
				design, err = netlist.Parse(f)
			}
			return err
		})
	}); err != nil {
		return err
	}
	nets := float64(design.NumNets())
	if isVerilog {
		r.Spans["vlog.mb_per_s"] = fileMB(spec.Net) / r.Spans[parseName]
		r.Spans["vlog.allocs_per_net"] = (mallocs() - m0) / nets
	}
	m0 = mallocs()
	if err := r.span("spef.parse_s", func() error {
		return withFile(spec.SPEF, func(f *os.File) error { paras, err = spef.Parse(f); return err })
	}); err != nil {
		return err
	}
	r.Spans["spef.mb_per_s"] = fileMB(spec.SPEF) / r.Spans["spef.parse_s"]
	r.Spans["spef.allocs_per_net"] = (mallocs() - m0) / nets
	if err := r.span("sta.parse_timing_s", func() error {
		return withFile(spec.Win, func(f *os.File) error { inputs, err = sta.ParseInputTiming(f); return err })
	}); err != nil {
		return err
	}
	// sna never calls Levelize itself: lint is its first caller and the
	// design caches the result. Calling it here, on the fresh design, splits
	// that cost out of lint.run_s; the two together are what sna pays.
	r.span("netlist.levelize_s", func() error { design.Levelize(); return nil })
	var lres *lint.Result
	r.span("lint.run_s", func() error {
		lres = lint.Run(&lint.Input{Design: design, Lib: lib, Paras: paras, Inputs: inputs}, lint.Config{})
		return nil
	})
	if lres.HasErrors() {
		return fmt.Errorf("lint rejected the generated design (%d errors)", lres.Errors())
	}
	var b *bind.Design
	m0 = mallocs()
	if err := r.span("bind.new_s", func() error { b, err = bind.New(design, lib, paras); return err }); err != nil {
		return err
	}
	r.Spans["bind.allocs_per_net"] = (mallocs() - m0) / nets
	opts := core.Options{
		Mode: core.ModeNoiseWindows, Workers: spec.Workers, FailSoft: true,
		STA: sta.Options{InputTiming: inputs},
	}
	var noise *core.Result
	m0 = mallocs()
	if err := r.span("core.analyze_s", func() error { noise, err = core.AnalyzeCtx(ctx, b, opts); return err }); err != nil {
		return err
	}
	r.Spans["core.allocs_per_net"] = (mallocs() - m0) / nets
	r.Spans["core.ns_per_net"] = r.Spans["core.analyze_s"] * 1e9 / nets
	text, err := os.Create(spec.TextOut)
	if err != nil {
		return err
	}
	defer text.Close()
	r.span("report.text_s", func() error {
		report.Violations(text, noise)
		report.Degradations(text, noise.Diags)
		return nil
	})
	if spec.JSONOut != "" {
		if err := r.span("report.json_s", func() error {
			f, err := os.Create(spec.JSONOut)
			if err != nil {
				return err
			}
			if err := report.WriteJSON(f, noise); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}); err != nil {
			return err
		}
		r.Spans["report.json_mb"] = fileMB(spec.JSONOut)
		if r.JSONSHA, err = fileSHA(spec.JSONOut); err != nil {
			return err
		}
	}
	if spec.Delay {
		if err := r.span("core.delay_s", func() error {
			dres, err := core.AnalyzeDelayCtx(ctx, b, opts)
			if err != nil {
				return err
			}
			delayTable(text, dres)
			return nil
		}); err != nil {
			return err
		}
	}
	pipeline := 0.0
	for _, v := range []string{parseName, "spef.parse_s", "sta.parse_timing_s", "netlist.levelize_s", "lint.run_s",
		"bind.new_s", "core.analyze_s", "report.text_s", "report.json_s", "core.delay_s"} {
		pipeline += r.Spans[v]
	}
	r.Spans["pipeline_s"] = pipeline
	if err := text.Close(); err != nil {
		return err
	}
	if r.TextSHA, err = fileSHA(spec.TextOut); err != nil {
		return err
	}
	switch {
	case len(noise.Violations) > 0:
		r.ExitCode = 1
	case len(noise.Diags) > 0:
		r.ExitCode = 5
	}
	st := noise.Stats
	r.Spans["core.victims"] = float64(st.Victims)
	r.Spans["core.aggressor_pairs"] = float64(st.AggressorPairs)
	r.Spans["core.propagated"] = float64(st.Propagated)
	r.Spans["core.iterations"] = float64(st.Iterations)
	r.Spans["core.violations"] = float64(len(noise.Violations))
	r.Spans["converged"] = b2f(st.Converged)

	// --- outside the sum: the same bound design, one layer at a time ---
	if err := r.span("sta.run_s", func() error { _, err := sta.Run(b, opts.STA); return err }); err != nil {
		return err
	}
	// Every net's RC reduction, on a second bind so the first one's
	// analysis cache (filled by core.analyze_s) does not answer.
	b2, err := bind.New(design, lib, paras)
	if err != nil {
		return err
	}
	if err := r.span("rc.analysis_s", func() error {
		for _, n := range design.Nets() {
			if b2.NetworkOf(n) == nil {
				continue
			}
			if _, err := b2.AnalysisOf(n); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	noprop := opts
	noprop.NoPropagation = true
	if err := r.span("core.analyze_noprop_s", func() error { _, err := core.AnalyzeCtx(ctx, b, noprop); return err }); err != nil {
		return err
	}
	// A second warm analyze is the fair minuend: the first one also paid
	// for filling the bind's RC cache, which noprop and all now find full.
	var warm float64
	{
		t0 := time.Now()
		if _, err := core.AnalyzeCtx(ctx, b, opts); err != nil {
			return err
		}
		warm = time.Since(t0).Seconds()
	}
	r.Spans["core.propagate_s"] = warm - r.Spans["core.analyze_noprop_s"]
	all := opts
	all.Mode = core.ModeAllAggressors
	var allRes *core.Result
	if err := r.span("core.analyze_all_s", func() error { allRes, err = core.AnalyzeCtx(ctx, b, all); return err }); err != nil {
		return err
	}
	r.Spans["core.window_cost_s"] = warm - r.Spans["core.analyze_all_s"]
	r.Spans["core.violations_all"] = float64(len(allRes.Violations))
	// Aggregate conservatism of the paper's method: windows only remove
	// pessimism, they never add noise. (Noise ≤ timing-windows is NOT
	// asserted: the default tent occupancy breaks that ordering.)
	r.Spans["conservative"] = b2f(len(noise.Violations) <= len(allRes.Violations) &&
		noise.TotalNoise() <= allRes.TotalNoise()*(1+1e-12))
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// delayTable renders the delta-delay section exactly as cmd/sna does
// without -period, so the replica's text report can be compared byte for
// byte with sna's standard output.
func delayTable(w io.Writer, dres *core.DelayResult) {
	t := report.NewTable(
		fmt.Sprintf("crosstalk delta-delay (%s): %d impacted edges, worst %s",
			dres.Mode, len(dres.Impacts), report.SI(dres.WorstDelta(), "s")),
		"net", "edge", "noise", "delta", "members")
	for i, im := range dres.Impacts {
		if i == 20 {
			t.AddRow("...")
			break
		}
		edge := "fall"
		if im.Rise {
			edge = "rise"
		}
		t.AddRow(im.Net, edge, report.SI(im.NoisePeak, "V"), report.SI(im.Delta, "s"), strings.Join(im.Members, "+"))
	}
	t.Render(w)
}

// fileSHA is the SHA-256 of a file's bytes.
func fileSHA(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
