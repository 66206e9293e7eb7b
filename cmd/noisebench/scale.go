package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/lint"
	"repro/internal/load"
	"repro/internal/spef"
	"repro/internal/sta"
	"repro/internal/vlog"
	"repro/internal/workload"
)

// The capacity ladder behind -scale: one rung per target net count, each
// measuring the full pipeline — streaming parse of on-disk Verilog, SPEF,
// and input-timing files, binding, and a windowed noise analysis — so the
// checked-in BENCH_scale.json tracks end-to-end cost per net as designs
// grow from 10k toward 1M nets. Unlike the testing.B benchmarks in
// bench_test.go (steady-state engine ops on small fixtures), the ladder
// runs each rung once: at 1M nets a single load+analyze IS the workload,
// and the per-net normalization is what makes rungs comparable.

// scaleRecord is one rung's result.
type scaleRecord struct {
	// Nets is the realized net count of the rung's design.
	Nets int `json:"nets"`
	// LoadNs covers parsing the .v/.spef/.win files, lint and binding.
	LoadNs float64 `json:"load_ns"`
	// AnalyzeNs covers one windowed noise analysis of the bound design.
	AnalyzeNs float64 `json:"analyze_ns"`
	// NsPerNet and AllocsPerNet normalize the analysis cost; the load
	// figures get their own per-net column.
	NsPerNet         float64 `json:"ns_per_net"`
	AllocsPerNet     float64 `json:"allocs_per_net"`
	LoadNsPerNet     float64 `json:"load_ns_per_net"`
	LoadAllocsPerNet float64 `json:"load_allocs_per_net"`
	// PeakRSSBytes is the process high-water mark (VmHWM) after the rung:
	// monotone across rungs, so ascending order keeps it meaningful.
	PeakRSSBytes int64 `json:"peak_rss_bytes,omitempty"`
}

// parseRungs parses the -rungs flag: a comma-separated ascending list of
// target net counts.
func parseRungs(s string) ([]int, error) {
	var rungs []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad rung %q: %w", f, err)
		}
		if len(rungs) > 0 && n <= rungs[len(rungs)-1] {
			return nil, fmt.Errorf("rungs must be ascending (peak-RSS is monotone), got %s", s)
		}
		rungs = append(rungs, n)
	}
	if len(rungs) == 0 {
		return nil, fmt.Errorf("no rungs in %q", s)
	}
	return rungs, nil
}

// peakRSS reads the process's resident high-water mark from
// /proc/self/status; 0 on platforms without it.
func peakRSS() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0
			}
			return kb * 1024
		}
	}
	return 0
}

// writeRungFiles generates the rung's design and writes it to dir as the
// .v/.spef/.win triple the timed load will parse back.
func writeRungFiles(dir string, nets int) (realized int, err error) {
	g, err := workload.Scale(workload.ScaleSpec{Nets: nets})
	if err != nil {
		return 0, err
	}
	write := func(name string, fn func(io.Writer) error) {
		if err != nil {
			return
		}
		var f *os.File
		if f, err = os.Create(filepath.Join(dir, name)); err != nil {
			return
		}
		if err = fn(f); err != nil {
			f.Close()
			return
		}
		err = f.Close()
	}
	write("design.v", func(w io.Writer) error { return vlog.Write(w, g.Design) })
	write("design.spef", func(w io.Writer) error { return spef.Write(w, g.Paras) })
	write("design.win", func(w io.Writer) error { return sta.WriteInputTiming(w, g.Inputs) })
	return g.Design.NumNets(), err
}

// loadRung loads the rung's files the way the sna CLI loads real inputs —
// the same loader: concurrent streaming parse, lint, bind.
func loadRung(dir string) (*bind.Design, core.Options, error) {
	loaded, err := load.Load(load.Files(filepath.Join(dir, "design.v"), "",
		filepath.Join(dir, "design.spef"), filepath.Join(dir, "design.win")), lint.Config{})
	if err != nil {
		return nil, core.Options{}, err
	}
	bd, err := loaded.Bind()
	if err != nil {
		return nil, core.Options{}, err
	}
	return bd, core.Options{Mode: core.ModeNoiseWindows, STA: sta.Options{InputTiming: loaded.Inputs}}, nil
}

// runScale climbs the ladder and writes the records to path. A positive
// maxAllocsPerNet turns the run into a regression gate: any rung whose
// analysis allocates more than that per net fails the invocation.
func runScale(ctx context.Context, path, rungSpec string, maxAllocsPerNet float64, stdout io.Writer) error {
	rungs, err := parseRungs(rungSpec)
	if err != nil {
		return err
	}
	var records []scaleRecord
	for _, nets := range rungs {
		if err := ctx.Err(); err != nil {
			return err
		}
		rec, err := runRung(ctx, nets)
		if err != nil {
			return fmt.Errorf("rung %d: %w", nets, err)
		}
		fmt.Fprintf(stdout, "scale %8d nets  load %8.0f ms  analyze %8.0f ms  %7.0f ns/net  %6.1f allocs/net  rss %d MB\n",
			rec.Nets, rec.LoadNs/1e6, rec.AnalyzeNs/1e6, rec.NsPerNet, rec.AllocsPerNet, rec.PeakRSSBytes>>20)
		records = append(records, rec)
		if maxAllocsPerNet > 0 && rec.AllocsPerNet > maxAllocsPerNet {
			return fmt.Errorf("rung %d: %.1f allocs/net exceeds limit %.1f",
				nets, rec.AllocsPerNet, maxAllocsPerNet)
		}
	}
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runRung measures one rung: generate and write the design, then a timed
// alloc-counted load (parse + lint + bind) and a timed alloc-counted analysis.
func runRung(ctx context.Context, nets int) (scaleRecord, error) {
	var rec scaleRecord
	dir, err := os.MkdirTemp("", "noisebench-scale")
	if err != nil {
		return rec, err
	}
	defer os.RemoveAll(dir)
	realized, err := writeRungFiles(dir, nets)
	if err != nil {
		return rec, err
	}
	rec.Nets = realized
	perNet := float64(realized)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	bd, opts, err := loadRung(dir)
	if err != nil {
		return rec, err
	}
	rec.LoadNs = float64(time.Since(start).Nanoseconds())
	runtime.ReadMemStats(&after)
	rec.LoadNsPerNet = rec.LoadNs / perNet
	rec.LoadAllocsPerNet = float64(after.Mallocs-before.Mallocs) / perNet

	runtime.ReadMemStats(&before)
	start = time.Now()
	if _, err := core.AnalyzeCtx(ctx, bd, opts); err != nil {
		return rec, err
	}
	rec.AnalyzeNs = float64(time.Since(start).Nanoseconds())
	runtime.ReadMemStats(&after)
	rec.NsPerNet = rec.AnalyzeNs / perNet
	rec.AllocsPerNet = float64(after.Mallocs-before.Mallocs) / perNet
	rec.PeakRSSBytes = peakRSS()
	return rec, nil
}
