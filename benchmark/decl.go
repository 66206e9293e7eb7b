package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// declaration is BENCHMARK.json: the vocabulary the harness prints. It is
// read at run time so the printed metric set cannot drift from the file.
type declaration struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.Workloads) == 0 || len(d.EndToEnd) == 0 || len(d.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: workloads, end_to_end and per_layer must all be non-empty", path)
	}
	return &d, nil
}

func (d *declaration) hasWorkload(name string) bool {
	for _, w := range d.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func (d *declaration) workloadNames() []string {
	names := make([]string, len(d.Workloads))
	for i, w := range d.Workloads {
		names[i] = w.Name
	}
	return names
}

// has reports whether name is declared as either kind of metric.
func (d *declaration) has(name string) bool {
	for _, ms := range [][]metricDecl{d.EndToEnd, d.PerLayer} {
		for _, m := range ms {
			if m.Name == name {
				return true
			}
		}
	}
	return false
}

// envBlock records what produced a result file: the config-beside-results
// idiom. Every field that needs a tool or a file the host may lack is
// best-effort; a missing git degrades this block, not the run.
type envBlock struct {
	Commit     string         `json:"commit,omitempty"`
	GoVersion  string         `json:"goVersion"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	CPUModel   string         `json:"cpuModel,omitempty"`
	Kernel     string         `json:"kernel,omitempty"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Small      bool           `json:"small,omitempty"`
	Sizes      map[string]int `json:"sizes,omitempty"`
}

func (h *harness) env(sizes map[string]int) envBlock {
	e := envBlock{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: h.seed, Seconds: h.window.Seconds(), Small: h.small, Sizes: sizes,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
	cmd.Dir = h.root
	if out, err := cmd.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(data))
	}
	return e
}

// resultFile is one run on disk, the unit -compare reads.
type resultFile struct {
	Workload  string               `json:"workload"`
	Traced    bool                 `json:"traced"`
	Env       envBlock             `json:"env"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Failures  []string             `json:"failures,omitempty"`
	Metrics   map[string]metricOut `json:"metrics"`
	Samples   map[string]int       `json:"samples"`
	Series    map[string][]float64 `json:"series,omitempty"`
}

func (h *harness) writeResultFile(res *result, out *resultLine) error {
	if err := os.MkdirAll(h.outDir, 0o755); err != nil {
		return err
	}
	trace := 0
	if h.traced {
		trace = 1
	}
	rf := resultFile{
		Workload: h.workload, Traced: h.traced, Env: h.env(res.sizes),
		Correct: out.Correct, Attempted: out.Attempted, Failed: out.Failed, Failures: res.failures,
		Metrics: out.Metrics, Samples: res.samples, Series: res.series,
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	// The time keeps repeated runs of one seed apart: -compare takes its
	// quartiles over every file of a directory.
	name := fmt.Sprintf("%s.trace%d.seed%d.%d.json", h.workload, trace, h.seed, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(h.outDir, name), append(data, '\n'), 0o644)
}
