package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// mayBeZero lists the per-layer metrics that can honestly read 0 on every
// workload of a -small, one-second run: counts of events the load is
// sized never to cause, differences of two nearly equal times, and
// glitch counts that depend on how hot a tiny fabric happens to be.
var mayBeZero = map[string]bool{
	"server.sheds": true, "server.budget_sheds": true, "server.cache_evictions": true,
	"server.admission_wait_s": true, "shard.identity_diff_nets": true,
	"core.propagated": true, "core.violations": true, "core.violations_all": true,
}

// TestSmoke runs the benchmark the way the driver does — the built
// binary, from the repository root, one workload per invocation, traced
// and untraced — at -small sizes with one-second windows, and checks the
// contract: the result line's metric set is exactly what BENCHMARK.json
// declares for that mode, nothing failed, every end-to-end metric is
// non-zero, every per-layer metric is exercised by some workload, and no
// child process outlives its run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns sna and snad; skipped in -short")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	decl, err := loadDeclaration(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "benchmark")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	buildDir := filepath.Join(tmp, "build")
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	nonZero := map[string]bool{}

	for _, wl := range decl.Workloads {
		for _, trace := range []string{"0", "1"} {
			ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
			cmd := exec.CommandContext(ctx, bin, "--workload", wl.Name, "--seed", "7", "--seconds", "1",
				"--trace", trace, "-small", "-build-dir", buildDir)
			cmd.Dir = root
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			cancel()
			if err != nil {
				t.Fatalf("%s trace=%s: %v\nstderr: %s\nstdout: %s", wl.Name, trace, err, stderr.String(), out)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result object: %v\n%s", wl.Name, trace, err, out)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", wl.Name, trace, res.Correct, res.Attempted, res.Failed, out)
			}
			want := decl.EndToEnd
			if trace == "1" {
				want = decl.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics printed, %d declared", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: declared metric %s not printed", wl.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%s: %s printed in %q, declared %q", wl.Name, trace, d.Name, m.Unit, d.Unit)
				case !nameRE.MatchString(d.Name):
					t.Errorf("metric name %q is outside the contract's alphabet", d.Name)
				case trace == "0" && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v; end-to-end metrics are never 0", wl.Name, d.Name, m.Value)
				case m.Value != 0:
					nonZero[d.Name] = true
				}
			}
			if left := survivors(t, buildDir); len(left) > 0 {
				t.Fatalf("%s trace=%s: processes outlived the run: %v", wl.Name, trace, left)
			}
			if entries, _ := os.ReadDir(filepath.Join(buildDir, "work")); len(entries) > 0 {
				t.Errorf("%s trace=%s: work directory not cleaned up: %d entries", wl.Name, trace, len(entries))
			}
		}
	}
	for _, d := range decl.PerLayer {
		if !nonZero[d.Name] && !mayBeZero[d.Name] {
			t.Errorf("per-layer metric %s read 0 on every workload: no workload exercises it", d.Name)
		}
	}

	// The two sets of result files the runs left behind compare clean
	// against themselves.
	var cmp bytes.Buffer
	results := filepath.Join(buildDir, "results")
	if err := runCompare(&cmp, decl, results, results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cmp.String(), "0 regressed, 0 unresolved, 0 exact counts differ") {
		t.Errorf("a result set does not compare clean against itself:\n%s", cmp.String())
	}
}

// survivors lists processes whose command line mentions dir: every child
// of a run is started with paths under the run's build directory.
func survivors(t *testing.T, dir string) []string {
	t.Helper()
	procs, err := filepath.Glob("/proc/[0-9]*/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, p := range procs {
		data, err := os.ReadFile(p)
		if err != nil {
			continue // exited while we looked
		}
		if bytes.Contains(data, []byte(dir)) {
			left = append(left, strings.ReplaceAll(string(data), "\x00", " "))
		}
	}
	return left
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 3 = %v, %v; want 1, 4", q1, q3)
	}
}
