package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runSet is every result file of one directory (or one file), grouped by
// workload and tracing, each metric's values in file order.
type runSet struct {
	values map[string]map[string][]float64 // "<workload>/<0|1>" → metric → values
	failed map[string]int
	runs   map[string]int
}

func setKey(workload string, traced bool) string {
	if traced {
		return workload + "/1"
	}
	return workload + "/0"
}

func loadSet(path string) (*runSet, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	set := &runSet{values: map[string]map[string][]float64{}, failed: map[string]int{}, runs: map[string]int{}}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil || rf.Workload == "" {
			continue // not a result file
		}
		key := setKey(rf.Workload, rf.Traced)
		if set.values[key] == nil {
			set.values[key] = map[string][]float64{}
		}
		for name, m := range rf.Metrics {
			//snavet:ordered each metric appends to its own slice; no order crosses metrics
			set.values[key][name] = append(set.values[key][name], m.Value)
		}
		set.failed[key] += rf.Failed
		set.runs[key]++
	}
	if len(set.runs) == 0 {
		return nil, fmt.Errorf("%s holds no result file", path)
	}
	return set, nil
}

// runCompare prints, per workload and end-to-end metric, both sets'
// medians with quartiles, the ratio with its base, the bound, and a
// verdict: ok, regressed (B's median worse than A's by more than the
// bound), or unresolved (either set's own quartile spread is wider than
// the bound, so the comparison cannot tell; setup_s, with its handful of
// samples per run, is exempt from that rule as it is in the driver's).
// Then the exact counts of the traced runs, which must repeat.
func runCompare(w io.Writer, decl *declaration, a, b string) error {
	sa, err := loadSet(a)
	if err != nil {
		return err
	}
	sb, err := loadSet(b)
	if err != nil {
		return err
	}
	regressed, unresolved := 0, 0
	fmt.Fprintf(w, "A = %s\nB = %s\nratio = B median / A median\n\n", a, b)
	fmt.Fprintf(w, "%-12s %-12s %10s %22s %10s %22s %7s %6s  %s\n",
		"workload", "metric", "A median", "A q1..q3 (n)", "B median", "B q1..q3 (n)", "ratio", "bound", "verdict")
	for _, wl := range decl.Workloads {
		key := setKey(wl.Name, false)
		va, vb := sa.values[key], sb.values[key]
		if va == nil || vb == nil {
			continue
		}
		for _, m := range decl.EndToEnd {
			xa, xb := va[m.Name], vb[m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			q1a, q3a := quartiles(xa)
			q1b, q3b := quartiles(xb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = (ma - mb) / ma
			}
			spread := (q3a - q1a) / ma
			if s := (q3b - q1b) / mb; s > spread {
				spread = s
			}
			verdict := "ok"
			switch {
			case spread > m.Bound && m.Name != "setup_s":
				verdict = fmt.Sprintf("unresolved (spread %.1f%%)", spread*100)
				unresolved++
			case worse > m.Bound:
				verdict = fmt.Sprintf("regressed (%.1f%% worse)", worse*100)
				regressed++
			}
			fmt.Fprintf(w, "%-12s %-12s %10.4g %22s %10.4g %22s %7.3f %5.0f%%  %s\n", wl.Name, m.Name,
				ma, fmt.Sprintf("%.4g..%.4g (%d)", q1a, q3a, len(xa)),
				mb, fmt.Sprintf("%.4g..%.4g (%d)", q1b, q3b, len(xb)),
				mb/ma, m.Bound*100, verdict)
		}
		if fa, fb := sa.failed[key], sb.failed[key]; fa > 0 || fb > 0 {
			verdict := "ok"
			if fb > fa {
				verdict = "regressed (any increase)"
				regressed++
			}
			fmt.Fprintf(w, "%-12s %-12s %10d %22s %10d %22s %7s %6s  %s\n", wl.Name, "failed", fa, "", fb, "", "", "", verdict)
		}
	}
	fmt.Fprintf(w, "\nexact counts of the traced runs (must repeat):\n")
	differing := 0
	for _, wl := range decl.Workloads {
		key := setKey(wl.Name, true)
		va, vb := sa.values[key], sb.values[key]
		if va == nil || vb == nil {
			continue
		}
		for _, m := range decl.PerLayer {
			if !exactCount(m.Name) || len(va[m.Name]) == 0 || len(vb[m.Name]) == 0 {
				continue
			}
			ma, mb := median(va[m.Name]), median(vb[m.Name])
			if ma == 0 && mb == 0 {
				continue // a layer this workload does not exercise
			}
			verdict := "same"
			if ma != mb {
				verdict = "DIFFERS"
				differing++
			}
			fmt.Fprintf(w, "%-12s %-32s %12g %12g  %s\n", wl.Name, m.Name, ma, mb, verdict)
		}
	}
	fmt.Fprintf(w, "\n%d regressed, %d unresolved, %d exact counts differ\n", regressed, unresolved, differing)
	return nil
}

// exactCount reports whether a per-layer metric is a count made by the
// program on generated inputs, which repeats exactly for one seed — unlike
// counts of whatever fitted in the window.
func exactCount(name string) bool {
	switch name {
	case "core.victims", "core.aggressor_pairs", "core.propagated", "core.iterations", "core.violations",
		"core.violations_all", "core.iterate_rounds", "shard.boundary_nets", "shard.identity_diff_nets":
		return true
	}
	return strings.HasSuffix(name, ".dispatches")
}
