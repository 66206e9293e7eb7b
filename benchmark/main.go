// Command benchmark is the one benchmark of this repository: it builds
// sna and snad from source, generates every input from -seed with
// internal/workload, runs one named workload for a timed window, checks
// the programs' outputs, and prints every metric declared in
// BENCHMARK.json by name with its unit. README.md in this directory is
// the specification: workloads, metrics, and how they interact.
//
//	go run ./benchmark --workload batch_wide --seed 1 --seconds 28 --trace 0
//	go run ./benchmark -compare results/a results/b
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the per-layer ledger, timed from
// outside around calls into each layer's public functions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// Exit codes: 0 a result line was printed (its "correct" field says
// whether the outputs checked out); 1 the harness could not produce a
// result; 3 usage; 124 the hard deadline fired.
const (
	exitOK       = 0
	exitFail     = 1
	exitUsage    = 3
	exitDeadline = 124
)

// harness is one invocation: one workload, one window.
type harness struct {
	root     string // the checkout (working directory)
	buildDir string
	binDir   string
	workDir  string
	outDir   string

	workload string
	seed     int64
	window   time.Duration
	traced   bool
	small    bool

	decl  *declaration
	procs procSet
	step  atomic.Value // string: what the harness is doing, named when the hard deadline fires
	info  io.Writer    // progress and the human-readable metric table
}

// workloads maps each declared workload to its driver.
var workloads = map[string]func(*harness) (*result, error){
	"batch_wide":  func(h *harness) (*result, error) { return runBatch(h, wideSpec) },
	"batch_deep":  func(h *harness) (*result, error) { return runBatch(h, deepSpec) },
	"iterate":     runIterate,
	"serve_churn": runServe,
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed     = fs.Int64("seed", 1, "input seed: perturbs electrical values and fabric wiring, never sizes")
		seconds  = fs.Int("seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer ledger")
		small    = fs.Bool("small", false, "about a tenth of the nets (smoke test)")
		buildDir = fs.String("build-dir", ".bench_build", "directory for binaries, work files and results")
		outDir   = fs.String("out", "", "directory for the result file (default <build-dir>/results)")
		compare  = fs.Bool("compare", false, "compare two result directories: -compare A B")
		replica  = fs.String("replica", "", "internal: run the traced sna pipeline described by this spec file")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	countDefaultTransport()
	if *replica != "" {
		if err := runReplica(*replica); err != nil {
			fmt.Fprintln(stderr, "benchmark: replica:", err)
			return exitFail
		}
		return exitOK
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return exitFail
	}
	decl, err := loadDeclaration(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return exitFail
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result directories")
			return exitUsage
		}
		if err := runCompare(stdout, decl, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return exitFail
		}
		return exitOK
	}
	run, ok := workloads[*workload]
	if !ok || !decl.hasWorkload(*workload) {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (declared: %v)\n", *workload, decl.workloadNames())
		return exitUsage
	}
	if *seconds == 0 {
		*seconds = decl.RunSeconds
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be at least 1 and -trace 0 or 1")
		return exitUsage
	}
	bd := *buildDir
	if !filepath.IsAbs(bd) {
		bd = filepath.Join(root, bd)
	}
	h := &harness{
		root: root, buildDir: bd, binDir: filepath.Join(bd, "bin"),
		workDir:  filepath.Join(bd, "work", fmt.Sprintf("%s-%d", *workload, os.Getpid())),
		outDir:   *outDir,
		workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, small: *small, decl: decl, info: stdout,
	}
	if h.outDir == "" {
		h.outDir = filepath.Join(bd, "results")
	}
	return h.main(run, stdout, stderr)
}

// main runs the workload under the three guards the spec asks for: every
// child dies on every exit path, the invocation has a hard deadline that
// names the stuck step, and a signal cleans up before exiting.
func (h *harness) main(run func(*harness) (*result, error), stdout, stderr io.Writer) (code int) {
	h.step.Store("starting")
	// A few windows plus the fixed costs (three set-ups, checks, the
	// durability audit), and never past the contract's 180 s.
	hard := 90*time.Second + 4*h.window
	if hard > 170*time.Second {
		hard = 170 * time.Second
	}
	deadline := time.AfterFunc(hard, func() {
		fmt.Fprintf(stderr, "benchmark: hard deadline (%s) hit during step %q\n", hard, h.step.Load())
		h.cleanup()
		os.Exit(exitDeadline)
	})
	defer deadline.Stop()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		if s, ok := <-sigs; ok {
			fmt.Fprintf(stderr, "benchmark: %s during step %q, cleaning up\n", s, h.step.Load())
			h.cleanup()
			os.Exit(exitFail)
		}
	}()
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(stderr, "benchmark: panic during step %q: %v\n", h.step.Load(), p)
			code = exitFail
		}
		h.cleanup()
		signal.Stop(sigs)
		close(sigs)
	}()

	if err := os.MkdirAll(h.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return exitFail
	}
	if err := h.build(); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return exitFail
	}
	res, err := run(h)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: step %q: %v\n", h.workload, h.step.Load(), err)
		return exitFail
	}
	h.step.Store("reporting")
	out, err := h.finish(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", h.workload, err)
		return exitFail
	}
	if err := h.writeResultFile(res, out); err != nil {
		fmt.Fprintln(stderr, "benchmark: result file:", err)
		return exitFail
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return exitFail
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return exitOK
}

// cleanup kills every child and removes the run's work directory. It is
// safe to call more than once and from the deadline and signal paths.
func (h *harness) cleanup() {
	h.procs.killAll()
	os.RemoveAll(h.workDir)
}

// setStep names what the harness is about to do.
func (h *harness) setStep(format string, args ...any) {
	h.step.Store(fmt.Sprintf(format, args...))
}

// build compiles the programs under test from the checkout's source. The
// Go build cache makes the up-to-date case a fraction of a second.
func (h *harness) build() error {
	h.setStep("building sna and snad")
	if err := os.MkdirAll(h.binDir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", h.binDir+string(os.PathSeparator), "./cmd/sna", "./cmd/snad")
	cmd.Dir = h.root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build ./cmd/sna ./cmd/snad: %v\n%s", err, out)
	}
	return nil
}

// repeatSetup measures set-up: setup_s is the median of the calmest three
// consecutive repeats, so one slow process start or disk flush does not
// decide it. A set-up runs at least three times, and a quick one up to
// nine times or 2 s in all; traced runs, which do not print setup_s, set
// up once.
// setup returns a teardown, called on every repeat but the last, whose
// state the run uses.
func (h *harness) repeatSetup(res *result, what string, setup func(i int) (teardown func(), err error)) error {
	var durs []float64
	total := 0.0
	for i := 0; ; i++ {
		h.setStep("set-up %d: %s", i+1, what)
		t0 := time.Now()
		teardown, err := setup(i)
		if err != nil {
			return err
		}
		d := time.Since(t0).Seconds()
		durs, total = append(durs, d), total+d
		n := len(durs)
		if h.traced || res.failed > 0 || n >= 9 || (n >= 3 && total >= 2) {
			break
		}
		if teardown != nil {
			teardown()
		}
	}
	res.series["setup_s"] = durs
	res.setCalmest("setup_s", durs, 3)
	return nil
}

// bin is the path of a built program.
func (h *harness) bin(name string) string { return filepath.Join(h.binDir, name) }

// result is what a workload driver hands back: metric values with the
// sample count behind each, and the count of attempted and failed
// operations. A failed check counts as a failed operation.
type result struct {
	values    map[string]float64
	samples   map[string]int
	attempted int
	failed    int
	failures  []string             // the first few, for the log
	sizes     map[string]int       // input sizes, recorded in the env block
	series    map[string][]float64 // per-unit samples in time order, kept in the result file
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}, sizes: map[string]int{}, series: map[string][]float64{}}
}

// set records a metric value and the number of samples it summarises.
func (r *result) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// setMedian records the median of xs, if there are any.
func (r *result) setMedian(name string, xs []float64, scale float64) {
	if len(xs) > 0 {
		r.set(name, median(xs)*scale, len(xs))
	}
}

// setCalmest records the unit time over the calmest k consecutive samples
// of xs (see calmest), if there are any.
func (r *result) setCalmest(name string, xs []float64, k int) {
	if len(xs) > 0 {
		r.set(name, calmest(xs, k), len(xs))
	}
}

// merge adds another result's operation counts (a client goroutine's).
func (r *result) merge(o *result) {
	r.attempted += o.attempted
	r.failed += o.failed
	for _, f := range o.failures {
		if len(r.failures) < 8 {
			r.failures = append(r.failures, f)
		}
	}
}

// attempt counts one operation; a non-nil err counts it failed.
func (r *result) attempt(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 8 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// check counts one verification; it fails when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if ok {
		r.attempt(nil)
		return
	}
	r.attempt(fmt.Errorf(format, args...))
}

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// finish turns a driver's result into the result line: every end-to-end
// metric with tracing off, every per-layer metric with tracing on. A
// layer the workload does not exercise reads 0 in the ledger; a missing
// end-to-end metric is a harness bug and refuses the run.
func (h *harness) finish(res *result) (*resultLine, error) {
	decls := h.decl.EndToEnd
	if h.traced {
		decls = h.decl.PerLayer
	}
	out := &resultLine{
		Correct: res.failed == 0 && res.attempted > 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricOut, len(decls)),
	}
	fmt.Fprintf(h.info, "%s seed=%d window=%s trace=%v small=%v\n", h.workload, h.seed, h.window, h.traced, h.small)
	for _, d := range decls {
		v, ok := res.values[d.Name]
		if !ok && !h.traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
		if ok {
			fmt.Fprintf(h.info, "  %-34s %14.6g %-6s n=%d\n", d.Name, v, d.Unit, res.samples[d.Name])
		}
	}
	var stray []string
	for name := range res.values {
		if !h.decl.has(name) {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("metrics measured but not declared in BENCHMARK.json: %v", stray)
	}
	fmt.Fprintf(h.info, "  attempted=%d failed=%d\n", res.attempted, res.failed)
	for _, f := range res.failures {
		fmt.Fprintf(h.info, "  FAILED: %s\n", f)
	}
	return out, nil
}

// errTimeout marks a wait that ran past its deadline.
var errTimeout = errors.New("timed out")
