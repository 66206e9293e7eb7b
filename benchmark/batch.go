package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/workload"
)

// batchSpec is one `sna` workload: a user runs the program on files and
// waits for it to exit.
type batchSpec struct {
	gen     func(h *harness) (*workload.Generated, error)
	verilog bool // netlist as structural Verilog (else native .net)
	delay   bool // -delay
	jsonOut bool // -json out.json
}

// batch_wide: a very wide, shallow design. Parsing, lint and bind are
// about half the wall clock; nothing propagates.
var wideSpec = batchSpec{
	gen:     func(h *harness) (*workload.Generated, error) { return busDesign(h.pick(15000, 1500), 1, h.seed) },
	verilog: true,
}

// batch_deep: a hot random fabric. Levelised STA, the propagation
// fixpoint, the delta-delay pass and JSON rendering dominate.
var deepSpec = batchSpec{
	gen: func(h *harness) (*workload.Generated, error) {
		return hotFabric(h.pick(300, 60), h.pick(32, 16), h.seed)
	},
	delay: true, jsonOut: true,
}

// batchStretch is how many consecutive `sna` runs (about a second each)
// make the stretch wall_s and cpu_s are read from; see calmest.
const batchStretch = 3

// snaRun is one finished `sna` process.
type snaRun struct {
	wall, cpu, rssMB float64
	exit             int
	textSHA, jsonSHA string
	header           string // first line of the text report
}

// sna runs the program once, spawn to exit, and digests what it wrote.
func (h *harness) sna(spec *batchSpec, in *files, workers int) (*snaRun, error) {
	textPath := filepath.Join(h.workDir, "sna.out")
	jsonPath := filepath.Join(h.workDir, "sna.json")
	args := []string{"-workers", strconv.Itoa(workers), "-net", in.net, "-spef", in.spef, "-win", in.win}
	if spec.delay {
		args = append(args, "-delay")
	}
	if spec.jsonOut {
		args = append(args, "-json", jsonPath)
	}
	t0 := time.Now()
	c, err := h.spawn("sna", filepath.Join(h.workDir, "sna.err"), textPath, h.bin("sna"), args...)
	if err != nil {
		return nil, err
	}
	if err := c.wait(60 * time.Second); err != nil {
		return nil, err
	}
	run := &snaRun{wall: time.Since(t0).Seconds(), cpu: c.cpuSeconds(), rssMB: c.maxRSSMB(), exit: c.exitCode()}
	if run.exit != 0 && run.exit != 1 {
		return run, fmt.Errorf("sna exited %d: %s", run.exit, c.logTail())
	}
	if run.textSHA, err = fileSHA(textPath); err != nil {
		return run, err
	}
	if spec.jsonOut {
		if run.jsonSHA, err = fileSHA(jsonPath); err != nil {
			return run, err
		}
	}
	f, err := os.Open(textPath)
	if err != nil {
		return run, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if sc.Scan() {
		run.header = sc.Text()
	}
	return run, sc.Err()
}

// checkHeader verifies the seed-independent facts of a run from the
// report's first line: every generated net was a victim and the
// propagation fixpoint converged.
func checkHeader(header string, nets int) error {
	var mode string
	var victims, violations, couplings, filtered, iterations int
	var converged bool
	_, err := fmt.Sscanf(header, "noise analysis (%s %d nets, %d violations, %d couplings (%d filtered), %d iterations (converged=%t)",
		&mode, &victims, &violations, &couplings, &filtered, &iterations, &converged)
	if err != nil {
		return fmt.Errorf("unreadable report header %q: %v", header, err)
	}
	if victims != nets {
		return fmt.Errorf("report covers %d nets, generated %d", victims, nets)
	}
	if !converged {
		return fmt.Errorf("propagation did not converge: %q", header)
	}
	return nil
}

func runBatch(h *harness, spec batchSpec) (*result, error) {
	res := newResult()
	var (
		in  *files
		src *sources
	)
	err := h.repeatSetup(res, "generating and writing the design", func(int) (func(), error) {
		g, err := spec.gen(h)
		if err != nil {
			return nil, err
		}
		if src, err = render(g, spec.verilog); err != nil {
			return nil, err
		}
		in, err = src.write(filepath.Join(h.workDir, "in"))
		return nil, err
	})
	if err != nil {
		return nil, err
	}
	res.sizes["nets"] = src.nets

	// The reference: one serial run. Every -workers 2 run of the window,
	// and the replica, must reproduce its bytes.
	h.setStep("serial reference run")
	ref, err := h.sna(&spec, in, 0)
	if err == nil {
		err = checkHeader(ref.header, src.nets)
	}
	res.attempt(err)
	if err != nil {
		return res, nil // nothing to compare against; report the failure
	}
	same := func(what string, r *snaRun) error {
		if r.exit != ref.exit || r.textSHA != ref.textSHA || r.jsonSHA != ref.jsonSHA {
			return fmt.Errorf("%s differs from the serial run (exit %d vs %d, text %.8s vs %.8s, json %.8s vs %.8s)",
				what, r.exit, ref.exit, r.textSHA, ref.textSHA, r.jsonSHA, ref.jsonSHA)
		}
		return nil
	}

	var walls, cpus, rss []float64
	var replicas []*replicaResult
	end := time.Now().Add(h.window)
	for i := 0; time.Now().Before(end) || i == 0; i++ {
		h.setStep("sna run %d", i+1)
		r, err := h.sna(&spec, in, 2)
		if err == nil {
			err = same("sna -workers 2", r)
		}
		res.attempt(err)
		if err == nil {
			walls, cpus, rss = append(walls, r.wall), append(cpus, r.cpu), append(rss, r.rssMB)
		}
		if h.traced {
			h.setStep("replica run %d", i+1)
			rr, err := h.replica(&spec, in)
			if err == nil {
				if rr.ExitCode != ref.exit || rr.TextSHA != ref.textSHA || rr.JSONSHA != ref.jsonSHA {
					err = fmt.Errorf("the replica's reports differ from sna's")
				} else if rr.Spans["conservative"] != 1 || rr.Spans["converged"] != 1 {
					err = fmt.Errorf("replica: conservative=%v converged=%v", rr.Spans["conservative"], rr.Spans["converged"])
				} else if int(rr.Spans["core.victims"]) != src.nets {
					err = fmt.Errorf("replica analysed %v victims, generated %d nets", rr.Spans["core.victims"], src.nets)
				}
			}
			res.attempt(err)
			if err == nil {
				replicas = append(replicas, rr)
			}
		}
	}
	if len(walls) == 0 {
		return res, nil
	}
	res.series["wall_s"], res.series["cpu_s"] = walls, cpus
	res.setCalmest("wall_s", walls, batchStretch)
	res.setCalmest("cpu_s", cpus, batchStretch)
	res.setMedian("peak_rss_mb", rss, 1)
	if h.traced && len(replicas) > 0 {
		batchLedger(res, replicas, median(walls))
	}
	return res, nil
}

// replica runs the traced pipeline in a child of the harness's own binary.
func (h *harness) replica(spec *batchSpec, in *files) (*replicaResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rs := replicaSpec{
		Net: in.net, SPEF: in.spef, Win: in.win, Workers: 2, Delay: spec.delay,
		TextOut:   filepath.Join(h.workDir, "replica.out"),
		ResultOut: filepath.Join(h.workDir, "replica.result.json"),
	}
	if spec.jsonOut {
		rs.JSONOut = filepath.Join(h.workDir, "replica.json")
	}
	data, err := json.Marshal(rs)
	if err != nil {
		return nil, err
	}
	specPath := filepath.Join(h.workDir, "replica.spec.json")
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		return nil, err
	}
	c, err := h.spawn("replica", filepath.Join(h.workDir, "replica.err"), "", self, "-replica", specPath)
	if err != nil {
		return nil, err
	}
	if err := c.wait(120 * time.Second); err != nil {
		return nil, err
	}
	if c.exitCode() != 0 {
		return nil, fmt.Errorf("replica exited %d: %s", c.exitCode(), c.logTail())
	}
	out, err := os.ReadFile(rs.ResultOut)
	if err != nil {
		return nil, err
	}
	var rr replicaResult
	if err := json.Unmarshal(out, &rr); err != nil {
		return nil, err
	}
	return &rr, nil
}

// batchLedger folds the replicas' spans into the per-layer metrics: the
// median of each span over the replicas run, and the share of sna's
// untraced wall clock that the pipeline spans explain.
func batchLedger(res *result, replicas []*replicaResult, snaWall float64) {
	names := map[string]bool{}
	for _, rr := range replicas {
		for name := range rr.Spans {
			names[name] = true
		}
	}
	var pipeline float64
	for name := range names {
		var xs []float64
		for _, rr := range replicas {
			if v, ok := rr.Spans[name]; ok {
				xs = append(xs, v)
			}
		}
		switch name {
		case "pipeline_s":
			pipeline = median(xs)
		case "conservative", "converged": // checks, not metrics
		default:
			res.setMedian(name, xs, 1)
		}
	}
	res.set("sna.accounted_share", pipeline/snaWall, len(replicas))
	// The replica is a separate process, so it cannot slow sna down; what
	// tracing costs here is how far the replica's pipeline runs over the
	// real program's wall clock.
	res.set("trace.overhead_share", pipeline/snaWall-1, len(replicas))
}
