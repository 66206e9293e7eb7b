package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/bind"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/shard"
)

// The iterate workload: one design, bound once, and the joint noise–delay
// fixpoint run round-robin by three drivers — core.AnalyzeIterativeCtx in
// this process; shard.Run over one in-process worker × 4 shards; shard.Run
// over one spawned `snad serve` worker process × 4 shards on loopback. The
// engines are serial (Workers 0). One worker, not two: the coordinator's
// dispatches leave nothing to overlap (two workers finished 2 % sooner),
// so a second worker process is one more busy thread on the host's two
// cores and no information.
const (
	iterWorkers = 1
	iterShards  = 4
	// iterStretch is how many consecutive fixpoints of one driver make the
	// stretch its share of wall_s and cpu_s is read from; see calmest.
	iterStretch = 3
)

// iterFixture is the set-up state of the iterate workload.
type iterFixture struct {
	src     *sources
	bd      *bound
	spec    *shard.DesignSpec
	workers []*snad
	remote  []shard.Worker
}

func (f *iterFixture) stop() {
	for _, w := range f.workers {
		w.kill()
	}
}

func (h *harness) iterSetup() (*iterFixture, error) {
	g, err := hotFabric(h.pick(120, 40), h.pick(16, 10), h.seed)
	if err != nil {
		return nil, err
	}
	f := &iterFixture{}
	if f.src, err = render(g, false); err != nil {
		return nil, err
	}
	if f.bd, err = f.src.bind(); err != nil {
		return nil, err
	}
	f.spec = &shard.DesignSpec{
		Netlist: f.src.netlist, SPEF: f.src.spef, Timing: f.src.timing,
		Options: shard.OptionsSpec{Mode: "noise"},
	}
	for i := 0; i < iterWorkers; i++ {
		w, err := h.startSnad(fmt.Sprintf("worker%d", i))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, w)
		f.remote = append(f.remote, client.NewShardWorker(fmt.Sprintf("w%d", i), w.url,
			client.RetryPolicy{AttemptTimeout: 30 * time.Second}))
	}
	// One run over the remote workers fills their design caches (parse,
	// lint and bind of the shipped sources), as a long-lived fleet's are:
	// the window measures the fixpoint, not the first contact.
	if _, err := f.sharded(context.Background(), f.remote, "warm"); err != nil {
		f.stop()
		return nil, fmt.Errorf("warming the workers: %w", err)
	}
	return f, nil
}

// inproc builds fresh in-process workers over the shared bound design, as
// a server without registered workers does for an iterate job.
func (f *iterFixture) inproc() []shard.Worker {
	ws := make([]shard.Worker, iterWorkers)
	for i := range ws {
		ws[i] = shard.NewInProc(fmt.Sprintf("w%d", i),
			func(context.Context) (*bind.Design, error) { return f.bd.b, nil }, f.bd.opts)
	}
	return ws
}

// sharded runs the coordinator over the given workers.
func (f *iterFixture) sharded(ctx context.Context, workers []shard.Worker, token string) (*shard.Outcome, error) {
	out, err := shard.Run(ctx, shard.Config{
		B: f.bd.b, Opts: f.bd.opts, Workers: workers, Shards: iterShards, Token: token,
		Design: f.spec, DispatchTimeout: 30 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	if out.Degraded || !out.Converged || out.Reassigns > 0 {
		return nil, fmt.Errorf("sharded run: degraded=%v converged=%v reassigns=%d", out.Degraded, out.Converged, out.Reassigns)
	}
	return out, nil
}

// reportSHA is the digest of report.WriteJSON plus the delay report: the
// byte-identity the three drivers are held to.
func reportSHA(noise *core.Result, delay *core.DelayResult) (string, error) {
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, noise); err != nil {
		return "", err
	}
	if err := report.WriteDelayJSON(&buf, delay); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// fingerprint is a cheap exact digest of a result, independent of map
// order: rendering the 7 MB report after every run would cost as much as
// the run. The full render is compared once per driver before the window.
func fingerprint(noise *core.Result, delay *core.DelayResult, rounds int) uint64 {
	bits := math.Float64bits
	total := uint64(rounds)*1000003 + uint64(len(noise.Violations))*7919 + uint64(len(delay.Impacts))
	for name, nn := range noise.Nets {
		x := nameHash(name)
		for _, c := range nn.Comb {
			x = x*31 + bits(c.Peak)
			x = x*31 + bits(c.Width)
			x = x*31 + bits(c.Window.Lo)
			x = x*31 + bits(c.Window.Hi)
		}
		total += x
	}
	for _, im := range delay.Impacts {
		total += (nameHash(im.Net)*31+bits(im.Delta))*31 + bits(im.NoisePeak)
	}
	return total
}

func nameHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// samePadding checks what the local and a sharded driver do agree on:
// the number of rounds and every net's final padding, exactly.
func samePadding(local *core.IterativeResult, out *shard.Outcome) error {
	if out.Rounds != local.Rounds {
		return fmt.Errorf("sharded run took %d rounds, local %d", out.Rounds, local.Rounds)
	}
	if len(out.Padding) != len(local.Padding) {
		return fmt.Errorf("sharded run padded %d nets, local %d", len(out.Padding), len(local.Padding))
	}
	for net, pad := range local.Padding {
		if out.Padding[net] != pad {
			return fmt.Errorf("net %s: sharded padding %g, local %g", net, out.Padding[net], pad)
		}
	}
	return nil
}

// differingNets counts the nets whose worst combination (peak, width or
// window, either state) differs between two results.
func differingNets(a, b *core.Result) int {
	n := 0
	for name, an := range a.Nets {
		bn := b.Nets[name]
		if bn == nil {
			n++
			continue
		}
		for k := range an.Comb {
			x, y := an.Comb[k], bn.Comb[k]
			if x.Peak != y.Peak || x.Width != y.Width || x.Window != y.Window {
				n++
				break
			}
		}
	}
	return n
}

// dispatch is one Worker.Do seen from outside.
type dispatch struct {
	op         string
	start, end time.Time
	wireBytes  int // JSON size of request + response, when sized
}

// tracedWorker wraps a shard.Worker and records a span around every Do.
type tracedWorker struct {
	shard.Worker
	log *dispatchLog
}

type dispatchLog struct {
	mu    sync.Mutex
	spans []dispatch
	sized bool // also compute each request's and response's JSON size
}

func (w *tracedWorker) Do(ctx context.Context, op string, req, resp any) error {
	t0 := time.Now()
	err := w.Worker.Do(ctx, op, req, resp)
	d := dispatch{op: op, start: t0, end: time.Now()}
	if w.log.sized {
		for _, v := range []any{req, resp} {
			if v != nil {
				if data, err := json.Marshal(v); err == nil {
					d.wireBytes += len(data)
				}
			}
		}
	}
	w.log.mu.Lock()
	w.log.spans = append(w.log.spans, d)
	w.log.mu.Unlock()
	return err
}

func traceWorkers(ws []shard.Worker, log *dispatchLog) []shard.Worker {
	out := make([]shard.Worker, len(ws))
	for i, w := range ws {
		out[i] = &tracedWorker{Worker: w, log: log}
	}
	return out
}

// busy is the length of the union of the dispatch intervals: the time at
// least one worker was working. Wall minus busy is the coordinator's own.
func busy(spans []dispatch) float64 {
	s := append([]dispatch(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
	var total time.Duration
	var curStart, curEnd time.Time
	for i, d := range s {
		if i == 0 || d.start.After(curEnd) {
			total += curEnd.Sub(curStart)
			curStart, curEnd = d.start, d.end
		} else if d.end.After(curEnd) {
			curEnd = d.end
		}
	}
	total += curEnd.Sub(curStart)
	return total.Seconds()
}

// variantLedger accumulates one sharded driver's traced runs.
type variantLedger struct {
	byOp       map[string][]float64 // summed Do seconds per run, by op
	self       []float64
	dispatches []float64
	rtts       []float64
	wireMB     float64
}

// add folds one traced run into the ledger. A sized run paid for
// marshalling every message twice, so it contributes sizes, not times.
func (v *variantLedger) add(log *dispatchLog, wall float64) {
	if log.sized {
		wire := 0
		for _, d := range log.spans {
			wire += d.wireBytes
		}
		v.wireMB = float64(wire) / 1e6
		return
	}
	if v.byOp == nil {
		v.byOp = map[string][]float64{}
	}
	perOp := map[string]float64{}
	for _, d := range log.spans {
		perOp[d.op] += d.end.Sub(d.start).Seconds()
		v.rtts = append(v.rtts, d.end.Sub(d.start).Seconds())
	}
	for _, op := range []string{shard.OpInit, shard.OpEval, shard.OpRound, shard.OpDelay, shard.OpCollect} {
		v.byOp[op] = append(v.byOp[op], perOp[op])
	}
	v.self = append(v.self, wall-busy(log.spans))
	v.dispatches = append(v.dispatches, float64(len(log.spans)))
}

func (v *variantLedger) emit(res *result, name string) {
	for op, xs := range v.byOp {
		res.setMedian(fmt.Sprintf("shard.%s.%s_s", name, op), xs, 1)
	}
	res.setMedian(fmt.Sprintf("shard.%s.coordinator_self_s", name), v.self, 1)
	res.setMedian(fmt.Sprintf("shard.%s.dispatches", name), v.dispatches, 1)
}

func runIterate(h *harness) (*result, error) {
	res := newResult()
	ctx := context.Background()
	var fix *iterFixture
	err := h.repeatSetup(res, fmt.Sprintf("generate, bind, start and warm %d snad workers", iterWorkers), func(int) (func(), error) {
		var err error
		if fix, err = h.iterSetup(); err != nil {
			return nil, err
		}
		return fix.stop, nil
	})
	if err != nil {
		return nil, err
	}
	res.sizes["nets"] = fix.src.nets

	// Before the window, off the clock: each driver once, full reports
	// rendered.
	//
	// What is held identical, and what is not: the two sharded drivers must
	// render byte-identical reports, and agree with the local driver on
	// rounds and on every net's padding. The local driver's noise numbers
	// are NOT required to match the sharded ones: at this commit they do
	// not, on any design where a propagated glitch crosses a shard boundary
	// (README.md, "What the benchmark found"). The ledger counts the nets
	// that differ as shard.identity_diff_nets.
	h.setStep("reference fixpoint (local)")
	local, err := core.AnalyzeIterativeCtx(ctx, fix.bd.b, fix.bd.opts, 0)
	if err == nil && !local.Converged {
		err = fmt.Errorf("local fixpoint did not converge in %d rounds (%s)", local.Rounds, local.DivergeReason)
	}
	if err == nil && len(local.Noise.Diags) > 0 {
		err = fmt.Errorf("local fixpoint degraded %d nets", len(local.Noise.Diags))
	}
	res.attempt(err)
	if err != nil {
		return res, nil
	}
	localPrint := fingerprint(local.Noise, local.Delay, local.Rounds)
	token := 0
	nextToken := func() string { token++; return fmt.Sprintf("bench-%d", token) }
	var shardSHA string
	var shardPrint uint64
	diffNets := 0
	for _, v := range []struct {
		name    string
		workers []shard.Worker
	}{{"inproc", fix.inproc()}, {"remote", fix.remote}} {
		h.setStep("reference fixpoint (%s)", v.name)
		out, err := fix.sharded(ctx, v.workers, nextToken())
		if err == nil {
			err = samePadding(local, out)
		}
		var sha string
		if err == nil {
			sha, err = reportSHA(out.Noise, out.Delay)
		}
		switch {
		case err != nil:
		case shardSHA == "":
			shardSHA, shardPrint = sha, fingerprint(out.Noise, out.Delay, out.Rounds)
			diffNets = differingNets(local.Noise, out.Noise)
		case sha != shardSHA:
			err = fmt.Errorf("the remote driver's report differs from the in-process driver's")
		}
		res.attempt(err)
		if err != nil {
			return res, nil
		}
	}

	var (
		localS, inprocS, remoteS, cycles []float64
		driverCPU                        [3][]float64 // CPU per fixpoint: local, in-process, remote
		tracedCycles, plainCycles        []float64
		ledgers                          = map[string]*variantLedger{"inproc": {}, "remote": {}}
		httpMB                           []float64
	)
	workerCPU := func() float64 {
		t := 0.0
		for _, w := range fix.workers {
			t += procCPUSeconds(w.cmd.Process.Pid)
		}
		return t
	}
	// timed runs fn on an otherwise idle harness and returns its wall
	// clock and the CPU this process and the workers spent on it.
	timed := func(fn func() error) (wall, cpu float64, err error) {
		c0, t0 := selfCPUSeconds()+workerCPU(), time.Now()
		err = fn()
		return time.Since(t0).Seconds(), selfCPUSeconds() + workerCPU() - c0, err
	}
	wcpu0 := workerCPU()
	end := time.Now().Add(h.window)
	minCycles := 1
	if h.traced {
		minCycles = 3 // one sized, one plain, one traced, however short the window
	}
	for n := 0; time.Now().Before(end) || n < minCycles; n++ {
		// Traced runs alternate plain and traced cycles; the plain ones
		// are the control trace.overhead_share is measured against. The
		// first traced cycle also sizes every message, and is not timed.
		trace := h.traced && n%2 == 0
		sized := h.traced && n == 0
		h.setStep("cycle %d: local", n+1)
		var it *core.IterativeResult
		var cpus [3]float64
		dl, cl, err := timed(func() error {
			var err error
			it, err = core.AnalyzeIterativeCtx(ctx, fix.bd.b, fix.bd.opts, 0)
			return err
		})
		if err == nil && fingerprint(it.Noise, it.Delay, it.Rounds) != localPrint {
			err = fmt.Errorf("local fixpoint result changed between runs")
		}
		res.attempt(err)
		cycle := dl
		cpus[0] = cl
		ok := err == nil
		var durs [2]float64
		for i, name := range []string{"inproc", "remote"} {
			h.setStep("cycle %d: %s", n+1, name)
			workers := fix.remote
			if name == "inproc" {
				workers = fix.inproc()
			}
			log := &dispatchLog{sized: sized}
			if trace {
				workers = traceWorkers(workers, log)
			}
			wire0 := wireBytes.Load()
			var out *shard.Outcome
			d, cpu, err := timed(func() error {
				var err error
				out, err = fix.sharded(ctx, workers, nextToken())
				return err
			})
			if err == nil && fingerprint(out.Noise, out.Delay, out.Rounds) != shardPrint {
				err = fmt.Errorf("%s result changed between runs", name)
			}
			res.attempt(err)
			if err != nil {
				ok = false
				continue
			}
			durs[i], cpus[1+i] = d, cpu
			cycle += d
			if trace {
				ledgers[name].add(log, d)
				if name == "remote" && !sized {
					httpMB = append(httpMB, float64(wireBytes.Load()-wire0)/1e6)
				}
			}
		}
		if !ok || sized {
			continue
		}
		localS, inprocS, remoteS = append(localS, dl), append(inprocS, durs[0]), append(remoteS, durs[1])
		cycles = append(cycles, cycle)
		for i, c := range cpus {
			driverCPU[i] = append(driverCPU[i], c)
		}
		if trace {
			tracedCycles = append(tracedCycles, cycle)
		} else {
			plainCycles = append(plainCycles, cycle)
		}
	}
	if len(cycles) == 0 {
		res.check(false, "no complete cycle in the window")
		return res, nil
	}
	// A cycle is three fixpoints. Each driver's time is read from its own
	// calmest stretch, so an episode that covers one driver's turn in a
	// cycle does not spoil the other two.
	wall, cpu := 0.0, 0.0
	for i, name := range []string{"local", "inproc", "remote"} {
		xs := [][]float64{localS, inprocS, remoteS}[i]
		res.series[name+"_s"], res.series[name+"_cpu_s"] = xs, driverCPU[i]
		wall += calmest(xs, iterStretch)
		cpu += calmest(driverCPU[i], iterStretch)
	}
	res.set("wall_s", wall, len(cycles))
	res.set("cpu_s", cpu, len(cycles))
	rss := procPeakRSSMB(os.Getpid())
	for _, w := range fix.workers {
		rss += procPeakRSSMB(w.cmd.Process.Pid)
	}
	res.set("peak_rss_mb", rss, 1)
	if !h.traced {
		return res, nil
	}

	res.setMedian("core.iterate_local_s", localS, 1)
	res.setMedian("shard.inproc.run_s", inprocS, 1)
	res.setMedian("shard.remote.run_s", remoteS, 1)
	res.set("core.iterate_rounds", float64(local.Rounds), 1)
	res.set("shard.identity_diff_nets", float64(diffNets), 1)
	if err := fix.planLedger(ctx, res); err != nil {
		return nil, err
	}
	for name, l := range ledgers {
		l.emit(res, name)
	}
	res.set("shard.wire_mb", ledgers["remote"].wireMB, 1)
	res.setMedian("shard.remote.http_mb", httpMB, 1)
	res.setMedian("client.shard_rtt_ms_p50", ledgers["remote"].rtts, 1e3)
	res.set("server.worker_cpu_s", (workerCPU()-wcpu0)/float64(len(cycles)+1), len(cycles)+1)
	if len(tracedCycles) > 0 && len(plainCycles) > 0 {
		res.set("trace.overhead_share", median(tracedCycles)/median(plainCycles)-1, len(tracedCycles))
	}
	return res, nil
}

// planLedger times the two steps every sharded run starts with, alone:
// deriving the shard plan and partitioning it.
func (f *iterFixture) planLedger(ctx context.Context, res *result) error {
	t0 := time.Now()
	plan, err := core.BuildShardPlan(ctx, f.bd.b)
	if err != nil {
		return err
	}
	res.set("core.plan_s", time.Since(t0).Seconds(), 1)
	t0 = time.Now()
	asg, err := shard.Partition(plan, iterShards, 0)
	if err != nil {
		return err
	}
	res.set("shard.partition_s", time.Since(t0).Seconds(), 1)
	boundary := map[string]bool{}
	for _, imports := range asg.Imports {
		for _, net := range imports {
			boundary[net] = true
		}
	}
	res.set("shard.boundary_nets", float64(len(boundary)), 1)
	return nil
}
