package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/wal"
)

// The serve workload: a long-lived `snad serve -data-dir -mem-budget`,
// and one client that waits for a reply before sending the next request —
// a closed loop, as a router or ECO loop calling an analysis service is.
// One client, not two: with the server's handler, its collector and the
// client's reads, a second connection puts more runnable threads on the
// host's two cores than it has, and the latencies then measure the
// scheduler.

const (
	// serveStretch is how many consecutive units of work (about 40 ms
	// each) make the stretch wall_s is read from (see calmest), and how
	// often the server's CPU clock, which ticks in hundredths of a second,
	// is read.
	serveStretch = 16
	// cpuStretch is how many consecutive readings of that clock make the
	// stretch cpu_s is read from.
	cpuStretch = 3
)

// digests is the set of bodies accepted for one step of the schedule.
type digests map[uint64]bool

// clientLog is what the client measured.
type clientLog struct {
	lat         map[string][]float64 // ms, by operation
	ttfb, read  []float64            // ms, traced exchanges
	respBytes   int64
	ops         int       // logical operations completed
	units       []float64 // s, per unit of work
	tracedUnits []float64
	plainUnits  []float64
	res         *result
}

func newClientLog() *clientLog {
	return &clientLog{lat: map[string][]float64{}, res: newResult()}
}

// serveClient is the closed-loop client.
type serveClient struct {
	tc      *thinClient
	log     *clientLog
	tracing bool // the current unit records transport spans
}

// op performs one timed logical operation made of a single exchange.
func (c *serveClient) op(kind string, status int, method, path string, body []byte) (*reply, error) {
	r, err := c.tc.expect(status, method, path, body, c.tracing)
	if err != nil {
		return r, err
	}
	c.record(kind, r.total)
	c.log.respBytes += int64(len(r.body))
	if c.tracing {
		c.log.ttfb = append(c.log.ttfb, ms(r.ttfb))
		c.log.read = append(c.log.read, ms(r.read))
	}
	return r, nil
}

func (c *serveClient) record(kind string, d time.Duration) {
	c.log.lat[kind] = append(c.log.lat[kind], ms(d))
	if kind != "submit" { // a submit is part of the job operation
		c.log.ops++
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// --- the in-process oracle ---

// oracle is a core.Session over the same text the server parsed.
type oracle struct {
	sess *core.Session
}

func newOracle(src *sources) (*oracle, error) {
	bd, err := src.bind()
	if err != nil {
		return nil, err
	}
	sess, err := core.NewSession(context.Background(), bd.b, bd.opts)
	if err != nil {
		return nil, err
	}
	return &oracle{sess: sess}, nil
}

// sameJSON reports whether a decoded value re-encodes to the oracle's
// encoding: every field equal, floats bit for bit.
func sameJSON(got, want any) (bool, error) {
	g, err := json.Marshal(got)
	if err != nil {
		return false, err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return false, err
	}
	return bytes.Equal(g, w), nil
}

// checkAnalysis fully decodes an analyze, reanalyze or job-result body and
// compares it field by field with the oracle's current state.
func (o *oracle) checkAnalysis(body []byte, session string, withDelay bool, minChanged int) error {
	var resp server.AnalyzeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if resp.Session != session {
		return fmt.Errorf("response names session %q, want %q", resp.Session, session)
	}
	if resp.Noise == nil {
		return fmt.Errorf("response has no noise section")
	}
	if ok, err := sameJSON(resp.Noise, report.BuildJSON(o.sess.Noise())); err != nil || !ok {
		return fmt.Errorf("noise section differs from the in-process oracle (err=%v)", err)
	}
	if withDelay {
		if resp.Delay == nil {
			return fmt.Errorf("response has no delay section")
		}
		if ok, err := sameJSON(resp.Delay, report.BuildDelayJSON(o.sess.Delay())); err != nil || !ok {
			return fmt.Errorf("delay section differs from the in-process oracle (err=%v)", err)
		}
	}
	if resp.ChangedNets < minChanged {
		return fmt.Errorf("changedNets=%d, want at least %d", resp.ChangedNets, minChanged)
	}
	if resp.Noise.Stats.DegradedNets > 0 {
		return fmt.Errorf("%d nets degraded", resp.Noise.Stats.DegradedNets)
	}
	return nil
}

// createBody is the JSON of a create request for src.
func createBody(name string, src *sources) ([]byte, error) {
	return json.Marshal(server.CreateSessionRequest{
		Name: name, Netlist: src.netlist, Verilog: src.verilog, SPEF: src.spef, Timing: src.timing,
	})
}

const (
	churnReanalyzes = 4
	keeperName      = "keeper"
	churnName       = "c0" // the session every cycle creates and deletes
	// churnBudget is the server's -mem-budget: small enough that the
	// never-seen designs of one window push idle ones out of the design
	// cache, large enough that no create is ever shed.
	churnBudget = "64MiB"
)

// The steps of one churn cycle, in order.
var churnSteps = [...]string{"create", "analyze", "reanalyze1", "reanalyze2", "reanalyze3", "reanalyze4", "report", "job", "delete"}

const (
	stepCreate  = 0
	stepAnalyze = 1
	stepReport  = 2 + churnReanalyzes
	stepJob     = stepReport + 1
	stepDelete  = stepJob + 1
)

// cycleBodies are the response bodies of one cycle, by step.
type cycleBodies struct {
	variant  int
	body     [len(churnSteps)][]byte
	complete bool
}

type churnFixture struct {
	srv     *snad
	flags   []string
	base    *sources
	spefCut [3]string // the base SPEF around the two tokens of one coupling cap
	capF    float64   // that cap's generated value
	bits    int
	table   map[string]digests // step → the bodies validated in set-up
	refLen  [len(churnSteps)]int

	lastMiss   cycleBodies // the latest never-seen cycle
	keeperLast []byte      // the last acknowledged keeper response
	keeperN    int
}

// cutSPEF finds the two listings of the b1↔b2 first-segment coupling
// capacitor (one in each net's section).
func (f *churnFixture) cutSPEF(spef string) error {
	rest := spef
	var cut []string
	for _, marker := range []string{" b1:1 b2:1 ", " b2:1 b1:1 "} {
		i := strings.Index(rest, marker)
		if i < 0 {
			return fmt.Errorf("generated SPEF has no %q capacitor", strings.TrimSpace(marker))
		}
		i += len(marker)
		j := strings.IndexByte(rest[i:], '\n')
		if j < 0 {
			return fmt.Errorf("generated SPEF ends inside a capacitor line")
		}
		v, err := strconv.ParseFloat(rest[i:i+j], 64)
		if err != nil {
			return err
		}
		f.capF = v
		cut = append(cut, rest[:i])
		rest = rest[i+j:]
	}
	f.spefCut = [3]string{cut[0], cut[1], rest}
	return nil
}

// variant is the base design with one coupling capacitor perturbed by k
// parts per million: a source the server has never seen, of identical
// size. Variant 0 is the base.
func (f *churnFixture) variant(k int) *sources {
	v := strconv.FormatFloat(f.capF*(1+float64(k)*1e-6), 'e', 10, 64)
	s := *f.base
	s.spef = f.spefCut[0] + v + f.spefCut[1] + v + f.spefCut[2]
	return &s
}

// pad is the padding of the j-th reanalyze of a cycle (j from 1): a fresh
// net each time, and growing, so every step changes at least one net.
func (f *churnFixture) pad(j int) (string, float64) {
	return fmt.Sprintf("b%d", (j*f.bits)/(churnReanalyzes+1)), float64(j) * 2e-12
}

func reanalyzeBody(net string, pad float64) []byte {
	data, _ := json.Marshal(server.ReanalyzeRequest{Padding: map[string]float64{net: pad}}) // cannot fail: finite floats
	return data
}

func (h *harness) churnSetup(n int) (*churnFixture, error) {
	f := &churnFixture{bits: h.pick(64, 16)}
	g, err := busDesign(f.bits, 2, h.seed)
	if err != nil {
		return nil, err
	}
	if f.base, err = render(g, false); err != nil {
		return nil, err
	}
	if err := f.cutSPEF(f.base.spef); err != nil {
		return nil, err
	}
	f.base = f.variant(0)
	f.flags = []string{"-data-dir", filepath.Join(h.workDir, fmt.Sprintf("data%d", n)), "-mem-budget", churnBudget}
	if f.srv, err = h.startSnad("snad", f.flags...); err != nil {
		return nil, err
	}
	c := newThinClient(f.srv.url)
	defer c.hc.CloseIdleConnections()
	body, err := createBody(keeperName, f.base)
	if err != nil {
		return nil, err
	}
	if _, err := c.expect(http.StatusCreated, "POST", "/v1/sessions", body, false); err != nil {
		return nil, err
	}
	if _, err := c.expect(http.StatusOK, "POST", "/v1/sessions/"+keeperName+"/analyze", nil, false); err != nil {
		return nil, err
	}
	return f, nil
}

// cycle is create → analyze → 4× reanalyze (fresh net, growing padding) →
// report → analyze job, polled every 2 ms until done → delete, on one
// session name (reused after delete, so a base-variant cycle answers the
// same bytes every time). The report must be the bytes of the last
// reanalyze. With compare set, every body must be one validated in
// set-up; otherwise only its status and length are checked and the caller
// holds the kept bodies to the oracle later.
func (f *churnFixture) cycle(c *serveClient, variant int, compare bool, kept *cycleBodies) {
	const name = churnName
	base := "/v1/sessions/" + name
	if kept != nil {
		kept.complete, kept.variant = false, variant
	}
	check := func(step int, body []byte, err error) bool {
		switch {
		case err != nil:
		case compare:
			if !f.table[churnSteps[step]][digest(body)] {
				err = fmt.Errorf("%s: body (%d bytes) differs from the one validated in set-up", churnSteps[step], len(body))
			}
		case f.refLen[step] > 0:
			// A never-seen variant: its numbers differ from the base's in
			// the low digits, its shape cannot.
			if want := f.refLen[step]; len(body) < want*98/100 || len(body) > want*102/100 {
				err = fmt.Errorf("%s: body is %d bytes, the base design's is %d", churnSteps[step], len(body), want)
			}
		}
		c.log.res.attempt(err)
		if err == nil && kept != nil {
			kept.body[step] = append(kept.body[step][:0], body...)
		}
		return err == nil
	}
	reqBody, err := createBody(name, f.variant(variant))
	if err != nil {
		c.log.res.attempt(err)
		return
	}
	r, err := c.op("create", http.StatusCreated, "POST", "/v1/sessions", reqBody)
	if !check(stepCreate, bodyOf(r), err) {
		return
	}
	ok := func() bool {
		r, err := c.op("analyze", http.StatusOK, "POST", base+"/analyze", nil)
		if !check(stepAnalyze, bodyOf(r), err) {
			return false
		}
		for j := 1; j <= churnReanalyzes; j++ {
			net, pad := f.pad(j)
			r, err = c.op("reanalyze", http.StatusOK, "POST", base+"/reanalyze", reanalyzeBody(net, pad))
			if !check(stepAnalyze+j, bodyOf(r), err) {
				return false
			}
		}
		last := append([]byte(nil), r.body...) // r.body is the client's buffer
		r, err = c.op("report", http.StatusOK, "GET", base+"/report", nil)
		if err == nil && !bytes.Equal(r.body, last) {
			err = fmt.Errorf("report is not the last analysis's bytes")
		}
		if !check(stepReport, bodyOf(r), err) {
			return false
		}
		result, err := f.job(c, name)
		return check(stepJob, result, err)
	}()
	// Delete even after a failed step: the next cycle reuses the name.
	r, err = c.op("delete", http.StatusNoContent, "DELETE", base, nil)
	if check(stepDelete, bodyOf(r), err) && ok && kept != nil {
		kept.complete = true
	}
}

func bodyOf(r *reply) []byte {
	if r == nil {
		return nil
	}
	return r.body
}

// job submits an analyze job and polls until it is terminal; the timed
// operation is submit → observed done. It returns the job's result.
func (f *churnFixture) job(c *serveClient, session string) ([]byte, error) {
	spec, _ := json.Marshal(jobs.Spec{Session: session, Type: "analyze"}) // cannot fail: strings only
	start := time.Now()
	r, err := c.tc.expect(http.StatusAccepted, "POST", "/v1/jobs", spec, c.tracing)
	if err != nil {
		return nil, err
	}
	c.record("submit", r.total)
	var j report.JobJSON
	if err := json.Unmarshal(r.body, &j); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	deadline := start.Add(20 * time.Second)
	for !j.Terminal() {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s still %s after 20 s", j.ID, j.State)
		}
		time.Sleep(2 * time.Millisecond)
		if r, err = c.tc.expect(http.StatusOK, "GET", "/v1/jobs/"+j.ID, nil, false); err != nil {
			return nil, err
		}
		j = report.JobJSON{}
		if err := json.Unmarshal(r.body, &j); err != nil {
			return nil, fmt.Errorf("poll: %w", err)
		}
	}
	c.record("job", time.Since(start))
	c.log.respBytes += int64(len(r.body))
	if j.State != "done" {
		return nil, fmt.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error)
	}
	return j.Result, nil
}

// validateCycle holds a cycle's kept bodies to a fresh oracle over the
// same variant, fully decoded, field by field.
func (f *churnFixture) validateCycle(session string, kept *cycleBodies) error {
	var info server.SessionInfo
	if err := json.Unmarshal(kept.body[stepCreate], &info); err != nil || info.Name != session {
		return fmt.Errorf("create answered %q (err=%v), want session %q", info.Name, err, session)
	}
	o, err := newOracle(f.variant(kept.variant))
	if err != nil {
		return err
	}
	if err := o.checkAnalysis(kept.body[stepAnalyze], session, false, 0); err != nil {
		return fmt.Errorf("analyze: %w", err)
	}
	for j := 1; j <= churnReanalyzes; j++ {
		net, pad := f.pad(j)
		if _, _, err := o.sess.Reanalyze(context.Background(), map[string]float64{net: pad}); err != nil {
			return err
		}
		if err := o.checkAnalysis(kept.body[stepAnalyze+j], session, false, 1); err != nil {
			return fmt.Errorf("reanalyze %d: %w", j, err)
		}
	}
	if err := o.checkAnalysis(kept.body[stepJob], session, false, 0); err != nil {
		return fmt.Errorf("job result: %w", err)
	}
	return nil
}

// validate runs one base-variant cycle, holds every body to the oracle,
// and records the digests and lengths the window compares against. It
// leaves the base design in the server's cache, so the window's base
// cycles are cache hits.
func (f *churnFixture) validate(res *result) {
	f.table = map[string]digests{}
	c := &serveClient{tc: newThinClient(f.srv.url), log: newClientLog()}
	var kept cycleBodies
	f.cycle(c, 0, false, &kept)
	c.tc.hc.CloseIdleConnections()
	res.merge(c.log.res)
	if !kept.complete {
		res.check(false, "the set-up cycle did not complete")
		return
	}
	res.attempt(f.validateCycle(churnName, &kept))
	for step, body := range kept.body {
		f.table[churnSteps[step]] = digests{digest(body): true}
		f.refLen[step] = len(body)
	}
}

// unit is two cycles: a never-seen source (design-cache miss: parse and
// bind) and the base source (hit); then a write to the keeper session,
// whose acknowledged state the durability audit checks.
func (f *churnFixture) unit(c *serveClient, u int) {
	f.cycle(c, 1+u, false, &f.lastMiss)
	f.cycle(c, 0, true, nil)
	f.keeperN++
	net := fmt.Sprintf("b%d", 2+f.keeperN%(f.bits-2))
	r, err := c.tc.expect(http.StatusOK, "POST", "/v1/sessions/"+keeperName+"/reanalyze",
		reanalyzeBody(net, float64(f.keeperN)*0.5e-12), false)
	if err == nil {
		var resp struct {
			ChangedNets int `json:"changedNets"`
		}
		if err = json.Unmarshal(r.body, &resp); err == nil && resp.ChangedNets < 1 {
			err = fmt.Errorf("keeper reanalyze %d changed no net", f.keeperN)
		}
	}
	c.log.res.attempt(err)
	if err == nil {
		f.keeperLast = append(f.keeperLast[:0], r.body...)
	}
}

// noiseParts picks the state-bearing sections out of an analysis body.
// Execution statistics are left out: a rebuilt session reaches the same
// state by a different path.
type noiseParts struct {
	Noise struct {
		Violations json.RawMessage `json:"violations"`
		Nets       json.RawMessage `json:"nets"`
	} `json:"noise"`
}

// audit is the durability check, off the clock: SIGTERM the server,
// restart it on the same data directory, and require the keeper session
// to analyse to exactly the state of its last acknowledged write. It
// returns the time from spawn to ready.
func (f *churnFixture) audit(h *harness, res *result) (restartS float64, err error) {
	if f.keeperLast == nil {
		res.check(false, "durability audit: no keeper write was acknowledged in the window")
		return 0, nil
	}
	h.setStep("durability audit: stopping snad")
	if err := f.srv.term(15 * time.Second); err != nil {
		return 0, err
	}
	h.setStep("durability audit: restarting snad on the same data directory")
	t0 := time.Now()
	if f.srv, err = h.startSnad("snad-restarted", f.flags...); err != nil {
		return 0, err
	}
	restartS = time.Since(t0).Seconds()
	c := newThinClient(f.srv.url)
	defer c.hc.CloseIdleConnections()
	r, err := c.expect(http.StatusOK, "POST", "/v1/sessions/"+keeperName+"/analyze", nil, false)
	if err == nil {
		var got, want noiseParts
		if err = json.Unmarshal(r.body, &got); err == nil {
			err = json.Unmarshal(f.keeperLast, &want)
		}
		if err == nil && (!bytes.Equal(got.Noise.Nets, want.Noise.Nets) || !bytes.Equal(got.Noise.Violations, want.Noise.Violations)) {
			err = fmt.Errorf("durability audit: after a restart the keeper session differs from its last acknowledged write (%d writes)", f.keeperN)
		}
	}
	res.attempt(err)
	return restartS, nil
}

func runServe(h *harness) (*result, error) {
	res := newResult()
	// Set-up is everything before the window: start snad, create and warm
	// the keeper session, and run one cycle with every response decoded
	// and held to the in-process oracle.
	var fix *churnFixture
	err := h.repeatSetup(res, "start snad, create the keeper session, validate one cycle against the oracle", func(i int) (func(), error) {
		var err error
		if fix, err = h.churnSetup(i); err != nil {
			return nil, err
		}
		res.sizes["nets"] = fix.base.nets
		fix.validate(res)
		return fix.srv.kill, nil
	})
	if err != nil {
		return nil, err
	}
	if res.failed > 0 {
		return res, nil // the window would compare against unvalidated bodies
	}
	srv := fix.srv

	h.setStep("measured window")
	before, err := scrape(srv.url)
	if err != nil {
		return nil, err
	}
	pid := srv.cmd.Process.Pid
	c := &serveClient{tc: newThinClient(srv.url), log: newClientLog()}
	all := c.log
	var sliceCPU []float64 // server CPU per unit of work, over each serveStretch units
	start := time.Now()
	end := start.Add(h.window)
	cpu0 := procCPUSeconds(pid)
	cpuMark := cpu0
	// At least two units, one plain and one traced, however short the
	// window.
	for u := 0; time.Now().Before(end) || u < 2; u++ {
		// Traced runs alternate plain and traced units; the plain ones are
		// the control for trace.overhead_share.
		c.tracing = h.traced && u%2 == 1
		t0 := time.Now()
		fix.unit(c, u)
		d := time.Since(t0).Seconds()
		all.units = append(all.units, d)
		if c.tracing {
			all.tracedUnits = append(all.tracedUnits, d)
		} else {
			all.plainUnits = append(all.plainUnits, d)
		}
		if (u+1)%serveStretch == 0 {
			now := procCPUSeconds(pid)
			sliceCPU = append(sliceCPU, (now-cpuMark)/serveStretch)
			cpuMark = now
		}
	}
	elapsed := time.Since(start).Seconds()
	cpu := procCPUSeconds(pid) - cpu0
	rss := procPeakRSSMB(pid)
	c.tc.hc.CloseIdleConnections()
	after, err := scrape(srv.url)
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return after[name] - before[name] }

	res.merge(all.res)
	if all.ops == 0 {
		res.check(false, "no operation completed in the window")
		return res, nil
	}
	if len(sliceCPU) == 0 { // a window shorter than one stretch
		sliceCPU = []float64{cpu / float64(len(all.units))}
	}
	res.series["wall_s"], res.series["cpu_s"] = all.units, sliceCPU
	res.setCalmest("wall_s", all.units, serveStretch)
	res.setCalmest("cpu_s", sliceCPU, cpuStretch)
	res.set("peak_rss_mb", rss, 1)
	res.check(delta("snad_shed_requests_total") == 0 && delta("snad_budget_sheds_total") == 0,
		"the server shed %v requests by admission and %v by budget; the load is sized for none",
		delta("snad_shed_requests_total"), delta("snad_budget_sheds_total"))

	h.setStep("validating the last never-seen cycle against the oracle")
	if fix.lastMiss.complete {
		res.attempt(fix.validateCycle(churnName, &fix.lastMiss))
	}
	restartS, err := fix.audit(h, res)
	if err != nil {
		return nil, err
	}
	if !h.traced {
		return res, nil
	}

	for op, xs := range all.lat {
		if op == "submit" {
			res.setMedian("jobs.submit_ms_p50", xs, 1)
			continue
		}
		res.set("client."+op+"_p50_ms", quantile(xs, 0.50), len(xs))
		res.set("client."+op+"_p95_ms", quantile(xs, 0.95), len(xs))
		res.set("client."+op+"_p99_ms", quantile(xs, 0.99), len(xs))
	}
	res.setMedian("client.ttfb_ms_p50", all.ttfb, 1)
	res.setMedian("client.body_read_ms_p50", all.read, 1)
	res.set("client.resp_kb_per_op", float64(all.respBytes)/1e3/float64(all.ops), all.ops)
	res.set("client.ops_per_s", float64(all.ops)/elapsed, all.ops)
	res.set("server.analysis_s", delta("snad_analysis_seconds_sum"), 1)
	res.set("server.analysis_count", delta("snad_analysis_seconds_count"), 1)
	res.set("server.admission_wait_s", delta("snad_admission_wait_seconds_sum"), 1)
	res.set("server.sheds", delta("snad_shed_requests_total"), 1)
	res.set("server.cpu_s", cpu, 1)
	res.set("server.cpu_ms_per_op", cpu*1e3/float64(all.ops), all.ops)
	res.set("server.heap_mb", after["snad_go_heap_alloc_bytes"]/1e6, 1)
	res.set("server.cache_hits", delta("snad_design_cache_hits_total"), 1)
	res.set("server.cache_misses", delta("snad_design_cache_misses_total"), 1)
	res.set("server.cache_evictions", delta("snad_design_cache_evictions_total"), 1)
	res.set("server.budget_sheds", delta("snad_budget_sheds_total"), 1)
	res.set("wal.fsync_s", delta("snad_journal_fsync_seconds_sum"), 1)
	res.set("wal.fsyncs", delta("snad_journal_fsync_seconds_count"), 1)
	res.set("jobs.run_s", delta("snad_job_run_seconds_sum"), 1)
	res.set("jobs.runs", delta("snad_job_run_seconds_count"), 1)
	res.set("server.restart_s", restartS, 1)
	if len(all.tracedUnits) > 0 && len(all.plainUnits) > 0 {
		res.set("trace.overhead_share", median(all.tracedUnits)/median(all.plainUnits)-1, len(all.tracedUnits))
	}

	h.setStep("floors: decode, BuildJSON and journal append, in this process")
	o, err := newOracle(fix.base)
	if err != nil {
		return nil, err
	}
	sampleBodies := [][]byte{fix.lastMiss.body[stepAnalyze]}
	var decode, build []float64
	for i := 0; i < 5; i++ {
		for _, body := range sampleBodies {
			var resp server.AnalyzeResponse
			t0 := time.Now()
			if err := json.Unmarshal(body, &resp); err != nil {
				return nil, err
			}
			decode = append(decode, ms(time.Since(t0)))
		}
		t0 := time.Now()
		if _, err := json.Marshal(report.BuildJSON(o.sess.Noise())); err != nil {
			return nil, err
		}
		build = append(build, ms(time.Since(t0)))
	}
	res.setMedian("client.decode_ms_p50", decode, 1)
	res.setMedian("report.build_json_ms", build, 1)
	appends, err := walFloor(filepath.Join(h.workDir, "floor.wal"))
	if err != nil {
		return nil, err
	}
	res.setMedian("wal.append_ms_p50", appends, 1)
	return res, nil
}

// walFloor times fsynced appends of a padding-record-sized payload with
// the repo's own wal.Writer on the filesystem the server journals to: the
// disk's share of every acknowledged write.
func walFloor(path string) ([]float64, error) {
	w, err := wal.OpenWriter(path, wal.Hooks{})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	payload := bytes.Repeat([]byte("x"), 256)
	var out []float64
	for i := 0; i < 40; i++ {
		t0 := time.Now()
		if err := w.Append(payload); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(t0)))
	}
	return out, nil
}
