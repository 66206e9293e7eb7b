package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/liberty"
	"repro/internal/report"
	"repro/internal/shard"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestReplyCacheMatchesFullEncode is the reply cache's property. A reply
// copies every net whose record kept its version out of the session's last
// reply; whatever ran in between, each body must be the reply encoded from
// scratch, and json.Marshal's over the AnalyzeResponse it stands for, byte
// for byte. A seeded random sequence drives one session of a bus and of a
// fabric through reanalyzes (growing, repeated and unknown pads, delay on
// and off), analyzes, the analyze and iterate arms of the job executor, a
// net that starts to fail its preparation (degraded in the next round that
// re-prepares it), an engine broken mid-round and rebuilt, and GET report,
// while a reader polls GET report, whose every body must be one of the
// replies'.
func TestReplyCacheMatchesFullEncode(t *testing.T) {
	designs := []struct {
		name string
		gen  func() (*workload.Generated, error)
	}{
		{"bus", func() (*workload.Generated, error) {
			return workload.Bus(workload.BusSpec{Bits: 12, Segs: 2, CoupleC: 30 * units.Femto, GroundC: 1 * units.Femto})
		}},
		{"fabric", func() (*workload.Generated, error) {
			return workload.Fabric(workload.FabricSpec{Width: 8, Levels: 6, CouplingDensity: 3, CoupleC: 12 * units.Femto, Seed: 1})
		}},
	}
	const seeds, steps = 3, 40
	var cached, degradedAfter, rebuilt int
	for _, d := range designs {
		g, err := d.gen()
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= seeds; seed++ {
			c, dg, rb := replyCacheRun(t, fmt.Sprintf("%s/seed=%d", d.name, seed), g, seed, steps)
			cached, degradedAfter, rebuilt = cached+c, degradedAfter+dg, rebuilt+rb
		}
	}
	// The property is only as good as what it reached: replies that could
	// copy, a net degraded after a reply had encoded it healthy, and
	// engines rebuilt after a break.
	t.Logf("%d replies over the previous reply's result, %d degraded a net it held healthy, %d rebuilt a broken engine", cached, degradedAfter, rebuilt)
	if cached < seeds*steps/2 || degradedAfter == 0 || rebuilt == 0 {
		t.Fatal("coverage lost")
	}
}

// replyCacheRun is one seeded sequence on a fresh server. It returns how
// many replies encoded the same result as the reply before them (the ones
// that may copy), how many of those degraded a net the reply before them
// held healthy, and how many rebuilt an engine a break had left.
func replyCacheRun(t *testing.T, what string, g *workload.Generated, seed int64, steps int) (cached, degradedAfter, rebuilt int) {
	rng := rand.New(rand.NewSource(seed))
	var faults atomic.Pointer[chaos.RuntimeFaults]
	var cancelOnPrepare atomic.Pointer[context.CancelFunc]
	prepare := func(_, net string) error {
		if cancel := cancelOnPrepare.Swap(nil); cancel != nil {
			(*cancel)()
		}
		if f := faults.Load(); f != nil {
			return f.Fire(net)
		}
		return nil
	}
	s, ts := newTestServer(t, Config{Faults: &Faults{Prepare: prepare}})
	const name = "s"
	if resp, data := do(t, "POST", ts.URL+"/v1/sessions", payload(t, name, g, shard.OptionsSpec{})); resp.StatusCode != http.StatusCreated {
		t.Fatalf("%s: create: %d: %s", what, resp.StatusCode, data)
	}

	// The reader: every body GET report serves is kept, and checked
	// against the replies at the end.
	var mu sync.Mutex
	served, replies := map[string]bool{}, map[string]bool{}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if body, err := fetch("GET", ts.URL+"/v1/sessions/"+name+"/report", nil); err == nil {
				mu.Lock()
				served[string(body)] = true
				mu.Unlock()
			}
		}
	}()

	var nets []string // the design's net names, known after the first reply
	broken := false
	var last []byte
	var lastNoise *core.Result
	lastDegraded := map[string]bool{}
	pads := map[string]float64{}
	// reply runs one analysis through sessionWork, as a handler or the job
	// executor does, and holds its body to the uncached encode of the
	// answer it made.
	reply := func(op string, ctx context.Context, work func(context.Context, *session) (*answer, error)) {
		var got *answer
		body, _, err := s.sessionWork(ctx, name, nil, func(ctx context.Context, ss *session) (*answer, error) {
			a, err := work(ctx, ss)
			got = a
			return a, err
		})
		if err != nil {
			if op == "break" {
				broken = true
				return
			}
			t.Fatalf("%s: %s: %v", what, op, err)
		}
		if broken && got.rebuilt {
			rebuilt++
		}
		broken = false
		ref := *got
		ref.prev, ref.spans = nil, nil
		want, err := ref.encode(nil, name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("%s: %s: reply (%d bytes) differs from the uncached encode (%d bytes) at byte %d",
				what, op, len(body), len(want), commonPrefix(body, want))
		}
		resp := AnalyzeResponse{Session: name, Noise: report.BuildJSON(got.noise), ChangedNets: got.changedNets, Rebuilt: got.rebuilt, Iterate: got.iterate}
		if got.delay != nil {
			resp.Delay = report.BuildDelayJSON(got.delay)
		}
		if wantM, err := json.Marshal(resp); err != nil || !bytes.Equal(body, wantM) {
			t.Fatalf("%s: %s: reply differs from json.Marshal(AnalyzeResponse) (%v)", what, op, err)
		}
		degraded := map[string]bool{}
		for _, dg := range got.noise.Diags {
			if dg.Degraded {
				degraded[dg.Net] = true
			}
		}
		if got.noise == lastNoise {
			cached++
			for net := range degraded {
				if !lastDegraded[net] {
					degradedAfter++
				}
			}
		}
		if nets == nil {
			for net := range got.noise.Nets {
				nets = append(nets, net)
			}
			slices.Sort(nets)
		}
		last, lastNoise, lastDegraded = body, got.noise, degraded
		mu.Lock()
		replies[string(body)] = true
		mu.Unlock()
	}
	padding := func() map[string]float64 {
		p := map[string]float64{}
		for range 1 + rng.Intn(3) {
			net := fmt.Sprintf("ghost%d", rng.Intn(3))
			if rng.Intn(6) > 0 {
				net = nets[rng.Intn(len(nets))]
			}
			if rng.Intn(3) > 0 { // grow; otherwise repeat what it has
				pads[net] += float64(1+rng.Intn(4)) * units.Pico
			}
			p[net] = pads[net]
		}
		return p
	}
	ctx := context.Background()
	reply("analyze", ctx, func(ctx context.Context, ss *session) (*answer, error) { return s.analyzeWork(ctx, ss, false) })
	for step := range steps {
		op, delay := rng.Intn(20), rng.Intn(2) == 0
		switch {
		case op < 10:
			p := padding()
			reply(fmt.Sprintf("step %d reanalyze %v delay=%v", step, p, delay), ctx, func(ctx context.Context, ss *session) (*answer, error) {
				return s.reanalyzeWork(ctx, ss, p, delay)
			})
		case op < 12:
			reply(fmt.Sprintf("step %d analyze delay=%v", step, delay), ctx, func(ctx context.Context, ss *session) (*answer, error) {
				return s.analyzeWork(ctx, ss, delay)
			})
		case op < 13:
			reply(fmt.Sprintf("step %d iterate job delay=%v", step, delay), ctx, func(ctx context.Context, ss *session) (*answer, error) {
				return s.iterate(ctx, ss, fmt.Sprintf("job-%06d", step), &jobs.Spec{Session: name, Type: "iterate", Delay: delay, MaxRounds: 3, Local: true}, nil)
			})
		case op < 14:
			// From now on preparing this net fails, and padding one of its
			// aggressors re-prepares it: the round pins it at the
			// full-rail fallback.
			net := nets[rng.Intn(len(nets))]
			faults.Store(&chaos.RuntimeFaults{Panic: []string{net}})
			p := map[string]float64{}
			for _, ev := range lastNoise.Nets[net].Events[rng.Intn(2)] {
				if _, known := lastNoise.Nets[ev.Source]; known && len(p) == 0 {
					pads[ev.Source] += units.Pico
					p[ev.Source] = pads[ev.Source]
				}
			}
			reply(fmt.Sprintf("step %d degrade %s, reanalyze %v", step, net, p), ctx, func(ctx context.Context, ss *session) (*answer, error) {
				return s.reanalyzeWork(ctx, ss, p, delay)
			})
		case op < 15:
			// Cancelled at its first preparation, the round breaks the
			// engine; the next analysis rebuilds it.
			bctx, cancel := context.WithCancel(ctx)
			cancelOnPrepare.Store(&cancel)
			p := padding()
			reply("break", bctx, func(ctx context.Context, ss *session) (*answer, error) { return s.reanalyzeWork(ctx, ss, p, delay) })
			cancelOnPrepare.Store(nil)
			cancel()
		default:
			body, err := fetch("GET", ts.URL+"/v1/sessions/"+name+"/report", nil)
			if err != nil || !bytes.Equal(body, last) {
				t.Fatalf("%s: step %d: GET report is not the last reply (%d bytes, want %d): %v", what, step, len(body), len(last), err)
			}
		}
	}
	close(stop)
	reader.Wait()
	for body := range served {
		if !replies[body] {
			t.Fatalf("%s: GET report served a body (%d bytes) no reply returned", what, len(body))
		}
	}
	return cached, degradedAfter, rebuilt
}

// commonPrefix is the length of the bytes a and b start with alike.
func commonPrefix(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// BenchmarkReanalyzeReply is the reply phase of a reanalyze on the 64-bit,
// two-segment bus of the service benchmark: the body encoded from scratch
// ("uncached"), and copied from the last reply wherever a record kept its
// version ("cached"). Each iteration first pads one more net, off the
// clock, so the reply has the few moved nets a reanalyze leaves.
func BenchmarkReanalyzeReply(b *testing.B) {
	g, err := workload.Bus(workload.BusSpec{Bits: 64, Segs: 2, WindowSep: 25 * units.Pico, WindowWidth: 100 * units.Pico})
	if err != nil {
		b.Fatal(err)
	}
	d, err := g.Bind(liberty.Generic())
	if err != nil {
		b.Fatal(err)
	}
	for _, cached := range []bool{false, true} {
		b.Run(map[bool]string{false: "uncached", true: "cached"}[cached], func(b *testing.B) {
			sess, err := core.NewSession(context.Background(), d, core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions(), FailSoft: true})
			if err != nil {
				b.Fatal(err)
			}
			var last []byte
			var spans report.Spans
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				res, changed, err := sess.Reanalyze(context.Background(), map[string]float64{fmt.Sprintf("b%d", (i*7)%64): float64(i+1) * 1e-14})
				if err != nil || changed != 1 {
					b.Fatalf("reanalyze: %d changed, %v", changed, err)
				}
				a := &answer{noise: res, changedNets: changed}
				if cached {
					a.prev, a.spans = last, &spans
				}
				b.StartTimer()
				if last, err = a.encode(make([]byte, 0, len(last)+len(last)/8), "bus64"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(last))/1024, "KB/reply")
		})
	}
}
