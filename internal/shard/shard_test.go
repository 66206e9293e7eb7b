package shard

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bind"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/liberty"
	"repro/internal/report"
	"repro/internal/units"
	"repro/internal/workload"
)

// fixtureMaker regenerates one workload fixture from scratch. Workers
// build their (shared, immutable-after-bind) design lazily from a
// closure, not a value, mirroring a remote worker parsing its own copy:
// the generators are deterministic, so every call yields an identical
// design.
type fixtureMaker func() (*workload.Generated, error)

// fixtures covers every topology class the generators offer: bus
// coupling, multi-level fabric propagation, iterative-loop ladders,
// window-rich stars, and correlated differential pairs. The default
// fabric's 1.5 fF couplings propagate nothing through a gate; hotfabric is
// the one design here where glitches cross shard boundaries, and where a
// padding round widens a fanin's window while its peak holds.
func fixtures() map[string]fixtureMaker {
	return map[string]fixtureMaker{
		"hotfabric": func() (*workload.Generated, error) {
			return workload.Fabric(workload.FabricSpec{
				Width: 40, Levels: 10, CouplingDensity: 3, CoupleC: 12 * units.Femto,
				GroundC: 4 * units.Femto, SegRes: 60, Seed: 1,
			})
		},
		"bus": func() (*workload.Generated, error) {
			return workload.Bus(workload.BusSpec{Bits: 8, Segs: 2, WindowWidth: 80 * units.Pico})
		},
		"fabric": func() (*workload.Generated, error) {
			return workload.Fabric(workload.FabricSpec{Width: 6, Levels: 3})
		},
		"ladder": func() (*workload.Generated, error) {
			return workload.Ladder(workload.LadderSpec{Lines: 12, Steps: 3})
		},
		"star": func() (*workload.Generated, error) {
			return workload.Star(workload.StarSpec{Windows: []interval.Window{
				interval.New(0, 100*units.Pico),
				interval.New(50*units.Pico, 150*units.Pico),
				interval.New(120*units.Pico, 200*units.Pico),
			}})
		},
		"differential": func() (*workload.Generated, error) {
			return workload.Differential(workload.DifferentialSpec{Pairs: 3})
		},
	}
}

func bindFixture(t testing.TB, mk fixtureMaker) (*bind.Design, core.Options) {
	t.Helper()
	g, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Bind(liberty.Generic())
	if err != nil {
		t.Fatal(err)
	}
	return b, core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions()}
}

// buildFrom adapts a fixture maker into the per-engine design builder an
// in-process worker wants.
func buildFrom(mk fixtureMaker) BuildDesign {
	return func(ctx context.Context) (*bind.Design, error) {
		g, err := mk()
		if err != nil {
			return nil, err
		}
		return g.Bind(liberty.Generic())
	}
}

func inprocWorkers(mk fixtureMaker, opts core.Options, n int) []Worker {
	ws := make([]Worker, n)
	for i := range ws {
		ws[i] = NewInProc(fmt.Sprintf("w%d", i), buildFrom(mk), opts)
	}
	return ws
}

// reportBytes serializes the noise and delay results the way snad exports
// them — the byte-identity oracle compares these, not internal structs.
func reportBytes(t *testing.T, noise *core.Result, delay *core.DelayResult) ([]byte, []byte) {
	t.Helper()
	var nb, db bytes.Buffer
	if err := report.WriteJSON(&nb, noise); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteDelayJSON(&db, delay); err != nil {
		t.Fatal(err)
	}
	return nb.Bytes(), db.Bytes()
}

func TestPartitionDeterministicAndComplete(t *testing.T) {
	b, _ := bindFixture(t, fixtures()["fabric"])
	plan, err := core.BuildShardPlan(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 3, 5} {
		a1, err := Partition(plan, shards, 42)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := Partition(plan, shards, 42)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a1, a2) {
			t.Fatalf("partition with %d shards not deterministic", shards)
		}
		// Exact cover: every net owned exactly once.
		seen := make(map[string]int)
		for s, owned := range a1.Owned {
			for _, p := range owned {
				net := plan.Order[p]
				if _, dup := seen[net]; dup {
					t.Fatalf("net %s owned twice", net)
				}
				if int(a1.Owner[p]) != s {
					t.Fatalf("net %s listed under shard %d, owner says %d", net, s, a1.Owner[p])
				}
				seen[net] = s
			}
		}
		if len(seen) != len(plan.Order) {
			t.Fatalf("%d shards: %d nets assigned, want %d", shards, len(seen), len(plan.Order))
		}
		for _, w := range plan.Waves {
			for p := w.Lo; w.Serial && p < w.Hi; p++ {
				if a1.Owner[p] != 0 {
					t.Fatalf("feedback net %s not pinned to shard 0", plan.Order[p])
				}
			}
		}
		// Imports are exactly the cross-shard fanins, by name as by position.
		for s, imports := range a1.Imports {
			if len(imports) != len(a1.imports[s]) {
				t.Fatalf("shard %d: %d imports by name, %d by position", s, len(imports), len(a1.imports[s]))
			}
			for i, net := range imports {
				if seen[net] == s {
					t.Fatalf("shard %d imports net %s it owns", s, net)
				}
				if plan.Order[a1.imports[s][i]] != net {
					t.Fatalf("shard %d import %d is %s by name, %s by position", s, i, net, plan.Order[a1.imports[s][i]])
				}
			}
		}
	}
	// Different seeds may differ, but both must still cover.
	a3, err := Partition(plan, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, owned := range a3.Owned {
		n += len(owned)
	}
	if n != len(plan.Order) {
		t.Fatalf("seed 7: %d nets assigned, want %d", n, len(plan.Order))
	}

	// The assignment itself is pinned, to what the name-keyed partitioner
	// (free list and adjacency lists sorted by name) produced before nets
	// were keyed by position: the digests below were taken at that commit.
	// shard.boundary_nets and the dispatch counts of every sharded run hang
	// on it.
	pinned := map[string]string{
		"bus seed=0 shards=2": "1369d01fd356cce7", "bus seed=0 shards=3": "f0e7121a2beab71e",
		"bus seed=0 shards=4": "d2991001c03b6861", "bus seed=0 shards=5": "5eb1eef3e3bf6278",
		"bus seed=42 shards=2": "e5a54d71bfd1b7c2", "bus seed=42 shards=3": "955fd1d71ebcfa1f",
		"bus seed=42 shards=4": "e56891e1226bb3be", "bus seed=42 shards=5": "cce041f5cf72b618",
		"hotfabric seed=0 shards=2": "4b80e536d566e76d", "hotfabric seed=0 shards=3": "a971ecaa1494bc2a",
		"hotfabric seed=0 shards=4": "d8049898c612766f", "hotfabric seed=0 shards=5": "b31d91ee641eea01",
		"hotfabric seed=42 shards=2": "a66fc5fd4e55bf7e", "hotfabric seed=42 shards=3": "6945ae9b25f33ea4",
		"hotfabric seed=42 shards=4": "aa0b86e9b00d9091", "hotfabric seed=42 shards=5": "faec43611e40a538",
	}
	for _, name := range []string{"bus", "hotfabric"} {
		b, _ := bindFixture(t, fixtures()[name])
		plan, err := core.BuildShardPlan(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{0, 42} {
			for shards := 2; shards <= 5; shards++ {
				asn, err := Partition(plan, shards, seed)
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s seed=%d shards=%d", name, seed, shards)
				if got := ownerDigest(plan, asn); got != pinned[key] {
					t.Errorf("%s: owner digest %s, want %s: the assignment moved", key, got, pinned[key])
				}
			}
		}
	}
}

// ownerDigest hashes "name=shard" lines in alphabetical net order.
func ownerDigest(plan *core.ShardPlan, asn *Assignment) string {
	byName := make([]int, len(plan.Rank))
	for p, rank := range plan.Rank {
		byName[rank] = p
	}
	h := sha256.New()
	for _, p := range byName {
		fmt.Fprintf(h, "%s=%d\n", plan.Order[p], asn.Owner[p])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// allNets is the owned list of an engine that owns the whole plan.
func allNets(plan *core.ShardPlan) []int32 {
	all := make([]int32, len(plan.Order))
	for p := range all {
		all[p] = int32(p)
	}
	return all
}

// TestDistributedMatchesSerial is the tentpole oracle: a healthy
// distributed run over in-process workers must produce byte-identical
// report JSON to single-process AnalyzeIterative, on every fixture, at
// several shard counts.
func TestDistributedMatchesSerial(t *testing.T) {
	for name, mk := range fixtures() {
		b, opts := bindFixture(t, mk)
		want, err := core.AnalyzeIterativeCtx(context.Background(), b, opts, 0)
		if err != nil {
			t.Fatalf("%s: serial: %v", name, err)
		}
		wantNoise, wantDelay := reportBytes(t, want.Noise, want.Delay)
		for _, shards := range []int{1, 2, 3, 4} {
			got, err := Run(context.Background(), Config{
				B:       b,
				Opts:    opts,
				Workers: inprocWorkers(mk, opts, 3),
				Shards:  shards,
				Token:   fmt.Sprintf("%s-%d", name, shards),
			})
			if err != nil {
				t.Fatalf("%s/%d shards: distributed: %v", name, shards, err)
			}
			gotNoise, gotDelay := reportBytes(t, got.Noise, got.Delay)
			if !bytes.Equal(gotNoise, wantNoise) {
				t.Errorf("%s/%d shards: noise report differs from single-process\ngot:  %.600s\nwant: %.600s",
					name, shards, gotNoise, wantNoise)
			}
			if !bytes.Equal(gotDelay, wantDelay) {
				t.Errorf("%s/%d shards: delay report differs from single-process\ngot:  %.600s\nwant: %.600s",
					name, shards, gotDelay, wantDelay)
			}
			if got.Noise.Stats != want.Noise.Stats {
				t.Errorf("%s/%d shards: stats %+v != single-process %+v", name, shards, got.Noise.Stats, want.Noise.Stats)
			}
			if got.Rounds != want.Rounds || got.Converged != want.Converged ||
				got.Diverging != want.Diverging || got.DivergeReason != want.DivergeReason {
				t.Errorf("%s/%d shards: loop outcome (%d,%v,%v,%q) != serial (%d,%v,%v,%q)",
					name, shards, got.Rounds, got.Converged, got.Diverging, got.DivergeReason,
					want.Rounds, want.Converged, want.Diverging, want.DivergeReason)
			}
			if len(got.Padding) != len(want.Padding) {
				t.Errorf("%s/%d shards: %d padded nets != %d", name, shards, len(got.Padding), len(want.Padding))
			}
			for net, pad := range want.Padding {
				if got.Padding[net] != pad {
					t.Errorf("%s/%d shards: padding[%s]=%g != %g", name, shards, net, got.Padding[net], pad)
				}
			}
		}
	}
}

// TestWorkerFaultsStaySound drives the coordinator through the whole
// injected-fault matrix, twice: 3 shards on 3 workers, and 4 shards on 2
// (the "cohosted-" cases), where every worker hosts two shards that share one
// timing and a re-hosted shard joins a worker already hosting two. Every run
// must terminate with a sound report: never an error, and never a net
// reported less noisy than the single-process truth (degradation may only
// add pessimism).
func TestWorkerFaultsStaySound(t *testing.T) {
	// bus is quick and couples only; hotfabric is where glitches propagate
	// across shard boundaries, so "never less noisy" has something to lose.
	for _, name := range []string{"bus", "hotfabric"} {
		t.Run(name, func(t *testing.T) { workerFaultsStaySound(t, fixtures()[name]) })
	}
}

func workerFaultsStaySound(t *testing.T, mk fixtureMaker) {
	b, opts := bindFixture(t, mk)
	want, err := core.AnalyzeIterativeCtx(context.Background(), b, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantNoise, wantDelay := reportBytes(t, want.Noise, want.Delay)

	specs := []string{
		"drop:eval",
		"drop:round",
		"delay:eval:2",
		"error:init",
		"error:eval",
		"error:collect",
		"partial:eval",
		"partial:round",
		"kill:eval:2",
		"kill:round",
		"kill:delay",
		"kill:init",
		"error:eval:*,error:round:*,error:delay:*,error:collect:*,error:init:*",
	}
	for _, layout := range []struct {
		prefix          string
		workers, shards int
	}{{"", 3, 3}, {"cohosted-", 2, 4}} {
		for _, spec := range specs {
			t.Run(layout.prefix+spec, func(t *testing.T) {
				faultsStaySound(t, b, mk, opts, spec, layout.workers, layout.shards, want, wantNoise, wantDelay)
			})
		}
	}

	// One shard of a two-shard request fails while its neighbour's answer is
	// good: the neighbour's answer is kept, the failed shard alone walks the
	// ladder as a request of one, and the run stays byte-identical.
	for _, c := range []struct {
		name, op  string
		kind      byte
		reassigns int
	}{
		// A padding update that died halfway: rebuilt in place, once.
		{"one-shard-broken", OpRound, faultBroken, 1},
		// The shard's answer was lost: the eval memo replays it, nothing is rebuilt.
		{"one-shard-partial", OpEval, faultTransient, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			workers := inprocWorkers(mk, opts, 2)
			hit := &oneShardFault{InProc: workers[1].(*InProc), op: c.op, kind: c.kind, victim: -1}
			workers[1] = hit
			got, err := Run(context.Background(), Config{B: b, Opts: opts, Workers: workers, Shards: 4, Token: c.name})
			if err != nil {
				t.Fatal(err)
			}
			if hit.victim < 0 {
				t.Fatalf("no two-shard %s request reached the worker", c.op)
			}
			if got.Reassigns != c.reassigns || got.Degraded {
				t.Errorf("reassigns=%d degraded=%v, want %d and false", got.Reassigns, got.Degraded, c.reassigns)
			}
			if want := [][]int{{hit.victim}}[:c.reassigns]; fmt.Sprint(hit.reinits) != fmt.Sprint(want) {
				t.Errorf("re-initialised %v after the fault, want %v", hit.reinits, want)
			}
			gotNoise, gotDelay := reportBytes(t, got.Noise, got.Delay)
			if !bytes.Equal(gotNoise, wantNoise) || !bytes.Equal(gotDelay, wantDelay) {
				t.Errorf("run differs from single-process report")
			}
		})
	}
}

// faultsStaySound runs one fault spec on worker 1 of n workers hosting the
// given number of shards and holds the run to soundness: every net reported
// and none less noisy than single-process, an abandoned shard recorded, a
// recovered run byte-identical.
func faultsStaySound(t *testing.T, b *bind.Design, mk fixtureMaker, opts core.Options, spec string, n, shards int,
	want *core.IterativeResult, wantNoise, wantDelay []byte) {
	faults, err := chaos.ParseWorkerFaults(spec)
	if err != nil {
		t.Fatal(err)
	}
	workers := inprocWorkers(mk, opts, n)
	workers[1] = chaos.NewFaultyWorker(workers[1], faults)
	got, err := Run(context.Background(), Config{
		B:               b,
		Opts:            opts,
		Workers:         workers,
		Shards:          shards,
		Token:           "chaos",
		DispatchTimeout: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("run failed under %q (must degrade, not fail): %v", spec, err)
	}
	if len(got.Noise.Nets) != len(want.Noise.Nets) {
		t.Fatalf("%d nets reported, want %d", len(got.Noise.Nets), len(want.Noise.Nets))
	}
	for net, wn := range want.Noise.Nets {
		gn := got.Noise.Nets[net]
		if gn == nil {
			t.Fatalf("net %s missing from degraded report", net)
		}
		if gn.WorstPeak()+1e-12 < wn.WorstPeak() {
			t.Errorf("net %s peak %g below single-process %g — degraded run lost pessimism",
				net, gn.WorstPeak(), wn.WorstPeak())
		}
	}
	if len(got.AbandonedShards) > 0 {
		if !got.Degraded || len(got.Noise.Diags) == 0 {
			t.Fatalf("abandoned shards %v but no degradation recorded", got.AbandonedShards)
		}
		if got.Noise.Stats.DegradedNets != len(got.Noise.Diags) {
			t.Errorf("DegradedNets %d != %d diags", got.Noise.Stats.DegradedNets, len(got.Noise.Diags))
		}
	} else if !got.Degraded {
		// Fully recovered (retries or re-hosting absorbed the fault):
		// the report must be byte-identical to single-process.
		gotNoise, gotDelay := reportBytes(t, got.Noise, got.Delay)
		if !bytes.Equal(gotNoise, wantNoise) || !bytes.Equal(gotDelay, wantDelay) {
			t.Errorf("recovered run differs from single-process report")
		}
	}
}

// oneShardFault fails the second shard of the first two-shard request of op
// it sees, after the op ran: the shard's answer becomes a fault of the given
// kind, and for a broken fault its engine really is left broken. It records
// the shards of every init that follows.
type oneShardFault struct {
	*InProc
	op      string
	kind    byte
	victim  int
	reinits [][]int
}

func (w *oneShardFault) Do(ctx context.Context, op string, req, resp any) error {
	err := w.InProc.Do(ctx, op, req, resp)
	if op == OpClose {
		return err
	}
	at := req.(request).route()
	switch {
	case w.victim >= 0 && op == OpInit:
		w.reinits = append(w.reinits, at.Shards)
	case w.victim < 0 && op == w.op && len(at.Shards) == 2 && err == nil:
		w.victim = at.Shards[1]
		rep := resp.(*Reply)
		rep.Faults[1] = Fault{Kind: w.kind, Msg: "injected"}
		if rep.Evals != nil {
			rep.Evals[1] = EvalResult{}
		}
		if w.kind == faultBroken {
			w.host.mu.Lock()
			r := w.host.runners[slot{at.Token, w.victim}]
			w.host.mu.Unlock()
			r.mu.Lock()
			r.broken = errors.New("injected half-applied round")
			r.mu.Unlock()
		}
	}
	return err
}

// TestAllWorkersLost pins the worst case: every worker dies, every shard
// degrades, and the run still terminates with the conservative full-rail
// report rather than an error.
func TestAllWorkersLost(t *testing.T) {
	mk := fixtures()["star"]
	b, opts := bindFixture(t, mk)
	faults, err := chaos.ParseWorkerFaults("kill:eval")
	if err != nil {
		t.Fatal(err)
	}
	faults2, err := chaos.ParseWorkerFaults("kill:eval")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), Config{
		B:    b,
		Opts: opts,
		Workers: []Worker{
			chaos.NewFaultyWorker(NewInProc("w0", buildFrom(mk), opts), faults),
			chaos.NewFaultyWorker(NewInProc("w1", buildFrom(mk), opts), faults2),
		},
		Shards: 2,
		Token:  "doom",
	})
	if err != nil {
		t.Fatalf("total worker loss must degrade, not fail: %v", err)
	}
	if !got.Degraded || len(got.AbandonedShards) == 0 {
		t.Fatalf("expected a degraded outcome, got %+v", got)
	}
	vdd := b.Lib.Vdd
	for net, nn := range got.Noise.Nets {
		if nn.WorstPeak() != vdd {
			t.Errorf("net %s peak %g, want full-rail %g", net, nn.WorstPeak(), vdd)
		}
	}
	if got.Noise.Stats.DegradedNets != len(got.Noise.Nets) {
		t.Errorf("DegradedNets %d, want %d", got.Noise.Stats.DegradedNets, len(got.Noise.Nets))
	}
}

// TestCheckpointResume starts a distributed run from Config.Resume, the
// state a run's AfterRound saw after round 1, and verifies it lands on the
// serial fixpoint: same padding, rounds, violations, and per-net
// combinations (execution statistics legitimately differ — fresh engines
// re-evaluate more than persistent ones). Its AfterRound sees the rounds
// the uninterrupted run's saw after round 1, with the same state.
func TestCheckpointResume(t *testing.T) {
	mk := fixtures()["hotfabric"]
	b, opts := bindFixture(t, mk)
	var seen []core.RoundState
	keep := func(st core.RoundState) {
		st.Padding = slices.Clone(st.Padding)
		seen = append(seen, st)
	}
	full, err := RunLocal(context.Background(), Config{B: b, Opts: opts, AfterRound: keep})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) < 2 {
		t.Fatalf("fixture saves state after %d of %d rounds; the test needs >= 2", len(seen), full.Rounds)
	}
	fullSeen := seen
	seen = nil
	got, err := Run(context.Background(), Config{
		B:          b,
		Opts:       opts,
		Workers:    inprocWorkers(mk, opts, 2),
		Shards:     2,
		Token:      "resume",
		Resume:     fullSeen[0],
		AfterRound: keep,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != full.Rounds || got.Converged != full.Converged {
		t.Fatalf("resumed run ended (%d,%v), serial (%d,%v)", got.Rounds, got.Converged, full.Rounds, full.Converged)
	}
	if !reflect.DeepEqual(seen, fullSeen[1:]) {
		t.Errorf("the resumed run saw %+v after its rounds, the uninterrupted run %+v after round 1", seen, fullSeen[1:])
	}
	if len(got.Padding) != len(full.Padding) {
		t.Fatalf("resumed padding has %d nets, serial %d", len(got.Padding), len(full.Padding))
	}
	for net, pad := range full.Padding {
		if math.Abs(got.Padding[net]-pad) > 0 {
			t.Errorf("padding[%s]=%g != %g", net, got.Padding[net], pad)
		}
	}
	// Result content (not execution stats) must match the serial fixpoint.
	got.Noise.Stats = core.Stats{}
	want := *full.Noise
	want.Stats = core.Stats{}
	gotNoise, gotDelay := reportBytes(t, got.Noise, got.Delay)
	wantNoise, wantDelay := reportBytes(t, &want, full.Delay)
	if !bytes.Equal(gotNoise, wantNoise) {
		t.Errorf("resumed noise report differs from serial fixpoint")
	}
	if !bytes.Equal(gotDelay, wantDelay) {
		t.Errorf("resumed delay report differs from serial fixpoint")
	}
}

// sameEval compares two eval results bit for bit, through their wire form:
// reflect.DeepEqual would call two NaN At instants different.
func sameEval(t *testing.T, a, b EvalResult) bool {
	t.Helper()
	var frames [2][]byte
	for i, res := range []EvalResult{a, b} {
		var err error
		if frames[i], err = Marshal(&Reply{Faults: make([]Fault, 1), Evals: []EvalResult{res}}); err != nil {
			t.Fatal(err)
		}
	}
	return bytes.Equal(frames[0], frames[1])
}

// TestRunnerEvalMemo pins the retry-exactness contract: re-dispatching an
// eval Seq replays the accumulated updates instead of losing them.
func TestRunnerEvalMemo(t *testing.T) {
	b, opts := bindFixture(t, fixtures()["star"])
	plan, err := core.BuildShardPlan(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	eng, err := core.NewShardEngine(ctx, core.NewShardTiming(b, opts, nil), plan.ID, allNets(plan), nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Find a wave that actually commits something on the first pass.
	var first EvalResult
	wave, seq := -1, 0
	for w := range plan.Waves {
		seq++
		out, err := r.Eval(ctx, seq, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out.Changed {
			first, wave = out, w
			break
		}
	}
	if wave < 0 {
		t.Fatal("no wave committed anything; fixture too quiet for this test")
	}
	replay, err := r.Eval(ctx, seq, wave, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Updates) == 0 {
		t.Fatal("a wave that moved the pass forwarded nothing")
	}
	if !sameEval(t, first, replay) {
		t.Fatal("duplicate Seq did not replay the memoized updates and changed bit")
	}
	// An attempt that committed and then died before finishing the wave
	// leaves the memo open: the retry re-evaluates, finds everything equal,
	// and must still answer with what the dead attempt committed — the
	// updates and the changed bit alike.
	r.mu.Lock()
	r.evalDone = false
	r.mu.Unlock()
	retry, err := r.Eval(ctx, seq, wave, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEval(t, first, retry) {
		t.Fatalf("retry after an aborted attempt lost commits: changed=%v, %d updates; want changed=true, %d",
			retry.Changed, len(retry.Updates), len(first.Updates))
	}
	// A new Seq re-evaluates: at the fixpoint nothing changes, so the
	// response is empty rather than a replay.
	fresh, err := r.Eval(ctx, seq+1, wave, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Updates) != 0 || fresh.Changed {
		t.Fatalf("fresh Seq at fixpoint: %d updates, changed=%v; want none", len(fresh.Updates), fresh.Changed)
	}
}

// hostWorker is a bare Host behind the Worker interface — what snad's shard
// endpoint is behind HTTP — whose runners and designs a test can see.
type hostWorker struct {
	h      *Host
	before func(op string)
}

func (w hostWorker) Name() string                   { return "host" }
func (w hostWorker) Ping(ctx context.Context) error { return ctx.Err() }
func (w hostWorker) Do(ctx context.Context, op string, req, resp any) error {
	w.before(op)
	rep, _ := resp.(*Reply)
	return w.h.Do(ctx, req, rep)
}

// TestHostHoldsOneDesignPerToken: racing first inits of a token each ask
// the source — it lets none return until all have asked — one design is
// kept and every loser's copy is released at once; a token's close
// releases the kept one, and no other token's.
func TestHostHoldsOneDesignPerToken(t *testing.T) {
	const inits = 16
	b, opts := bindFixture(t, fixtures()["bus"])
	var held atomic.Int64
	var asked sync.WaitGroup
	asked.Add(inits)
	host := NewHost(func(context.Context, *DesignSpec) (*bind.Design, core.Options, func(), error) {
		asked.Done()
		asked.Wait()
		held.Add(1)
		return b, opts, func() { held.Add(-1) }, nil
	})
	var wg sync.WaitGroup
	for i := 0; i < inits; i++ {
		wg.Add(1)
		go func(token string) {
			defer wg.Done()
			if err := host.Do(context.Background(), &InitRequest{Route: Route{Token: token}}, &Reply{}); err != nil {
				t.Error(err)
			}
		}([]string{"a", "b"}[i%2])
	}
	wg.Wait()
	for _, step := range []struct {
		what  string
		close func()
		want  int64
	}{
		{"racing inits of a and b", func() {}, 2},
		{"closing a", func() { host.Do(context.Background(), &CloseRequest{Route{Token: "a"}}, nil) }, 1},
		{"CloseAll", host.CloseAll, 0},
	} {
		step.close()
		if got := held.Load(); got != step.want {
			t.Errorf("after %s: %d design(s) held, want %d", step.what, got, step.want)
		}
	}
}

// TestRunReleasesWorkersOnEveryExit: a run that fails or is cancelled must
// close its engines and release its token's design exactly as a finished one
// does — a job iterate's token is unique, so nothing else ever would.
func TestRunReleasesWorkersOnEveryExit(t *testing.T) {
	b, opts := bindFixture(t, fixtures()["bus"])
	for _, cancelAtEval := range []int{3, 0} {
		drops := 0
		host := NewHost(func(context.Context, *DesignSpec) (*bind.Design, core.Options, func(), error) {
			return b, opts, func() { drops++ }, nil
		})
		ctx, cancel := context.WithCancel(context.Background())
		evals := 0
		w := hostWorker{h: host, before: func(op string) {
			if op == OpEval {
				if evals++; evals == cancelAtEval {
					cancel() // mid-pass: engines built, waves under way
				}
			}
		}}
		_, err := Run(ctx, Config{B: b, Opts: opts, Workers: []Worker{w}, Shards: 2, Token: "leak"})
		cancel()
		if (err != nil) != (cancelAtEval > 0) {
			t.Fatalf("cancel at eval %d: run returned %v", cancelAtEval, err)
		}
		if n := len(host.runners); n != 0 || drops != 1 {
			t.Errorf("cancel at eval %d: %d runner(s) left on the worker, design released %d time(s); want 0 and 1",
				cancelAtEval, n, drops)
		}
	}
}

// iterateFixture is the benchmark's iterate shape: the hot fabric 120 × 16,
// 2 160 nets, 18 waves, 5 rounds of 2 passes.
func iterateFixture() (*workload.Generated, error) {
	return workload.Fabric(workload.FabricSpec{
		Width: 120, Levels: 16, CouplingDensity: 3, CoupleC: 12 * units.Femto,
		GroundC: 4 * units.Femto, SegRes: 60, Seed: 1,
	})
}

// TestIdleStepsAreNotDispatched: the coordinator sends an eval step only to
// shards that may hold stale nets in its wave. On an acyclic design that is
// the first pass of every round and nothing of the confirming pass: 4 shards
// on one worker made 192 Worker.Do calls before (every wave of every pass),
// 1 init + rounds × waves + 4 rounds + 5 delays + 1 collect + 1 close now.
func TestIdleStepsAreNotDispatched(t *testing.T) {
	b, opts := bindFixture(t, iterateFixture)
	want, err := core.AnalyzeIterativeCtx(context.Background(), b, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	w := hostWorker{h: NewHost(func(context.Context, *DesignSpec) (*bind.Design, core.Options, func(), error) {
		return b, opts, func() {}, nil
	}), before: func(string) { calls++ }}
	got, err := Run(context.Background(), Config{B: b, Opts: opts, Workers: []Worker{w}, Shards: 4, Token: "idle"})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.BuildShardPlan(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if evals, most := got.Dispatches[OpEval].Dispatches, got.Rounds*len(plan.Waves); evals > most {
		t.Errorf("%d eval dispatches over %d rounds of %d waves: a confirming pass was dispatched", evals, got.Rounds, len(plan.Waves))
	}
	if calls > 110 {
		t.Errorf("%d Worker.Do calls, want at most 110", calls)
	}
	gotNoise, gotDelay := reportBytes(t, got.Noise, got.Delay)
	wantNoise, wantDelay := reportBytes(t, want.Noise, want.Delay)
	if !bytes.Equal(gotNoise, wantNoise) || !bytes.Equal(gotDelay, wantDelay) || got.Noise.Stats != want.Noise.Stats {
		t.Errorf("run differs from single-process report")
	}
}

// requireComplete fails unless every net of got carries the events, members
// and member events of the single-process result.
func requireComplete(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	for net, wn := range want.Nets {
		gn := got.Nets[net]
		if gn == nil {
			t.Fatalf("%s: net %s missing", label, net)
		}
		for _, k := range core.Kinds {
			if !reflect.DeepEqual(gn.Events[k], wn.Events[k]) || !reflect.DeepEqual(gn.Comb[k].Members, wn.Comb[k].Members) ||
				!reflect.DeepEqual(gn.Comb[k].MemberEvents, wn.Comb[k].MemberEvents) {
				t.Fatalf("%s: net %s %v was not rebuilt: members %v events %d, want %v and %d",
					label, net, k, gn.Comb[k].Members, len(gn.Events[k]), wn.Comb[k].Members, len(wn.Events[k]))
			}
		}
	}
}

// TestRehostedShardIsComplete kills a worker at evals spread over the rounds
// of a run. A rebuilt engine starts with every owned net stale and holds
// restored combinations that carry no members: it has to be sent every wave
// it owns nets in — the ones the pass is past as warm-up, the ones ahead as
// due — or the collect returns records that were never rebuilt.
func TestRehostedShardIsComplete(t *testing.T) {
	mk := fixtures()["hotfabric"]
	b, opts := bindFixture(t, mk)
	want, err := core.AnalyzeIterativeCtx(context.Background(), b, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantNoise, wantDelay := reportBytes(t, want.Noise, want.Delay)
	for _, at := range []int{2, 9, 14, 25, 33} {
		label := fmt.Sprintf("kill:eval:%d", at)
		faults, err := chaos.ParseWorkerFaults(label)
		if err != nil {
			t.Fatal(err)
		}
		workers := inprocWorkers(mk, opts, 3)
		workers[1] = chaos.NewFaultyWorker(workers[1], faults)
		got, err := Run(context.Background(), Config{B: b, Opts: opts, Workers: workers, Shards: 3, Token: label})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got.Reassigns == 0 || got.Degraded {
			t.Fatalf("%s: reassigns=%d degraded=%v, want a re-hosted, healthy run", label, got.Reassigns, got.Degraded)
		}
		requireComplete(t, label, got.Noise, want.Noise)
		gotNoise, gotDelay := reportBytes(t, got.Noise, got.Delay)
		if !bytes.Equal(gotNoise, wantNoise) || !bytes.Equal(gotDelay, wantDelay) {
			t.Errorf("%s: run differs from single-process report", label)
		}
	}
}

// TestRebuildMidPassMakesRemainingWavesDue is the same hazard where no fault
// spec reaches it: the rebuild happens in a pass whose remaining waves are
// clean on every shard (the confirming pass, where nothing is dispatched and
// so no dispatch can fail).
func TestRebuildMidPassMakesRemainingWavesDue(t *testing.T) {
	mk := fixtures()["hotfabric"]
	b, opts := bindFixture(t, mk)
	ctx := context.Background()
	want, err := core.NewSession(ctx, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRun(ctx, Config{B: b, Opts: opts, Workers: inprocWorkers(mk, opts, 2), Shards: 4, Token: "rebuild"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.finish()
	r.padding = make([]float64, b.Net.NumNets())
	waves, err := r.BeginRound(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	pass := func(from int) {
		for w := from; w < waves; w++ {
			if _, err := r.EvalWave(ctx, w); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass(0)
	before := r.ledger[OpEval].Dispatches
	pass(0)
	if n := r.ledger[OpEval].Dispatches; n != before {
		t.Fatalf("confirming pass made %d eval dispatches, want none", n-before)
	}
	const shard = 1
	mid := waves / 2
	r.setProgress(mid)
	if err := r.reinit(ctx, shard, r.hosts[shard]); err != nil {
		t.Fatal(err)
	}
	for w := range r.present[shard] {
		if r.due[shard][w] != (r.present[shard][w] && w >= mid) {
			t.Errorf("after a rebuild at wave %d: due[%d]=%v with present=%v", mid, w, r.due[shard][w], r.present[shard][w])
		}
	}
	pass(mid)
	cols, err := r.collectAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	out := &Outcome{IterativeResult: core.IterativeResult{Delay: &core.DelayResult{}}}
	r.assemble(out, cols)
	requireComplete(t, "rebuilt mid-pass", out.Noise, want.Noise())
}

// TestPositionsAreChecked covers what a net name used to guarantee by
// failing to resolve. A position resolves on any design, so a host builds no
// engine unless its design yields the victim order the coordinator's plan
// identifies, an engine refuses a position outside that order, and the
// coordinator refuses an answer about a net the answering shard does not own
// — each a FatalError, none a panic or a combination filed under another net.
func TestPositionsAreChecked(t *testing.T) {
	ctx := context.Background()
	b, opts := bindFixture(t, fixtures()["bus"])
	plan, err := core.BuildShardPlan(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	other, _ := bindFixture(t, fixtures()["ladder"])
	otherPlan, err := core.BuildShardPlan(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	n := int32(len(plan.Order))
	host := NewHost(func(context.Context, *DesignSpec) (*bind.Design, core.Options, func(), error) {
		return b, opts, func() {}, nil
	})
	defer host.CloseAll()
	at := Route{Token: "pos", Shards: []int{0}}
	fatal := func(what string, req any) {
		t.Helper()
		rep := &Reply{}
		if err := host.Do(ctx, req, rep); err != nil {
			t.Fatalf("%s: request failed as a whole: %v", what, err)
		}
		if len(rep.Faults) != 1 || rep.Faults[0].Kind != faultFatal {
			t.Fatalf("%s: faults %+v, want one fatal fault", what, rep.Faults)
		}
	}
	init := func(id core.PlanID, owned ...int32) *InitRequest {
		return &InitRequest{Route: at, Plan: id, Inits: []ShardInit{{Owned: owned}}}
	}
	id := plan.ID
	fatal("init for another design's order", init(otherPlan.ID, 0))
	fatal("init with a net count off by one", init(core.PlanID{Nets: id.Nets + 1, Digest: id.Digest}, 0))
	flipped := id
	flipped.Digest[7] ^= 1
	fatal("init with another digest", init(flipped, 0))
	fatal("init owning the position past the order", init(id, 0, n))
	fatal("init owning a negative position", init(id, -1))
	restore := init(id, 0)
	restore.Inits[0].Restore = []NetComb{{Pos: n}}
	fatal("init restoring the position past the order", restore)
	padded := init(id, 0)
	padded.Padding = []PadEntry{{Pos: n, Pad: 1e-12}}
	fatal("init padding the position past the order", padded)
	if len(host.runners) != 0 {
		t.Fatalf("%d engine(s) built from refused inits", len(host.runners))
	}

	rep := &Reply{}
	if err := host.Do(ctx, init(id, allNets(plan)...), rep); err != nil || rep.Faults[0].Kind != faultNone {
		t.Fatalf("init over the host's own order: %v %+v", err, rep.Faults)
	}
	for _, bad := range []int32{n, -1} {
		fatal(fmt.Sprintf("eval importing position %d", bad),
			&EvalRequest{Route: at, Seq: 1, Boundary: [][]NetComb{{{Pos: bad}}}})
		fatal(fmt.Sprintf("round padding position %d", bad),
			&RoundRequest{Route: at, Changed: []PadEntry{{Pos: 0, Pad: 1e-12}, {Pos: bad, Pad: 1e-12}}})
	}
	// The refused rounds left the engine whole: a good one applies.
	if err := host.Do(ctx, &RoundRequest{Route: at, Changed: []PadEntry{{Pos: 0, Pad: 1e-12}}}, rep); err != nil || rep.Faults[0].Kind != faultNone {
		t.Fatalf("round after the refused ones: %v %+v", err, rep.Faults)
	}

	// A worker that forwards a net its shard does not own — past the order,
	// negative, or a neighbour shard's — or reports delay impacts for another
	// number of nets than its shard owns: the run aborts with the fatal error
	// before the answer indexes the coordinator's state.
	first := func(evals []EvalResult) *NetComb {
		for i := range evals {
			if len(evals[i].Updates) > 0 {
				return &evals[i].Updates[0]
			}
		}
		return nil
	}
	forgeries := map[string]func(rep *Reply) bool{
		"past the order": func(rep *Reply) bool { return forgePos(first(rep.Evals), n) },
		"negative":       func(rep *Reply) bool { return forgePos(first(rep.Evals), -1) },
		"a neighbour's": func(rep *Reply) bool {
			evals := rep.Evals
			if len(evals) != 2 || len(evals[0].Updates) == 0 || len(evals[1].Updates) == 0 {
				return false
			}
			evals[0].Updates[0].Pos = evals[1].Updates[0].Pos
			return true
		},
		"impacts for a net too many": func(rep *Reply) bool {
			if len(rep.Impacts) == 0 {
				return false
			}
			rep.Impacts[0] = append(rep.Impacts[0], nil)
			return true
		},
		"impacts for a net too few": func(rep *Reply) bool {
			if len(rep.Impacts) == 0 || len(rep.Impacts[0]) == 0 {
				return false
			}
			rep.Impacts[0] = rep.Impacts[0][1:]
			return true
		},
	}
	for what, forge := range forgeries {
		liar := &lyingWorker{InProc: NewInProc("liar", func(context.Context) (*bind.Design, error) { return b, nil }, opts), forge: forge}
		_, err := Run(ctx, Config{B: b, Opts: opts, Workers: []Worker{liar}, Shards: 2, Token: "liar"})
		if !liar.lied {
			t.Fatalf("%s: no answer to forge", what)
		}
		if !isFatal(err) {
			t.Fatalf("run whose worker forwarded a position %s: %v, want a FatalError", what, err)
		}
	}
}

// forgePos rewrites a forwarded update's position, if there is one.
func forgePos(u *NetComb, pos int32) bool {
	if u != nil {
		u.Pos = pos
	}
	return u != nil
}

// lyingWorker hands its answers to forge until forge reports it rewrote one.
type lyingWorker struct {
	*InProc
	forge func(rep *Reply) bool
	lied  bool
}

func (w *lyingWorker) Do(ctx context.Context, op string, req, resp any) error {
	err := w.InProc.Do(ctx, op, req, resp)
	if rep, ok := resp.(*Reply); ok && err == nil && !w.lied {
		w.lied = w.forge(rep)
	}
	return err
}
