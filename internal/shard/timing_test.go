package shard

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/bind"
	"repro/internal/core"
)

// timingCounts tallies the full timing runs (index 0) and the incremental
// updates (index 1) a host's shared timings start.
type timingCounts struct {
	mu sync.Mutex
	n  [2]int
}

func countTimings(h *Host) *timingCounts {
	c := &timingCounts{}
	h.onTiming = func(_ context.Context, full bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if full {
			c.n[0]++
		} else {
			c.n[1]++
		}
	}
	return c
}

func (c *timingCounts) get() [2]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// hostOf is a host serving b with opts, as snad's shard endpoint does.
func hostOf(b *bind.Design, opts core.Options) *Host {
	return NewHost(func(context.Context, *DesignSpec) (*bind.Design, core.Options, func(), error) {
		return b, opts, func() {}, nil
	})
}

// requireSameReport fails unless the outcome's reports are the local ones
// byte for byte and its loop ran as many rounds.
func requireSameReport(t *testing.T, label string, got *Outcome, want *core.IterativeResult) {
	t.Helper()
	gotNoise, gotDelay := reportBytes(t, got.Noise, got.Delay)
	wantNoise, wantDelay := reportBytes(t, want.Noise, want.Delay)
	if !bytes.Equal(gotNoise, wantNoise) || !bytes.Equal(gotDelay, wantDelay) || got.Rounds != want.Rounds {
		t.Errorf("%s: run (%d rounds) differs from single-process (%d rounds)", label, got.Rounds, want.Rounds)
	}
}

// TestCoHostedShardsShareTiming: the shards of one run token on one host
// share its timing. Four of them do one full timing run at init and one
// incremental update per later round — what the single-process engine does
// over the same rounds — two tokens running at once on the same host get one
// timing each, and a shard rebuilt in place mid-run joins the state its
// siblings are at instead of running timing again. Every report is the
// single-process one byte for byte.
func TestCoHostedShardsShareTiming(t *testing.T) {
	b, opts := bindFixture(t, fixtures()["hotfabric"])
	want, err := core.AnalyzeIterativeCtx(context.Background(), b, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want.Rounds < 2 {
		t.Fatalf("the fixture converges in %d round(s): no update to share", want.Rounds)
	}
	local := [2]int{1, want.Rounds - 1} // the local engine: one run, an update per later round

	host := hostOf(b, opts)
	counts := countTimings(host)
	var wg sync.WaitGroup
	for _, token := range []string{"a", "b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := hostWorker{h: host, before: func(string) {}}
			got, err := Run(context.Background(), Config{B: b, Opts: opts, Workers: []Worker{w}, Shards: 4, Token: token})
			if err != nil {
				t.Error(err)
				return
			}
			requireSameReport(t, "token "+token, got, want)
		}()
	}
	wg.Wait()
	if got := counts.get(); got != [2]int{2 * local[0], 2 * local[1]} {
		t.Errorf("two tokens of 4 shards each: %d timing run(s) and %d update(s), want %d and %d, as two single-process runs",
			got[0], got[1], 2*local[0], 2*local[1])
	}

	// A round's answer for one of two co-hosted shards is lost and its engine
	// left broken: it is re-initialised at the padding its sibling is at.
	workers := inprocWorkers(fixtures()["hotfabric"], opts, 2)
	hit := &oneShardFault{InProc: workers[1].(*InProc), op: OpRound, kind: faultBroken, victim: -1}
	workers[1] = hit
	rebuilt := countTimings(hit.host)
	got, err := Run(context.Background(), Config{B: b, Opts: opts, Workers: workers, Shards: 4, Token: "rebuilt"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Reassigns != 1 || fmt.Sprint(hit.reinits) != fmt.Sprint([][]int{{hit.victim}}) {
		t.Fatalf("reassigns=%d, re-initialised %v: want shard %d rebuilt once", got.Reassigns, hit.reinits, hit.victim)
	}
	if got := rebuilt.get(); got != local {
		t.Errorf("with a shard rebuilt mid-run: %d timing run(s) and %d update(s), want %d and %d",
			got[0], got[1], local[0], local[1])
	}
	requireSameReport(t, "rebuilt mid-run", got, want)
}

// dispatchCancel is the context key under which cancellingWorker files each
// dispatch's cancel.
type dispatchCancel struct{}

// cancellingWorker is a bare Host whose every dispatch runs under its own
// cancellable context, the cancel filed in it.
type cancellingWorker struct{ h *Host }

func (w cancellingWorker) Name() string                   { return "cancelling" }
func (w cancellingWorker) Ping(ctx context.Context) error { return ctx.Err() }
func (w cancellingWorker) Do(ctx context.Context, _ string, req, resp any) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	rep, _ := resp.(*Reply)
	return w.h.Do(context.WithValue(ctx, dispatchCancel{}, cancel), req, rep)
}

// TestCancelInSharedTimingUpdate cancels the round dispatch of four
// co-hosted shards inside their shared timing update, once its copy is made
// and before it evaluates an instance. Nothing any engine reads was written
// and no engine moved: every sibling, trying the update under the cancelled
// dispatch, answers a transient cancellation, the coordinator re-sends the
// round, one update serves all four, and the run finishes byte-identical to
// single-process with no shard re-initialised and no second timing run.
func TestCancelInSharedTimingUpdate(t *testing.T) {
	b, opts := bindFixture(t, fixtures()["hotfabric"])
	want, err := core.AnalyzeIterativeCtx(context.Background(), b, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	host := hostOf(b, opts)
	var once sync.Once
	counts := countTimings(host)
	observe := host.onTiming
	host.onTiming = func(ctx context.Context, full bool) {
		observe(ctx, full)
		if !full {
			once.Do(ctx.Value(dispatchCancel{}).(context.CancelFunc))
		}
	}
	got, err := Run(context.Background(), Config{B: b, Opts: opts, Workers: []Worker{cancellingWorker{host}}, Shards: 4, Token: "cancel"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Reassigns != 0 || got.Degraded {
		t.Errorf("reassigns=%d degraded=%v, want the round retried in place: no re-init, no degradation", got.Reassigns, got.Degraded)
	}
	// The initial run; the cancelled round: 4 attempts, then 1 update on the
	// retry; every later round: 1 update.
	if got, wantN := counts.get(), [2]int{1, 4 + 1 + want.Rounds - 2}; got != wantN {
		t.Errorf("%d timing run(s) and %d update(s), want %d and %d", got[0], got[1], wantN[0], wantN[1])
	}
	requireSameReport(t, "cancelled update", got, want)
}

// BenchmarkCoHostedRun is the iterate benchmark's in-process driver: one
// noise-delay fixpoint of 4 shards on one in-process worker over the hot
// fabric 120 × 16, engines serial.
func BenchmarkCoHostedRun(b *testing.B) {
	bd, opts := bindFixture(b, iterateFixture)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewInProc("w0", func(context.Context) (*bind.Design, error) { return bd, nil }, opts)
		if _, err := Run(context.Background(), Config{B: bd, Opts: opts, Workers: []Worker{w}, Shards: 4, Token: "bench"}); err != nil {
			b.Fatal(err)
		}
	}
}
