package core

import (
	"context"
	"testing"

	"repro/internal/chaos"
)

// TestSessionReanalyzeMatchesScratch is the oracle for the exported
// persistent-session API: after any sequence of incremental padding
// deltas, the session's noise and delay results must equal a from-scratch
// analysis under the same accumulated padding.
func TestSessionReanalyzeMatchesScratch(t *testing.T) {
	b, staOpts := coupledBus(t, 8)
	opts := Options{Mode: ModeNoiseWindows, STA: staOpts}
	sess, err := NewSession(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Drive the session the way a service would: feed back the delay
	// impacts as padding, twice, like two rounds of the signoff loop, and
	// keep the cumulative record a service keeps (max-monotonic).
	applied := make(map[string]float64)
	for round := 0; round < 2; round++ {
		delta := make(map[string]float64)
		for _, im := range sess.Delay().Impacts {
			if im.Delta > delta[im.Net] {
				delta[im.Net] = im.Delta
			}
		}
		for net, pad := range delta {
			applied[net] = max(applied[net], pad)
		}
		res, changed, err := sess.Reanalyze(context.Background(), delta)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if res == nil {
			t.Fatalf("round %d: nil result", round)
		}
		if round == 0 && changed == 0 {
			t.Fatal("first feedback round changed nothing; fixture no longer exercises the incremental path")
		}
	}

	scratch := opts
	scratch.STA.WindowPadding = paddingByID(b.Net, applied)
	noise, err := AnalyzeCtx(context.Background(), b, scratch)
	if err != nil {
		t.Fatal(err)
	}
	delay, err := AnalyzeDelayCtx(context.Background(), b, scratch)
	if err != nil {
		t.Fatal(err)
	}
	requireSameNoise(t, "session noise", sess.Noise(), noise)
	requireSameDelay(t, "session delay", sess.Delay(), delay)
}

// TestSessionReanalyzeIdempotent: re-applying the same padding must be a
// no-op (max-monotonic semantics), which is what makes the server's
// delta-reanalyze endpoint safe to retry.
func TestSessionReanalyzeIdempotent(t *testing.T) {
	b, staOpts := coupledBus(t, 8)
	sess, err := NewSession(context.Background(), b, Options{Mode: ModeNoiseWindows, STA: staOpts})
	if err != nil {
		t.Fatal(err)
	}
	delta := make(map[string]float64)
	for _, im := range sess.Delay().Impacts {
		if im.Delta > delta[im.Net] {
			delta[im.Net] = im.Delta
		}
	}
	if _, changed, err := sess.Reanalyze(context.Background(), delta); err != nil || changed == 0 {
		t.Fatalf("first apply: changed=%d err=%v", changed, err)
	}
	if _, changed, err := sess.Reanalyze(context.Background(), delta); err != nil || changed != 0 {
		t.Fatalf("retried apply: changed=%d err=%v, want 0 nil", changed, err)
	}
	// Smaller padding must be ignored, not shrink the applied state.
	smaller := make(map[string]float64)
	for net, pad := range delta {
		smaller[net] = pad / 2
	}
	if _, changed, err := sess.Reanalyze(context.Background(), smaller); err != nil || changed != 0 {
		t.Fatalf("smaller apply: changed=%d err=%v, want 0 nil", changed, err)
	}
}

// TestSessionBrokenAfterCancelledReanalyze: a cancelled incremental update
// must poison the session rather than leave silently inconsistent caches.
func TestSessionBrokenAfterCancelledReanalyze(t *testing.T) {
	b, staOpts := coupledBus(t, 8)
	sess, err := NewSession(context.Background(), b, Options{Mode: ModeNoiseWindows, STA: staOpts})
	if err != nil {
		t.Fatal(err)
	}
	delta := make(map[string]float64)
	for _, im := range sess.Delay().Impacts {
		if im.Delta > delta[im.Net] {
			delta[im.Net] = im.Delta
		}
	}
	if len(delta) == 0 {
		t.Fatal("fixture produced no delay impacts")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := sess.Reanalyze(ctx, delta); err == nil {
		t.Fatal("cancelled reanalyze returned nil error")
	}
	if sess.Err() == nil {
		t.Fatal("session not marked broken after failed update")
	}
	if _, _, err := sess.Reanalyze(context.Background(), delta); err != ErrSessionBroken {
		t.Fatalf("broken session accepted work: err=%v", err)
	}
}

// TestSessionFaultInjection: a session over a design with injected
// per-victim panics must degrade those victims fail-soft and keep the
// rest analyzable — the substrate the server's circuit breaker observes.
func TestSessionFaultInjection(t *testing.T) {
	b, staOpts := coupledBus(t, 8)
	faults := chaos.RuntimeFaults{Panic: []string{"b1"}}
	sess, err := NewSession(context.Background(), b, Options{
		Mode:        ModeNoiseWindows,
		STA:         staOpts,
		FailSoft:    true,
		PrepareHook: faults.Hook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sess.Noise()
	if res.Stats.DegradedNets != 1 || len(res.Diags) != 1 || res.Diags[0].Net != "b1" {
		t.Fatalf("expected exactly net b1 degraded, got %+v", res.Diags)
	}
	if got := res.Nets["b1"].Comb[KindLow].Peak; got <= 0 {
		t.Fatalf("degraded net lost its conservative bound: peak %g", got)
	}
}
