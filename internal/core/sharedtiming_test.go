package core

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/liberty"
	"repro/internal/sta"
	"repro/internal/units"
	"repro/internal/workload"
)

// errAfter is a context whose Err reports cancellation from its (n+1)th call
// on: swept over n, it cancels an update at each of its checks in turn.
type errAfter struct {
	context.Context
	n int
}

func (c *errAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestShardTimingIsCopiedOnWrite holds ShardTiming to its contract: two
// engines initialised at one padding share one state; an update cancelled
// at any of its checks leaves that state bit for bit as it was and publishes
// nothing; the update that completes equals a fresh timing run at the new
// padding; a sibling applying the same round takes the published state
// without updating again; and a round applied twice changes nothing.
func TestShardTimingIsCopiedOnWrite(t *testing.T) {
	ctx := context.Background()
	g, err := workload.Fabric(workload.FabricSpec{
		Width: 40, Levels: 10, CouplingDensity: 3, CoupleC: 12 * units.Femto,
		GroundC: 4 * units.Femto, SegRes: 60, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Bind(liberty.Generic())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Mode: ModeNoiseWindows, STA: g.STAOptions()}
	runs, updates := 0, 0
	tm := NewShardTiming(b, opts, func(_ context.Context, full bool) {
		if full {
			runs++
		} else {
			updates++
		}
	})
	owned := make([]int32, len(tm.order))
	for p := range owned {
		owned[p] = int32(p)
	}
	id := orderID(b.Net, tm.order)
	e1, err := NewShardEngine(ctx, tm, id, owned, nil)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewShardEngine(ctx, tm, id, owned, nil)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 || e1.at != e2.at {
		t.Fatalf("two inits at one padding: %d timing runs, shared=%v", runs, e1.at == e2.at)
	}

	s, before := e1.at, e1.at.res.Clone()
	n := int32(len(tm.order))
	round := []PadUpdate{{Pos: n / 3, Pad: 7 * units.Pico}, {Pos: n / 2, Pad: 5 * units.Pico}}
	pad := slices.Clone(s.pad)
	ids, err := padTo(pad, tm.order, round)
	if err != nil {
		t.Fatal(err)
	}
	var next *timingState
	for checks := 0; next == nil; checks++ {
		next, _, err = tm.advance(&errAfter{Context: ctx, n: checks}, s, pad, ids)
		if err != nil && !reflect.DeepEqual(s.res, before) {
			t.Fatalf("an update cancelled at check %d wrote the state its engines read", checks)
		}
		if err != nil && (s.next != nil || tm.head != s) {
			t.Fatalf("an update cancelled at check %d was published", checks)
		}
		if checks > 1000 {
			t.Fatal("the update never completes")
		}
	}
	if updates < 2 {
		t.Fatalf("the sweep cancelled no update (%d attempts)", updates)
	}
	staOpts := opts.STA
	staOpts.WindowPadding = pad
	fresh, err := sta.RunCtx(ctx, b, staOpts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(next.res, fresh) {
		t.Fatal("the updated copy differs from a fresh timing run at its padding")
	}

	attempts := updates
	for _, e := range []*ShardEngine{e1, e2, e1} {
		if err := e.ApplyRound(ctx, round); err != nil {
			t.Fatal(err)
		}
		if e.at != next || e.a.staRes != next.res || e.res.STA != next.res {
			t.Fatal("an engine applying the round does not read its published state")
		}
	}
	if updates != attempts || tm.head != next {
		t.Fatalf("two engines applying one round, one of them twice, made %d more update(s); head moved=%v", updates-attempts, tm.head == next)
	}
}

// TestShardRoundBreaksOnlyOnceMoved: a round that fails before its engine
// moved to the next timing state leaves the engine usable and says nothing
// of ErrSessionBroken, so the same round may be applied again; one that
// fails after the move, in the re-preparation, wraps ErrSessionBroken.
func TestShardRoundBreaksOnlyOnceMoved(t *testing.T) {
	ctx := context.Background()
	g, err := workload.Fabric(workload.FabricSpec{
		Width: 40, Levels: 10, CouplingDensity: 3, CoupleC: 12 * units.Femto,
		GroundC: 4 * units.Femto, SegRes: 60, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Bind(liberty.Generic())
	if err != nil {
		t.Fatal(err)
	}
	tm := NewShardTiming(b, Options{STA: g.STAOptions()}, nil)
	owned := make([]int32, len(tm.order))
	for p := range owned {
		owned[p] = int32(p)
	}
	var engs [2]*ShardEngine
	for i := range engs {
		if engs[i], err = NewShardEngine(ctx, tm, tm.id, owned, nil); err != nil {
			t.Fatal(err)
		}
	}
	s, n := engs[0].at, int32(len(tm.order))
	round := []PadUpdate{{Pos: n / 3, Pad: 7 * units.Pico}, {Pos: n / 2, Pad: 5 * units.Pico}}
	before := 0
	for checks := 0; engs[0].at == s; checks++ {
		err := engs[0].ApplyRound(&errAfter{Context: ctx, n: checks}, round)
		if engs[0].at == s && (err == nil || errors.Is(err, ErrSessionBroken)) {
			t.Fatalf("a round cancelled at check %d before the move: %v, want a plain cancellation", checks, err)
		}
		if engs[0].at == s {
			before++
		}
	}
	if before == 0 {
		t.Fatal("the sweep cancelled no round before its move")
	}
	// The sibling takes the published state without a check and fails at
	// the re-preparation's first.
	if err := engs[1].ApplyRound(&errAfter{Context: ctx}, round); !errors.Is(err, ErrSessionBroken) || !errors.Is(err, context.Canceled) || engs[1].at == s {
		t.Fatalf("a round cancelled after the move: %v, want ErrSessionBroken wrapping the cancellation", err)
	}
}
