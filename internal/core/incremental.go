package core

import (
	"context"

	"repro/internal/netlist"
)

// What a round of padding growth invalidates. After a round, window padding
// grows on the nets whose delay impact exceeded it; the STA update reports
// the nets whose timing annotation was recomputed. A re-timed net has two
// consequences and no others:
//
//   - every prepared victim it aggresses gets its coupled events rebuilt — an
//     aggressor's switching window is the only timing input of a coupled
//     event. The noise context is RC-derived and timing-independent, so only
//     the events are rebuilt, and the coupling filter is timing-independent
//     too, so indexing over all couplings (kept or filtered) is conservative
//     and exact. commitPrepared compares the rebuilt events with the ones
//     they replace: only a victim whose events really moved becomes stale,
//     for the noise fixpoint and for the delay pass.
//
//   - the net itself, as a victim, is delay-stale: its own switching window
//     is the other input of the delay query. Its noise does not move (its
//     windows enter only the delay pass and its role as an aggressor).
//
// Nothing is closed under fanout ahead of time: from the stale victims the
// fixpoint spreads by itself, commit by commit, only as far as combinations
// actually move (commitEval).

// buildAggIndex builds the aggressor index from the prepared victims' noise
// contexts, once per analyzer.
func (a *analyzer) buildAggIndex() {
	if a.aggOff != nil {
		return
	}
	a.aggOff = make([]int32, a.b.Net.NumNets()+1)
	each := func(fn func(agg, victim int)) {
		for pos, nctx := range a.ctxs {
			for i := 0; nctx != nil && i < len(nctx.Couplings); i++ {
				if agg := nctx.Couplings[i].Agg; agg >= 0 {
					fn(int(agg), pos)
				}
			}
		}
	}
	each(func(agg, _ int) { a.aggOff[agg+1]++ })
	for id := 1; id < len(a.aggOff); id++ {
		a.aggOff[id] += a.aggOff[id-1]
	}
	a.aggVictims = make([]int32, a.aggOff[len(a.aggOff)-1])
	next := append([]int32(nil), a.aggOff...)
	each(func(agg, victim int) {
		a.aggVictims[next[agg]] = int32(victim)
		next[agg]++
	})
}

// retime is what a timing update leaves to do, on the single-process engine
// and on a shard alike (a shard's analyzer prepared only the victims it owns,
// so everything below stays inside them): re-prepare the victims of every
// re-timed aggressor, in evaluation order, with the same hook, panic
// isolation and fail-soft degradation as the first preparation.
func (a *analyzer) retime(ctx context.Context, retimed []netlist.NetID) error {
	a.buildAggIndex()
	reprep := make(bitset, len(a.stale))
	for i, id := range retimed {
		if i&0x3f == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if p := a.posByID[id]; p >= 0 && a.prepared.has(int(p)) {
			a.delayStale.set(int(p))
		}
		for _, v := range a.aggVictims[a.aggOff[id]:a.aggOff[id+1]] {
			reprep.set(int(v))
		}
	}
	a.todo = reprep.appendRange(a.todo[:0], 0, len(a.order))
	return a.prepareAll(ctx, a.todo)
}
