package core

import (
	"context"
	"testing"

	"repro/internal/liberty"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestVersionsTrackWrites holds the version clock to the writes of net
// records. The clock counts evaluations; every record an evaluation
// committed into carries that evaluation's tick, a record no evaluation
// touched keeps its version, results never share an identity, and a
// shard's imported combination (SetComb) leaves its record unversioned.
// That a kept version means the same report bytes is report's
// TestVersionsHoldElementBytes.
func TestVersionsTrackWrites(t *testing.T) {
	ctx := context.Background()
	g, err := workload.Bus(workload.BusSpec{Bits: 8, Segs: 2, CoupleC: 30 * units.Femto, GroundC: 1 * units.Femto})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Bind(liberty.Generic())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Mode: ModeNoiseWindows, STA: g.STAOptions(), FailSoft: true}
	sess, err := NewSession(ctx, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	res := sess.Noise()
	id, _ := res.Versions()
	if id == 0 || res.tick == 0 || int(res.tick) != res.Evals() {
		t.Fatalf("identity %d, clock %d, %d evaluations", id, res.tick, res.Evals())
	}
	seen := map[uint64]bool{}
	for pos, v := range res.ver {
		if v == 0 || v > res.tick || seen[v] {
			t.Fatalf("net %s: version %d after a full analysis of %d evaluations (a version zero, beyond the clock or shared)", res.slab[pos].Net, v, res.tick)
		}
		seen[v] = true
	}
	for round, net := range []string{"b3", "b0", "b6"} {
		before, tick := append([]uint64(nil), res.ver...), res.tick
		if _, _, err := sess.Reanalyze(ctx, map[string]float64{net: float64(round+2) * 5 * units.Pico}); err != nil {
			t.Fatal(err)
		}
		moved := 0
		for pos, v := range res.ver {
			switch {
			case v == before[pos]:
			case v > tick && v <= res.tick:
				moved++
			default:
				t.Fatalf("padding %s: net %s went from version %d to %d, not to a tick of this round (%d, %d]", net, res.slab[pos].Net, before[pos], v, tick, res.tick)
			}
		}
		if moved == 0 || moved == len(res.ver) || uint64(moved) > res.tick-tick {
			t.Fatalf("padding %s: %d of %d records moved over %d evaluations", net, moved, len(res.ver), res.tick-tick)
		}
	}
	other, err := NewSession(ctx, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if oid, _ := other.Noise().Versions(); oid == id {
		t.Fatalf("two results share identity %d", id)
	}

	order := victimOrderOf(b)
	owned := make([]int32, len(order))
	for p := range owned {
		owned[p] = int32(p)
	}
	eng, err := NewShardEngine(ctx, NewShardTiming(b, opts, nil), orderID(b.Net, order), owned, nil)
	if err != nil {
		t.Fatal(err)
	}
	for wi := range eng.a.waves {
		if _, _, err := eng.EvalWave(ctx, wi); err != nil {
			t.Fatal(err)
		}
	}
	_, rail := FullRail(b.Lib.Vdd)
	for pos := range eng.res.ver {
		if eng.res.ver[pos] == 0 {
			t.Fatalf("shard net %s unversioned after its evaluation", eng.res.slab[pos].Net)
		}
		if err := eng.SetComb(int32(pos), [2]Combined{rail, rail}); err != nil {
			t.Fatal(err)
		}
		if v := eng.res.ver[pos]; v != 0 {
			t.Fatalf("shard net %s keeps version %d over an imported combination", eng.res.slab[pos].Net, v)
		}
	}
}
