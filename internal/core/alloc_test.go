package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/liberty"
	"repro/internal/sta"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestVictimAllocations: a victim's first preparation and evaluation, on a
// warm worker scratch, costs its noise context (two), one array for its
// coupled events and one for its event lists; the member lists come out of
// a chunk. Nothing per aggressor, per kind, per window or per combination.
func TestVictimAllocations(t *testing.T) {
	b := busFixture(t, 2, 2*units.Femto, 3*units.Femto)
	opts := Options{Mode: ModeNoiseWindows, STA: sta.Options{InputTiming: staggeredInputs(2, 10*units.Pico, 100*units.Pico)}}
	eng := &engine{b: b, opts: opts}
	if _, err := runRound(context.Background(), eng, opts, nil); err != nil {
		t.Fatal(err)
	}
	a, res := eng.a, eng.res
	net := b.Net.FindNet("v")
	pos := int(a.posByID[net])
	sc := &a.scratch[0]
	want := res.slab[pos].Comb
	if len(want[KindLow].Members) != 2 {
		t.Fatalf("fixture: the victim's worst low combination aligns %v, want both aggressors", want[KindLow].Members)
	}
	allocs := testing.AllocsPerRun(200, func() {
		// Forget the victim, then do what a first analysis does for it.
		a.ctxs[pos], a.coupled[pos], res.slab[pos] = nil, [2][]Event{}, NetNoise{Net: "v"}
		a.prepared.clear(pos)
		p, err := a.safePrepare(pos, sc)
		if err := a.commitPrepared(pos, &p, err); err != nil {
			t.Fatal(err)
		}
		ev, err := a.evalNet(pos, res, sc)
		if _, err := a.commitEval(pos, res, ev, err, nil); err != nil {
			t.Fatal(err)
		}
	})
	for _, k := range Kinds {
		if got := res.slab[pos].Comb[k]; got.Peak != want[k].Peak || len(got.Members) != len(want[k].Members) {
			t.Fatalf("re-done victim %v: %+v, want %+v", k, got, want[k])
		}
	}
	t.Logf("prepare + evaluate of a two-aggressor victim: %.2f allocations", allocs)
	if allocs > 6 {
		t.Errorf("prepare + evaluate of a two-aggressor victim: %.2f allocations, want ≤ 6", allocs)
	}
}

// TestSessionHeapDoesNotGrow is the member arena's lifetime rule. Member
// lists are carved from chunks the result keeps alive; a victim whose list
// was carved again on every evaluation would pin one more chunk each time
// it is evaluated in a round its chunk-mates are not. So a list is
// rewritten in its victim's own slot, and a session re-analysed a thousand
// times — a creeping padding on a different net each round, so that every
// round evaluates a different handful of victims — holds after round 1 000
// what it held after round 10. (Carving afresh fails this by 20 %.)
func TestSessionHeapDoesNotGrow(t *testing.T) {
	g, err := workload.Fabric(workload.FabricSpec{
		Width: 24, Levels: 6, CouplingDensity: 3, CoupleC: 12 * units.Femto, GroundC: 4 * units.Femto, SegRes: 60, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Bind(liberty.Generic())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sess, err := NewSession(ctx, b, Options{Mode: ModeNoiseWindows, STA: g.STAOptions()})
	if err != nil {
		t.Fatal(err)
	}
	var nets []string
	for _, im := range sess.Delay().Impacts {
		nets = append(nets, im.Net)
	}
	heap := func() (inuse, alloc uint64) {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse, ms.HeapAlloc
	}
	var inuse10, alloc10 uint64
	evals := sess.Noise().Evals()
	for round := 1; round <= 1000; round++ {
		net := nets[round*7%len(nets)]
		pad := map[string]float64{net: 5*units.Pico + float64(round)*20*units.Femto}
		if _, changed, err := sess.Reanalyze(ctx, pad); err != nil || changed != 1 {
			t.Fatalf("round %d: %d nets changed, error %v", round, changed, err)
		}
		if round == 10 {
			inuse10, alloc10 = heap()
		}
	}
	inuse, alloc := heap()
	if evals = sess.Noise().Evals() - evals; evals < 5000 {
		t.Fatalf("%d evaluations in 1000 rounds: the fixture no longer makes the rounds work", evals)
	}
	t.Logf("%d evaluations; HeapInuse %d → %d KB, HeapAlloc %d → %d KB from round 10 to round 1000",
		evals, inuse10>>10, inuse>>10, alloc10>>10, alloc>>10)
	if float64(inuse) > 1.10*float64(inuse10) || float64(alloc) > 1.05*float64(alloc10) {
		t.Errorf("heap grew between round 10 and round 1000: HeapInuse %d → %d KB (want within 10 %%), HeapAlloc %d → %d KB (within 5 %%)",
			inuse10>>10, inuse>>10, alloc10>>10, alloc>>10)
	}
}
