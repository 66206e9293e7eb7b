package report

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/liberty"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestVersionsHoldElementBytes is the invariant the reply cache copies on:
// a net element's bytes are a function of its record, and a record that
// kept its version was not written. A seeded session of a hot bus and of a
// hot fabric is re-analyzed round after round — random growing pads, and
// now and then a net whose preparation starts to fail, pinned at the
// fallback by the round that re-prepares it — and after each round every
// net that kept a nonzero version must encode to the bytes it had. The
// encode that copies those nets, chained from round to round, must equal
// the fresh one.
func TestVersionsHoldElementBytes(t *testing.T) {
	fixtures := []struct {
		name string
		gen  func() (*workload.Generated, error)
	}{
		{"bus-hot", func() (*workload.Generated, error) {
			return workload.Bus(workload.BusSpec{Bits: 16, Segs: 2, CoupleC: 30 * units.Femto, GroundC: 1 * units.Femto})
		}},
		{"fabric-hot", func() (*workload.Generated, error) { return hotFabric(12, 8) }},
	}
	kept, moved, degraded := 0, 0, 0
	for _, f := range fixtures {
		g, err := f.gen()
		if err != nil {
			t.Fatal(err)
		}
		b, err := g.Bind(liberty.Generic())
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			what := fmt.Sprintf("%s/seed=%d", f.name, seed)
			rng := rand.New(rand.NewSource(seed))
			var faults atomic.Pointer[chaos.RuntimeFaults]
			opts := core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions(), FailSoft: true, PrepareHook: func(net string) error {
				if f := faults.Load(); f != nil {
					return f.Fire(net)
				}
				return nil
			}}
			sess, err := core.NewSession(context.Background(), b, opts)
			if err != nil {
				t.Fatal(err)
			}
			res := sess.Noise()
			n, at := res.ByName()
			names := make([]string, n)
			for i := range names {
				names[i] = at(i).Net
			}
			var prev, chained []byte
			var prevSpans, spans Spans
			pads := map[string]float64{}
			for round := range 40 {
				var fresh Spans
				full, err := AppendJSON(nil, res, nil, &fresh)
				if err != nil {
					t.Fatal(err)
				}
				if chained, err = AppendJSON(nil, res, chained, &spans); err != nil {
					t.Fatal(err)
				}
				sameBytes(t, fmt.Sprintf("%s round %d: the encode copying kept versions", what, round), chained, full)
				if prev != nil {
					for i, s := range fresh.at {
						old := prevSpans.at[i]
						if s.ver == 0 || s.ver != old.ver {
							moved++
							continue
						}
						kept++
						if el, was := full[s.lo:s.hi], prev[old.lo:old.hi]; !bytes.Equal(el, was) {
							t.Fatalf("%s round %d: net %s kept version %d but encodes differently\n was: %s\n now: %s", what, round, names[i], s.ver, was, el)
						}
					}
				}
				prev, prevSpans = full, fresh

				padding := map[string]float64{}
				if rng.Intn(6) == 0 {
					// From now on preparing this net fails; padding one of
					// its aggressors re-prepares it.
					net := names[rng.Intn(n)]
					faults.Store(&chaos.RuntimeFaults{Panic: []string{net}})
					for _, ev := range res.Nets[net].Events[core.KindLow] {
						if _, known := res.Nets[ev.Source]; known {
							padding[ev.Source] = pads[ev.Source] + units.Pico
							break
						}
					}
				} else {
					for range 1 + rng.Intn(2) {
						net := names[rng.Intn(n)]
						padding[net] = pads[net] + float64(1+rng.Intn(5))*units.Pico
					}
				}
				for net, p := range padding {
					pads[net] = p
				}
				before := res.Stats.DegradedNets
				if _, _, err := sess.Reanalyze(context.Background(), padding); err != nil {
					t.Fatal(err)
				}
				degraded += res.Stats.DegradedNets - before
			}
		}
	}
	t.Logf("%d net encodings kept their version, %d moved, %d nets degraded between encodings", kept, moved, degraded)
	if kept == 0 || moved == 0 || degraded == 0 {
		t.Fatal("coverage lost")
	}
}
