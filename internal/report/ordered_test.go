package report

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
)

// The ordered parallel encoder: the same bytes as the serial path whatever
// the array sizes, the first failure in document order returned, nothing
// written after a failed write, and no goroutine left behind. CI runs these
// under the race detector sixteen times over; the orderings and deadlocks
// they guard against depend on scheduling.

// deepCase is the batch_deep-shaped engine case in the paper's mode.
func deepCase(t *testing.T) engineCase {
	t.Helper()
	for _, c := range loadEngineCases(t) {
		if c.name == "fabric-deep/"+core.ModeNoiseWindows.String() {
			return c
		}
	}
	t.Fatal("no deep fabric case in the paper's mode")
	return engineCase{}
}

// sized returns a result holding the first n of res's nets (by name) and
// n violations, res's repeated as often as it takes, and a delay result
// holding the first n impacts of dres.
func sized(res *core.Result, dres *core.DelayResult, n int) (*core.Result, *core.DelayResult) {
	out := &core.Result{Mode: res.Mode, Stats: res.Stats, Nets: make(map[string]*core.NetNoise, n)}
	count, at := res.ByName()
	for i := 0; i < min(n, count); i++ {
		nn := at(i)
		out.Nets[nn.Net] = nn
	}
	for i := 0; i < n; i++ {
		out.Violations = append(out.Violations, res.Violations[i%len(res.Violations)])
	}
	return out, &core.DelayResult{Mode: dres.Mode, Impacts: dres.Impacts[:min(n, len(dres.Impacts))]}
}

// TestOrderedEncodeArraySizes cuts the deep fabric's arrays to the sizes
// around a chunk and around the parallel threshold, at the real chunk size
// and at chunks of five, and holds every path to the reference.
func TestOrderedEncodeArraySizes(t *testing.T) {
	c := deepCase(t)
	for _, chunk := range []int{chunkLen, 5} {
		sizes := []int{0, 1, chunk - 1, chunk, chunk + 1, 2*chunk - 1, 2 * chunk, 2*chunk + 1, 5*chunk + 1}
		if top := sizes[len(sizes)-1]; len(c.noise.Violations) == 0 || len(c.delay.Impacts) < top || len(c.noise.Nets) < top {
			t.Fatalf("fixture too small: %d violations, %d impacts, %d nets for arrays of %d",
				len(c.noise.Violations), len(c.delay.Impacts), len(c.noise.Nets), top)
		}
		for _, n := range sizes {
			res, dres := sized(c.noise, c.delay, n)
			var want, dwant bytes.Buffer
			if err := referenceJSON(&want, BuildJSON(res)); err != nil {
				t.Fatal(err)
			}
			if err := referenceJSON(&dwant, BuildDelayJSON(dres)); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3} {
				label := fmt.Sprintf("arrays of %d, chunks of %d, %d worker(s)", n, chunk, workers)
				var got, dgot bytes.Buffer
				if err := encodeWith(&got, workers, chunk, func(e *encoder) *encoder { return e.result(res, nil, nil) }); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameBytes(t, label, got.Bytes(), want.Bytes())
				if err := encodeWith(&dgot, workers, chunk, func(e *encoder) *encoder { return e.delay(dres) }); err != nil {
					t.Fatalf("%s (delay): %v", label, err)
				}
				sameBytes(t, label+" (delay)", dgot.Bytes(), dwant.Bytes())
			}
		}
	}
}

// recorder keeps where each write began.
type recorder struct {
	doc    []byte
	starts []int
}

func (r *recorder) Write(p []byte) (int, error) {
	r.starts = append(r.starts, len(r.doc))
	r.doc = append(r.doc, p...)
	return len(p), nil
}

// requireNoGoroutinesLeft waits for the goroutine count to come back to base:
// an encoder's workers have returned when it does, but a goroutine that has
// returned may take a moment to leave the count.
func requireNoGoroutinesLeft(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the call", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOrderedEncodeWriteErrors fails the writer at the start of a chunk's
// write, one byte into it, and at points between, for the noise and the
// delay report on two parallel settings: the call returns the writer's
// error, what was accepted is a prefix of the document, no write follows
// the failed one, and every worker is gone.
func TestOrderedEncodeWriteErrors(t *testing.T) {
	c := deepCase(t)
	docs := map[string]func(e *encoder) *encoder{
		"noise": func(e *encoder) *encoder { return e.result(c.noise, nil, nil) },
		"delay": func(e *encoder) *encoder { return e.delay(c.delay) },
	}
	for name, doc := range docs {
		for _, p := range []struct{ workers, chunk int }{{2, chunkLen}, {3, 5}} {
			var full recorder
			if err := encodeWith(&full, p.workers, p.chunk, doc); err != nil {
				t.Fatal(err)
			}
			if len(full.starts) < 8 {
				t.Fatalf("%s: %d writes: the fixture no longer spans many chunks", name, len(full.starts))
			}
			cuts := []int{0, 1, len(full.doc) / 3, len(full.doc) - 1}
			for _, w := range []int{1, 2, len(full.starts) / 2, len(full.starts) - 2} {
				cuts = append(cuts, full.starts[w], full.starts[w]+1)
			}
			for _, k := range cuts {
				what := fmt.Sprintf("%s, %d worker(s), chunks of %d, failing after %d bytes", name, p.workers, p.chunk, k)
				base := runtime.NumGoroutine()
				w := &failAfter{n: k}
				if err := encodeWith(w, p.workers, p.chunk, doc); !errors.Is(err, errDiskFull) {
					t.Fatalf("%s: err = %v, want the writer's error", what, err)
				}
				if w.failed != 1 {
					t.Fatalf("%s: %d writes after the failed one, want none", what, w.failed-1)
				}
				if !bytes.HasPrefix(full.doc, w.got) {
					t.Fatalf("%s: the accepted %d bytes are not the document's head", what, len(w.got))
				}
				requireNoGoroutinesLeft(t, what, base)
			}
		}
	}
}

// TestOrderedEncodeNaNInLateChunk puts a NaN peak in a net three quarters of
// the way down the deep fabric's net list: every path returns the serial
// path's error, the parallel ones never write the failing chunk, and no
// worker outlives the call.
func TestOrderedEncodeNaNInLateChunk(t *testing.T) {
	c := deepCase(t)
	n, at := c.noise.ByName()
	res := &core.Result{Mode: c.noise.Mode, Stats: c.noise.Stats, Violations: c.noise.Violations, Nets: make(map[string]*core.NetNoise, n)}
	for i := 0; i < n; i++ {
		res.Nets[at(i).Net] = at(i)
	}
	bad := *at(3 * n / 4)
	bad.Comb[core.KindHigh].Peak = math.NaN()
	res.Nets[bad.Net] = &bad
	doc := func(e *encoder) *encoder { return e.result(res, nil, nil) }

	serialErr := encodeWith(new(bytes.Buffer), 1, chunkLen, doc)
	if serialErr == nil {
		t.Fatal("the serial path accepted a NaN peak")
	}
	for _, p := range []struct{ workers, chunk int }{{2, chunkLen}, {3, chunkLen}, {2, 5}} {
		what := fmt.Sprintf("%d worker(s), chunks of %d", p.workers, p.chunk)
		base := runtime.NumGoroutine()
		var got bytes.Buffer
		err := encodeWith(&got, p.workers, p.chunk, doc)
		if err == nil || err.Error() != serialErr.Error() {
			t.Fatalf("%s: err = %v, want the serial path's %q", what, err, serialErr)
		}
		nets := got.Bytes()[max(bytes.Index(got.Bytes(), []byte(`"nets": [`)), 0):]
		if bytes.Contains(nets, []byte(`"net": "`+bad.Net+`"`)) {
			t.Fatalf("%s: the chunk holding the NaN was written", what)
		}
		requireNoGoroutinesLeft(t, what, base)
	}
}
