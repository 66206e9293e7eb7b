// Package par runs an index loop across goroutines with a serial loop's
// outcome. The front half of a run (bind, timing) is made of loops whose
// iterations write disjoint slots of dense-ID tables; For is the one
// place that decides when such a loop fans out and which error it
// returns.
package par

import (
	"context"
	"sync"
	"sync/atomic"
)

// chunk is how many consecutive indices a goroutine claims at a time, and
// the stride of the context checks: big enough that the claim's atomic add
// and the check vanish against the work, small enough to balance a loop
// of a few thousand iterations across the workers.
const chunk = 64

// For calls fn(i) for every i in [0, n) and returns the error of the
// lowest failing i — what a serial loop stopping at its first error
// returns. It is that serial loop when workers <= 1 or n < serialBelow. Otherwise
// up to workers goroutines claim chunks of consecutive indices in
// ascending order; once an index has failed, no index above it starts,
// in a claimed chunk or a new one, while every index below it still runs
// to its own end or first error, so the lowest failure is always seen.
// Iterations must write only state no other iteration touches. A
// cancelled context ends the loop with ctx.Err() at the next chunk
// boundary.
func For(ctx context.Context, n, workers, serialBelow int, fn func(i int) error) error {
	return ForWorker(ctx, n, workers, serialBelow, func(_, i int) error { return fn(i) })
}

// ForWorker is For for iterations that reuse per-worker state (scratch
// buffers): fn also learns which goroutine runs it, w in [0, max(workers,
// 1)), and no two concurrent calls share a w. The serial loop is worker 0.
func ForWorker(ctx context.Context, n, workers, serialBelow int, fn func(w, i int) error) error {
	if workers <= 1 || n < serialBelow {
		for i := 0; i < n; i++ {
			if i%chunk == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	chunks := (n + chunk - 1) / chunk
	if workers > chunks {
		workers = chunks
	}
	errs := make([]error, chunks)
	var (
		next atomic.Int64
		// low is the lowest failing index so far, n while none has failed.
		low atomic.Int64
		wg  sync.WaitGroup
	)
	low.Store(int64(n))
	fail := func(i int) {
		for cur := low.Load(); int64(i) < cur && !low.CompareAndSwap(cur, int64(i)); cur = low.Load() {
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				lo := c * chunk
				if errs[c] = ctx.Err(); errs[c] != nil {
					fail(lo)
				}
				if int64(lo) > low.Load() {
					return // chunks are claimed in order: every later one is above too
				}
				for i, hi := lo, min(n, lo+chunk); i < hi && int64(i) < low.Load(); i++ {
					if errs[c] = fn(w, i); errs[c] != nil {
						fail(i)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
