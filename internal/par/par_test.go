package par

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, chunk - 1, chunk, 10*chunk + 7} {
		for _, workers := range []int{0, 1, 3, 64} {
			seen := make([]atomic.Int32, n)
			err := For(context.Background(), n, workers, 2, func(i int) error {
				seen[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, got)
				}
			}
		}
	}
}

// The error of the lowest failing index wins, whichever worker hits its
// failure first — the serial loop's answer.
func TestForReturnsLowestFailure(t *testing.T) {
	const n = 50 * chunk
	bad := map[int]bool{7*chunk + 3: true, 7*chunk + 9: true, 30 * chunk: true, n - 1: true}
	for _, workers := range []int{1, 2, 8} {
		for rep := 0; rep < 20; rep++ {
			err := For(context.Background(), n, workers, 2, func(i int) error {
				if bad[i] {
					return fmt.Errorf("index %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != fmt.Sprintf("index %d", 7*chunk+3) {
				t.Fatalf("workers=%d: got %v, want the failure at index %d", workers, err, 7*chunk+3)
			}
		}
	}
}

func TestForStaysSerialBelowThreshold(t *testing.T) {
	last := -1
	err := For(context.Background(), 5*chunk, 8, 5*chunk+1, func(i int) error {
		if i != last+1 {
			return fmt.Errorf("index %d after %d: not the serial order", i, last)
		}
		last = i // unsynchronized on purpose: -race proves one goroutine
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForStopsOnCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := For(ctx, 100*chunk, workers, 2, func(i int) error {
			if ran.Add(1) == chunk {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got > int32((workers+1)*chunk) {
			t.Fatalf("workers=%d: %d iterations ran after the cancel", workers, got)
		}
	}
}

// TestForWorkerNeverSharesAWorker: at any moment each worker index is in at
// most one call, so state indexed by it needs no lock — also serially.
func TestForWorkerNeverSharesAWorker(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8} {
		busy := make([]atomic.Int32, max(workers, 1))
		err := ForWorker(context.Background(), 40*chunk, workers, 2, func(w, i int) error {
			if busy[w].Add(1) != 1 {
				return fmt.Errorf("worker %d ran two iterations at once", w)
			}
			defer busy[w].Add(-1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// claimCounter is a context that counts its Err calls, which ForWorker
// makes once per claimed chunk, and closes at when the count reaches n.
type claimCounter struct {
	context.Context
	calls atomic.Int32
	n     int32
	at    chan struct{}
}

func (c *claimCounter) Err() error {
	if c.calls.Add(1) == c.n {
		close(c.at)
	}
	return nil
}

// TestForStopsAboveTheLowestFailure pins both halves of the fail-fast
// drain, ordered by channels alone. Three workers hold chunks 0, 1 and 2
// of four; index chunk+5 fails while indices 0 and 2*chunk are mid-call.
// The failing worker's next claim (the fourth) comes after it recorded the
// failure, and releases both: chunk 0, below the failure, runs on until
// its own failure at 40, and chunk 2, above it, stops after the index it
// was in. (The watchdog orders nothing: it turns a loop that never makes
// that claim into a failure instead of a hang.)
func TestForStopsAboveTheLowestFailure(t *testing.T) {
	const n = 4 * chunk
	ctx := &claimCounter{Context: context.Background(), n: 4, at: make(chan struct{})}
	var ran [n]atomic.Bool
	started0, started2 := make(chan struct{}), make(chan struct{})
	wait := func(i int) error {
		select {
		case <-ctx.at:
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("index %d: the failing worker never claimed again", i)
		}
	}
	err := ForWorker(ctx, n, 3, 2, func(_, i int) error {
		ran[i].Store(true)
		switch i {
		case 0:
			close(started0)
			return wait(i)
		case 2 * chunk:
			close(started2)
			return wait(i)
		case chunk + 5:
			<-started0
			<-started2
			return fmt.Errorf("index %d", i)
		case 40:
			return fmt.Errorf("index %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "index 40" {
		t.Fatalf("got %v, want the failure at index 40", err)
	}
	for i := range ran {
		want := i <= 40 || chunk <= i && i <= chunk+5 || i == 2*chunk
		if got := ran[i].Load(); got != want {
			t.Errorf("index %d ran=%v, want %v", i, got, want)
		}
	}
}
