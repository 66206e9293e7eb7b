package chaos

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// WorkerFaults injects failures into the shard coordinator's worker
// transport, the way StoreFaults injects them into the store's write path.
// FaultyWorker consults it before (and, for partial, after) every
// dispatched operation; a matching rule fires once (or, with count "*",
// every time) and simulates the worker or the network failing underneath
// the coordinator:
//
//	drop    the request vanishes — the call blocks until the caller's
//	        deadline fires, like a black-holed packet
//	delay   the call is held for WorkerFaultDelay before proceeding,
//	        long enough to trip a short per-attempt timeout
//	error   the call fails immediately without reaching the worker
//	partial the operation executes on the worker but the response is
//	        lost — the hardest case, because a retry must tolerate the
//	        op having already been applied
//	kill    the worker dies: this and every later call on it fail
//
// Operations the rules select on are the shard protocol ops ("init",
// "eval", "round", "delay", "collect", "close") or "*" for all.
//
// The struct is safe for concurrent use; the coordinator dispatches to
// many workers at once.
type WorkerFaults faultRules

var workerFaultGrammar = faultGrammar{
	what: "worker", target: "op", example: "kill:eval:3",
	kinds:   []string{"drop", "delay", "error", "partial", "kill"},
	targets: []string{"init", "eval", "round", "delay", "collect", "close"}, wantTargets: "a shard protocol op or *",
}

// WorkerFaultDelay is how long a "delay" fault holds a call. Chaos tests
// set their per-attempt timeouts below it.
const WorkerFaultDelay = 50 * time.Millisecond

// ParseWorkerFaults parses a comma-separated spec of kind:op[:n] rules,
// e.g. "kill:eval:3,delay:round,partial:eval:*". Kinds are drop, delay,
// error, partial, kill; ops are the shard protocol operations or *; n
// selects the n-th matching call (default 1), and n "*" fires every time.
// An empty spec returns nil (no faults).
func ParseWorkerFaults(spec string) (*WorkerFaults, error) {
	r, err := workerFaultGrammar.parse(spec)
	return (*WorkerFaults)(r), err
}

// Worker is the method set of the shard coordinator's worker
// (shard.Worker), restated so this package imports only the standard
// library.
type Worker interface {
	Name() string
	Do(ctx context.Context, op string, req, resp any) error
	Ping(ctx context.Context) error
}

// FaultyWorker wraps a Worker with a WorkerFaults injector. It sits where
// the transport would fail in production: faults fire before the wrapped
// call (drop, delay, error, kill) or after it (partial — the op executed
// but its response was lost), and a kill is permanent. The coordinator
// must treat each as failed and recover (retry, reassign, or degrade)
// exactly as it would for a real loss. At most one rule
// fires per call: the first armed match in spec order.
type FaultyWorker struct {
	inner  Worker
	faults *WorkerFaults

	mu     sync.Mutex
	killed bool
}

// NewFaultyWorker wraps w; a nil faults injector passes everything through.
func NewFaultyWorker(w Worker, faults *WorkerFaults) *FaultyWorker {
	return &FaultyWorker{inner: w, faults: faults}
}

// Name implements Worker.
func (w *FaultyWorker) Name() string { return w.inner.Name() }

func (w *FaultyWorker) dead() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.killed {
		return fmt.Errorf("chaos: worker %s is dead (killed by fault injection)", w.inner.Name())
	}
	return nil
}

// Do implements Worker, applying any armed fault for op around the call.
func (w *FaultyWorker) Do(ctx context.Context, op string, req, resp any) error {
	if err := w.dead(); err != nil {
		return err
	}
	kind := (*faultRules)(w.faults).match(op)
	switch kind {
	case "kill":
		w.mu.Lock()
		w.killed = true
		w.mu.Unlock()
		return fmt.Errorf("chaos: worker %s died mid-%s (killed by fault injection)", w.inner.Name(), op)
	case "drop":
		<-ctx.Done()
		return ctx.Err()
	case "error":
		return fmt.Errorf("chaos: injected error fault on worker %s", op)
	case "delay":
		select {
		case <-time.After(WorkerFaultDelay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	err := w.inner.Do(ctx, op, req, resp)
	if kind == "partial" && err == nil {
		// The op ran (and may have mutated shard state) but the response
		// never made it back. Retries must cope with the half-applied op.
		err = fmt.Errorf("chaos: injected partial fault on worker %s", op)
	}
	return err
}

// Ping implements Worker: a killed worker stays dead, faults fire on ops only.
func (w *FaultyWorker) Ping(ctx context.Context) error {
	if err := w.dead(); err != nil {
		return err
	}
	return w.inner.Ping(ctx)
}
