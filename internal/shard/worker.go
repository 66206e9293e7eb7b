package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/workload"
)

// Worker is one execution backend the coordinator can host shards on. The
// two implementations are InProc (a goroutine sharing the coordinator's
// bound design) and client.ShardWorker (a remote snad process reached over
// HTTP). Do executes one protocol op for every shard the request addresses:
// req is a pointer to the op's request type, resp a *Reply (nil for close).
type Worker interface {
	// Name identifies the worker in logs, diags, and health tracking.
	Name() string
	// Do executes op with req, filling resp in. Its error is the request's
	// as a whole: FatalError aborts the run, anything else (timeouts,
	// transport loss) marks the worker dead. A single shard's failure
	// arrives in resp as that shard's Fault instead.
	Do(ctx context.Context, op string, req, resp any) error
	// Ping probes liveness without touching any shard state.
	Ping(ctx context.Context) error
}

// BuildDesign supplies an in-process worker's bound design, shared by
// every shard engine the worker hosts (see EngineSource), mirroring a
// remote snad worker caching one parsed design per run token. build must
// produce an identical design every call — the coordinator's byte-identity
// guarantee rides on every engine seeing the same inputs.
type BuildDesign func(ctx context.Context) (*bind.Design, error)

// InProc is a worker running in the coordinator's own process: a Host
// whose engines all share one bound design, handed the coordinator's typed
// requests and responses as they are — nothing is copied or encoded.
type InProc struct {
	name  string
	build BuildDesign
	host  *Host

	mu sync.Mutex
	// b is the worker's shared bound design, built on first shard init.
	b *bind.Design
}

// NewInProc returns an in-process worker that builds its design once, on
// the first shard init, and shares it across every engine it hosts. opts
// is copied per engine.
func NewInProc(name string, build BuildDesign, opts core.Options) *InProc {
	w := &InProc{name: name, build: build}
	w.host = NewHost(func(ctx context.Context, _ string, _ *DesignSpec) (*bind.Design, core.Options, error) {
		b, err := w.design(ctx)
		return b, opts, err
	}, nil)
	return w
}

// Name implements Worker.
func (w *InProc) Name() string { return w.name }

// Ping implements Worker; an in-process worker is alive by construction.
func (w *InProc) Ping(ctx context.Context) error { return ctx.Err() }

// design returns the worker's shared bound design, building it on first
// use. Only a successful build is cached — a cancelled or failed build
// must stay retryable. Concurrent first inits may build twice; the first
// store wins and the loser's copy is dropped (identical by contract).
func (w *InProc) design(ctx context.Context) (*bind.Design, error) {
	w.mu.Lock()
	b := w.b
	w.mu.Unlock()
	if b != nil {
		return b, nil
	}
	b, err := w.build(ctx)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	if w.b == nil {
		w.b = b
	}
	b = w.b
	w.mu.Unlock()
	return b, nil
}

// Do implements Worker on the worker's Host; the request's type says the op.
func (w *InProc) Do(ctx context.Context, _ string, req, resp any) error {
	rep, _ := resp.(*Reply)
	return w.host.Do(ctx, req, rep)
}

// FaultyWorker wraps a Worker with a workload.WorkerFaults injector. It
// sits where the transport would fail in production: faults fire before
// the wrapped call (drop, delay, error, kill) or after it (partial — the
// op executed but its response was lost), and a kill is permanent.
type FaultyWorker struct {
	inner  Worker
	faults *workload.WorkerFaults

	mu     sync.Mutex
	killed bool
}

// NewFaultyWorker wraps w; a nil faults injector passes everything through.
func NewFaultyWorker(w Worker, faults *workload.WorkerFaults) *FaultyWorker {
	return &FaultyWorker{inner: w, faults: faults}
}

// Name implements Worker.
func (w *FaultyWorker) Name() string { return w.inner.Name() }

func (w *FaultyWorker) dead() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.killed {
		return fmt.Errorf("workload: worker %s is dead (killed by fault injection)", w.inner.Name())
	}
	return nil
}

// Do implements Worker, applying any armed fault for op around the call.
func (w *FaultyWorker) Do(ctx context.Context, op string, req, resp any) error {
	if err := w.dead(); err != nil {
		return err
	}
	act := w.faults.Intercept(op)
	switch {
	case act.Kill:
		w.mu.Lock()
		w.killed = true
		w.mu.Unlock()
		return fmt.Errorf("workload: worker %s died mid-%s (killed by fault injection)", w.inner.Name(), op)
	case act.Drop:
		<-ctx.Done()
		return ctx.Err()
	case act.Err != nil:
		return act.Err
	case act.Delay:
		select {
		case <-time.After(workload.WorkerFaultDelay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	err := w.inner.Do(ctx, op, req, resp)
	if act.Partial {
		// The op ran (and may have mutated shard state) but the response
		// never made it back. Retries must cope with the half-applied op.
		if err == nil {
			err = &workload.InjectedWorkerFault{Kind: "partial", Op: op}
		}
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
