package shard

import (
	"context"

	"repro/internal/bind"
	"repro/internal/core"
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
// every shard engine of a run token the worker hosts (see EngineSource),
// as a remote snad worker shares one cached design per token. build must
// produce an identical design every call — the coordinator's byte-identity
// guarantee rides on every engine seeing the same inputs.
type BuildDesign func(ctx context.Context) (*bind.Design, error)

// InProc is a worker running in the coordinator's own process: a Host
// whose engines share the design build returns, handed the coordinator's
// typed requests and responses as they are — nothing is copied or encoded.
type InProc struct {
	name string
	host *Host
}

// NewInProc returns an in-process worker that builds its design on a run
// token's first shard init and shares it across the token's engines. opts
// is copied per engine.
func NewInProc(name string, build BuildDesign, opts core.Options) *InProc {
	return &InProc{name: name, host: NewHost(func(ctx context.Context, _ *DesignSpec) (*bind.Design, core.Options, func(), error) {
		b, err := build(ctx)
		return b, opts, func() {}, err
	})}
}

// Name implements Worker.
func (w *InProc) Name() string { return w.name }

// Ping implements Worker; an in-process worker is alive by construction.
func (w *InProc) Ping(ctx context.Context) error { return ctx.Err() }

// Do implements Worker on the worker's Host; the request's type says the op.
func (w *InProc) Do(ctx context.Context, _ string, req, resp any) error {
	rep, _ := resp.(*Reply)
	return w.host.Do(ctx, req, rep)
}
