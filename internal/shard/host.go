package shard

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/bind"
	"repro/internal/core"
)

// EngineSource supplies the bound design and the engine options for a run
// token's shards on this host, and release, which gives the design back.
// spec is the init request's shipped design (nil from a coordinator that
// expects the host to have its own). The Host calls a source on a token's
// first init and shares what it returns with every engine of the token — a
// bound design is immutable after binding apart from one internally
// guarded cache. So is the token's timing (core.ShardTiming): one
// annotation per padding state, which a round copies before it updates
// it. The padding and the noise state are private to each engine.
type EngineSource func(ctx context.Context, spec *DesignSpec) (b *bind.Design, opts core.Options, release func(), err error)

type slot struct { // keys one hosted engine
	token string
	shard int
}

// tokenDesign is what a token's engines on one host share: the timing over
// the design (which holds the design) and the source's release for it.
type tokenDesign struct {
	timing  *core.ShardTiming
	release func()
}

// Host keeps the shard runners one worker hosts, keyed by (run token,
// shard), and the design each token's runners share, and executes protocol
// ops against them. Both worker kinds are a Host behind a transport: InProc
// passes the coordinator's typed messages straight through, snad's
// /v1/shard/{op} endpoint decodes and encodes the binary wire form. Do is
// the only place ops are told apart.
//
// A request addresses every shard of the worker that takes part in the step.
// Do runs them concurrently and files each shard's error as that shard's
// Fault, so one broken engine does not cost the other shards their answers;
// only what fails the request as a whole (a malformed message, no design)
// is returned as Do's error.
type Host struct {
	source EngineSource

	mu      sync.Mutex
	runners map[slot]*Runner
	designs map[string]*tokenDesign
	// onTiming is every token's core.ShardTiming observer (nil but in tests).
	onTiming func(ctx context.Context, full bool)
}

// NewHost returns an empty host building engines from source.
func NewHost(source EngineSource) *Host {
	return &Host{source: source, runners: make(map[slot]*Runner), designs: make(map[string]*tokenDesign)}
}

// Do executes the op that req (a pointer to a request type) asks for and
// fills rep in; a close has no reply and ignores it.
func (h *Host) Do(ctx context.Context, req any, rep *Reply) error {
	switch req := req.(type) {
	case *InitRequest:
		if len(req.Inits) != len(req.Shards) {
			break
		}
		d, err := h.design(ctx, req.Token, req.Design)
		if err != nil {
			return fatalUnlessCtx(err)
		}
		h.each(&req.Route, rep, false, func(i int, k slot, _ *Runner) error {
			eng, err := core.NewShardEngine(ctx, d.timing, req.Plan, req.Inits[i].Owned, req.Padding)
			if err != nil {
				return fatalUnlessCtx(err)
			}
			r, err := NewRunner(eng, req.Inits[i].Restore)
			if err != nil {
				return err
			}
			// Publish only an initialized engine, closing the one it replaces:
			// a re-init after a coordinator retry must not leak it.
			h.mu.Lock()
			defer h.mu.Unlock()
			if old := h.runners[k]; old != nil {
				old.Close()
			}
			h.runners[k] = r
			return nil
		})
		return nil
	case *EvalRequest:
		if len(req.Boundary) != len(req.Shards) {
			break
		}
		rep.Evals = make([]EvalResult, len(req.Shards))
		h.each(&req.Route, rep, true, func(i int, _ slot, r *Runner) (err error) {
			rep.Evals[i], err = r.Eval(ctx, req.Seq, req.Wave, req.Boundary[i])
			return err
		})
		return nil
	case *RoundRequest:
		h.each(&req.Route, rep, true, func(_ int, _ slot, r *Runner) error { return r.Round(ctx, req.Changed) })
		return nil
	case *DelayRequest:
		rep.Impacts = make([][][]core.DelayImpact, len(req.Shards))
		h.each(&req.Route, rep, true, func(i int, _ slot, r *Runner) (err error) {
			rep.Impacts[i], err = r.Delay(ctx)
			return err
		})
		return nil
	case *CollectRequest:
		rep.Collects = make([]core.ShardCollect, len(req.Shards))
		h.each(&req.Route, rep, true, func(i int, _ slot, r *Runner) error {
			col, err := r.Collect(ctx)
			if err == nil {
				rep.Collects[i] = *col
			}
			return err
		})
		return nil
	case *CloseRequest:
		h.close(req.Token)
		return nil
	}
	return badRequestError("shard: malformed request %T", req)
}

// each runs fn once per addressed shard, concurrently, and files what it
// returns (or panics with) as the shard's fault. With hosted set fn gets the
// shard's runner, and a shard without one faults.
func (h *Host) each(at *Route, rep *Reply, hosted bool, fn func(i int, k slot, r *Runner) error) {
	rep.Faults = make([]Fault, len(at.Shards))
	var wg sync.WaitGroup
	for i, s := range at.Shards {
		wg.Add(1)
		go func(i int, k slot) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					rep.Faults[i] = Fault{faultTransient, fmt.Sprintf("shard: panic on %s/%d: %v", k.token, k.shard, p)}
				}
			}()
			h.mu.Lock()
			r := h.runners[k]
			h.mu.Unlock()
			if hosted && r == nil {
				rep.Faults[i] = faultOf(badRequestError("shard: op on uninitialized shard %s/%d", k.token, k.shard))
				return
			}
			rep.Faults[i] = faultOf(fn(i, k, r))
		}(i, slot{at.Token, s})
	}
	wg.Wait()
}

// design returns the token's shared design and timing, asking the source on
// the token's first init. The source runs outside the lock; when first inits
// race, the loser releases its copy and takes the winner's. A failed source
// call keeps nothing, so the next init tries again.
func (h *Host) design(ctx context.Context, token string, spec *DesignSpec) (*tokenDesign, error) {
	h.mu.Lock()
	d := h.designs[token]
	h.mu.Unlock()
	if d != nil {
		return d, nil
	}
	b, opts, release, err := h.source(ctx, spec)
	if err != nil {
		return nil, err
	}
	timing := core.NewShardTiming(b, opts, h.onTiming)
	h.mu.Lock()
	defer h.mu.Unlock()
	if prev := h.designs[token]; prev != nil {
		release()
		return prev, nil
	}
	d = &tokenDesign{timing: timing, release: release}
	h.designs[token] = d
	return d, nil
}

// close drops the token's runners and releases its design — every token's
// for "". A token may hold a design without an engine (an init whose every
// build failed); its close releases that one just the same. The release
// runs under the host lock, so it is atomic with the disappearance of the
// token's last engine.
func (h *Host) close(token string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for k, r := range h.runners {
		if token == "" || k.token == token {
			r.Close()
			delete(h.runners, k)
		}
	}
	for t, d := range h.designs {
		if token == "" || t == token {
			d.release()
			delete(h.designs, t)
		}
	}
}

// CloseAll drops every hosted engine (worker shutdown).
func (h *Host) CloseAll() { h.close("") }
