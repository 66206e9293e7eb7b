package shard

import (
	"context"
	"reflect"
	"sync"

	"repro/internal/bind"
	"repro/internal/core"
)

// EngineSource supplies the bound design and the engine options for a run
// token's shards on this host. spec is the init request's shipped design
// (nil from a coordinator that expects the host to have its own). The
// design may be shared by every engine of the token — a bound design is
// immutable after binding apart from internally guarded caches — so a
// source should build it once per token; everything mutable (timing
// annotation, padding, noise state) is private to each engine.
type EngineSource func(ctx context.Context, token string, spec *DesignSpec) (*bind.Design, core.Options, error)

// Host keeps the shard runners one worker hosts, keyed by (run token,
// shard), and executes protocol ops against them. Both worker kinds are a
// Host behind a transport: InProc copies typed values in and out, snad's
// /v1/shard/{op} endpoint decodes and encodes JSON. Do is the only place
// ops are told apart.
type Host struct {
	source EngineSource
	// drop, when non-nil, is told when a token's last runner is gone, so
	// the source can release what it holds for the token.
	drop func(token string)

	mu      sync.Mutex
	runners map[Route]*Runner
}

// NewHost returns an empty host building engines from source.
func NewHost(source EngineSource, drop func(token string)) *Host {
	return &Host{source: source, drop: drop, runners: make(map[Route]*Runner)}
}

// Do executes one op. bind fills the op's request in — by decoding a body
// or by copying a typed value — and Do returns the op's response, nil for
// ops that have none. A bind error is returned as is.
func (h *Host) Do(ctx context.Context, op string, bind func(req any) error) (any, error) {
	switch op {
	case OpInit:
		var req InitRequest
		if err := bind(&req); err != nil {
			return nil, err
		}
		// The runner keeps its builder: hand it the token and the spec, not
		// the whole request with its restore list.
		token, spec := req.Token, req.Design
		r := NewRunner(func(ctx context.Context, owned []string, padding map[string]float64) (*core.ShardEngine, error) {
			b, opts, err := h.source(ctx, token, spec)
			if err != nil {
				return nil, err
			}
			return core.NewShardEngine(ctx, b, opts, owned, padding)
		})
		if err := r.Init(ctx, &req); err != nil {
			return nil, err
		}
		// Publish only an initialized engine, closing the one it replaces:
		// a re-init after a coordinator retry must not leak it.
		h.mu.Lock()
		if old := h.runners[req.Route]; old != nil {
			old.Close()
		}
		h.runners[req.Route] = r
		h.mu.Unlock()
		return nil, nil
	case OpEval:
		req := &EvalRequest{}
		r, err := h.bound(op, req, bind)
		if err != nil {
			return nil, err
		}
		return r.Eval(ctx, req)
	case OpRound:
		req := &RoundRequest{}
		r, err := h.bound(op, req, bind)
		if err != nil {
			return nil, err
		}
		return nil, r.Round(ctx, req)
	case OpDelay:
		req := &DelayRequest{}
		r, err := h.bound(op, req, bind)
		if err != nil {
			return nil, err
		}
		return r.Delay(ctx, req)
	case OpCollect:
		req := &CollectRequest{}
		r, err := h.bound(op, req, bind)
		if err != nil {
			return nil, err
		}
		return r.Collect(ctx, req)
	case OpClose:
		var req CloseRequest
		if err := bind(&req); err != nil {
			return nil, err
		}
		h.close(func(k Route) bool {
			return k.Token == req.Token && (req.Shard < 0 || k.Shard == req.Shard)
		})
		return nil, nil
	}
	return nil, badRequestError("shard: unknown op %q", op)
}

// bound fills req in and finds the runner it is routed to.
func (h *Host) bound(op string, req routed, bind func(any) error) (*Runner, error) {
	if err := bind(req); err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	at := *req.route()
	if r := h.runners[at]; r != nil {
		return r, nil
	}
	return nil, badRequestError("shard: %s on uninitialized shard %s/%d", op, at.Token, at.Shard)
}

// close drops every matching runner, then reports each token left without
// one. drop runs under the host lock so a token's release is atomic with
// the disappearance of its last engine.
func (h *Host) close(match func(Route) bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	gone := make(map[string]bool)
	for k, r := range h.runners {
		if match(k) {
			r.Close()
			delete(h.runners, k)
			gone[k.Token] = true
		}
	}
	for k := range h.runners {
		delete(gone, k.Token)
	}
	if h.drop != nil {
		for token := range gone {
			h.drop(token)
		}
	}
}

// CloseAll drops every hosted engine (worker shutdown).
func (h *Host) CloseAll() {
	h.close(func(Route) bool { return true })
}

// assign copies *src into *dst — the in-process stand-in for an encode and
// decode. Both must be non-nil pointers to the same wire type.
func assign(dst, src any) error {
	d, s := reflect.ValueOf(dst), reflect.ValueOf(src)
	if src == nil || s.Type() != d.Type() || s.IsNil() {
		return badRequestError("shard: want %T, got %T", dst, src)
	}
	d.Elem().Set(s.Elem())
	return nil
}
