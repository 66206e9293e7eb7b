package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
)

// fatalUnlessCtx classifies a runner error: cancellation is transient (the
// coordinator may retry), anything else from the deterministic analysis
// paths would recur on any worker and is fatal to the run.
func fatalUnlessCtx(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return &FatalError{Err: err}
}

// BuildEngine constructs a shard engine over the worker's design (shared
// across the worker's engines, see EngineSource).
type BuildEngine func(ctx context.Context, owned []string, padding map[string]float64) (*core.ShardEngine, error)

// Runner hosts one shard's engine behind the op protocol. It owns the two
// pieces of protocol state that make dispatch retries exact:
//
//   - the eval memo: forwarded updates and the pass-changed bit are
//     accumulated per eval Seq across attempts, so a retried dispatch whose
//     predecessor half-ran (or ran fully but lost its response) reports
//     every commit since the wave began;
//
//   - the broken flag: a padding update that dies halfway leaves the
//     timing annotation inconsistent, so the engine refuses further work
//     with ErrEngineBroken until the coordinator re-initializes it.
//
// All methods serialize on one mutex: a shard's ops are inherently ordered
// (the coordinator never overlaps them), the lock just makes stray
// concurrent calls safe.
type Runner struct {
	build BuildEngine

	mu      sync.Mutex
	eng     *core.ShardEngine
	broken  error
	evalSeq int
	// pending and changed accumulate the forwarded combinations and the
	// pass-changed bit of the current eval Seq; evalDone marks the wave
	// fully evaluated (a duplicate dispatch then replays the response
	// without re-running).
	pending  map[string][2]core.Combined
	changed  bool
	evalDone bool
}

// NewRunner returns a runner that builds engines with build.
func NewRunner(build BuildEngine) *Runner {
	return &Runner{build: build}
}

// Init builds (or rebuilds) the engine: owned nets, padding-seeded timing,
// and restored authoritative combinations.
func (r *Runner) Init(ctx context.Context, req *InitRequest) error {
	eng, err := r.build(ctx, req.Owned, padMap(req.Padding))
	if err != nil {
		return fatalUnlessCtx(err)
	}
	for _, nc := range req.Restore {
		eng.SetComb(nc.Net, combsFromWire(nc.Comb))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.eng = eng
	r.broken = nil
	r.evalSeq = 0
	r.resetMemo()
	return nil
}

func (r *Runner) resetMemo() {
	r.pending = nil
	r.changed = false
	r.evalDone = false
}

func (r *Runner) engine() (*core.ShardEngine, error) {
	if r.broken != nil {
		return nil, fmt.Errorf("%w: %v", ErrEngineBroken, r.broken)
	}
	if r.eng == nil {
		return nil, badRequestError("shard: runner has no engine (init not seen)")
	}
	return r.eng, nil
}

// Eval applies the request's boundary combinations and evaluates the wave,
// returning every commit of this Seq (including ones from earlier aborted
// attempts).
func (r *Runner) Eval(ctx context.Context, req *EvalRequest) (*EvalResponse, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	eng, err := r.engine()
	if err != nil {
		return nil, err
	}
	if req.Seq != r.evalSeq {
		r.evalSeq = req.Seq
		r.resetMemo()
	}
	if r.evalDone {
		return r.evalResponse(), nil
	}
	for _, nc := range req.Boundary {
		eng.SetComb(nc.Net, combsFromWire(nc.Comb))
	}
	if r.pending == nil {
		r.pending = make(map[string][2]core.Combined)
	}
	ups, changed, err := eng.EvalWave(ctx, req.Wave)
	for _, u := range ups {
		r.pending[u.Net] = u.Comb
	}
	r.changed = r.changed || changed
	if err != nil {
		return nil, fatalUnlessCtx(err)
	}
	r.evalDone = true
	return r.evalResponse(), nil
}

func (r *Runner) evalResponse() *EvalResponse {
	nets := make([]string, 0, len(r.pending))
	for net := range r.pending {
		nets = append(nets, net)
	}
	sort.Strings(nets)
	resp := &EvalResponse{Changed: r.changed}
	for _, net := range nets {
		resp.Updates = append(resp.Updates, NetComb{Net: net, Comb: forwardToWire(r.pending[net])})
	}
	return resp
}

// Round applies one round of padding growth. A failure marks the engine
// broken: the timing update mutates in place and a partial update is not a
// state any single-process run ever visits.
func (r *Runner) Round(ctx context.Context, req *RoundRequest) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	eng, err := r.engine()
	if err != nil {
		return err
	}
	changed := make([]string, len(req.Changed))
	padding := make(map[string]float64, len(req.Changed))
	for i, e := range req.Changed {
		changed[i] = e.Net
		padding[e.Net] = e.Pad
	}
	if err := eng.ApplyRound(ctx, changed, padding); err != nil {
		r.broken = err
		return fmt.Errorf("%w: %v", ErrEngineBroken, err)
	}
	// A new round invalidates the eval memo (the coordinator also bumps
	// Seq, this is belt and braces).
	r.resetMemo()
	return nil
}

// Delay runs the delta-delay pass over the owned nets.
func (r *Runner) Delay(ctx context.Context, req *DelayRequest) (*DelayResponse, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	eng, err := r.engine()
	if err != nil {
		return nil, err
	}
	ims, err := eng.DelayImpacts(ctx)
	if err != nil {
		return nil, fatalUnlessCtx(err)
	}
	resp := &DelayResponse{}
	for _, im := range ims {
		resp.Impacts = append(resp.Impacts, impactToWire(im))
	}
	return resp, nil
}

// Collect returns the shard's slice of the final result.
func (r *Runner) Collect(ctx context.Context, req *CollectRequest) (*CollectResponse, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	eng, err := r.engine()
	if err != nil {
		return nil, err
	}
	col, err := eng.Collect(ctx)
	if err != nil {
		return nil, err
	}
	resp := &CollectResponse{
		Pairs:      col.Pairs,
		Filtered:   col.Filtered,
		Propagated: col.Propagated,
	}
	for _, nn := range col.Nets {
		resp.Nets = append(resp.Nets, netNoiseToWire(nn))
	}
	for _, v := range col.Violations {
		resp.Violations = append(resp.Violations, violationToWire(v))
	}
	for _, s := range col.Slacks {
		resp.Slacks = append(resp.Slacks, slackToWire(s))
	}
	for _, d := range col.Diags {
		resp.Diags = append(resp.Diags, diagToWire(d))
	}
	return resp, nil
}

// Close drops the engine.
func (r *Runner) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.eng = nil
	r.broken = nil
	r.resetMemo()
}
