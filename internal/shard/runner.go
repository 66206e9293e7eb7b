package shard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
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

// Runner hosts one shard's engine behind the op protocol. It owns the two
// pieces of protocol state that make dispatch retries exact:
//
//   - the eval memo: forwarded updates and the pass-changed bit are
//     accumulated per eval Seq across attempts, so a retried dispatch whose
//     predecessor half-ran (or ran fully but lost its response) reports
//     every commit since the wave began;
//
//   - the broken flag: a round that dies halfway leaves the engine's
//     prepared victims inconsistent with its timing, so the engine refuses
//     further work with ErrEngineBroken until the coordinator
//     re-initializes it. (The shared timing itself is never left half
//     updated: a round updates a copy.)
//
// All methods serialize on one mutex: a shard's ops are inherently ordered
// (the coordinator never overlaps them), the lock just makes stray
// concurrent calls safe.
type Runner struct {
	mu      sync.Mutex
	eng     *core.ShardEngine
	broken  error
	evalSeq int
	// pending and changed accumulate the forwarded combinations, in commit
	// order, and the pass-changed bit of the current eval Seq; evalDone marks
	// the wave fully evaluated (a duplicate dispatch then replays the
	// response without re-running).
	pending  []NetComb
	changed  bool
	evalDone bool
}

// NewRunner hosts eng with the authoritative combinations restored (none on
// a first init, the coordinator's committed state on a mid-run rebuild).
func NewRunner(eng *core.ShardEngine, restore []NetComb) (*Runner, error) {
	if err := setCombs(eng, restore); err != nil {
		return nil, err
	}
	return &Runner{eng: eng}, nil
}

// setCombs installs combinations the coordinator sent; a position the
// engine's order lacks is the coordinator's bug, not a transient fault.
func setCombs(eng *core.ShardEngine, combs []NetComb) error {
	for _, nc := range combs {
		if err := eng.SetComb(nc.Pos, nc.Comb); err != nil {
			return &FatalError{Err: err}
		}
	}
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
		return nil, badRequestError("shard: runner is closed")
	}
	return r.eng, nil
}

// Eval applies the boundary combinations and evaluates the wave, returning
// every commit of this Seq (including ones from earlier aborted attempts).
func (r *Runner) Eval(ctx context.Context, seq, wave int, boundary []NetComb) (EvalResult, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	eng, err := r.engine()
	if err != nil {
		return EvalResult{}, err
	}
	if seq != r.evalSeq {
		r.evalSeq = seq
		r.resetMemo()
	}
	if r.evalDone {
		return r.evalResult(), nil
	}
	if err := setCombs(eng, boundary); err != nil {
		return EvalResult{}, err
	}
	ups, changed, err := eng.EvalWave(ctx, wave)
	r.pending = append(r.pending, ups...)
	r.changed = r.changed || changed
	if err != nil {
		return EvalResult{}, fatalUnlessCtx(err)
	}
	r.evalDone = true
	return r.evalResult(), nil
}

// evalResult answers with the Seq's commits by position, the last one of a
// net that a retried attempt committed again.
func (r *Runner) evalResult() EvalResult {
	slices.SortStableFunc(r.pending, func(a, b NetComb) int { return cmp.Compare(a.Pos, b.Pos) })
	res := EvalResult{Changed: r.changed}
	for i, u := range r.pending {
		if i+1 == len(r.pending) || r.pending[i+1].Pos != u.Pos {
			res.Updates = append(res.Updates, u)
		}
	}
	return res
}

// Round applies one round of padding growth. A position outside the order
// is a bad request; a failure after the engine moved marks it broken (a
// partial re-preparation is no state a single-process run visits); any other
// failure left the engine as it was, so a retry may re-send the round.
func (r *Runner) Round(ctx context.Context, changed []PadEntry) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	eng, err := r.engine()
	if err != nil {
		return err
	}
	switch err := eng.ApplyRound(ctx, changed); {
	case errors.Is(err, core.ErrPosition):
		return &FatalError{Err: err}
	case errors.Is(err, core.ErrSessionBroken):
		r.broken = err
		return fmt.Errorf("%w: %v", ErrEngineBroken, err)
	case err != nil:
		return fatalUnlessCtx(err)
	}
	// A new round invalidates the eval memo (the coordinator also bumps
	// Seq, this is belt and braces).
	r.resetMemo()
	return nil
}

// Delay runs the delta-delay pass over the owned nets and returns their
// impacts, a list per owned net.
func (r *Runner) Delay(ctx context.Context) ([][]core.DelayImpact, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	eng, err := r.engine()
	if err != nil {
		return nil, err
	}
	ims, err := eng.DelayImpacts(ctx)
	return ims, fatalUnlessCtx(err)
}

// Collect returns the shard's slice of the final result.
func (r *Runner) Collect(ctx context.Context) (*core.ShardCollect, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	eng, err := r.engine()
	if err != nil {
		return nil, err
	}
	return eng.Collect(ctx)
}

// Close drops the engine.
func (r *Runner) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.eng = nil
	r.broken = nil
	r.resetMemo()
}
