package core

import (
	"context"
	"errors"

	"repro/internal/bind"
)

// everything is the reference the change-driven fixpoint is held to: the same
// engine with every prepared victim made stale before each pass and
// delay-stale before each delay pass — what the engine evaluated before it
// tracked what moved. It exists only here.
type everything struct{ *engine }

func (e everything) EvalWave(ctx context.Context, wi int) (bool, error) {
	if wi == 0 {
		e.a.markPrepared(e.a.stale)
	}
	return e.engine.EvalWave(ctx, wi)
}

func (e everything) DelayImpacts(ctx context.Context, passes int, converged bool) (*DelayResult, error) {
	e.a.markPrepared(e.a.delayStale)
	return e.engine.DelayImpacts(ctx, passes, converged)
}

func (a *analyzer) markPrepared(s bitset) {
	for pos := range a.order {
		if a.prepared.has(pos) {
			s.set(pos)
		}
	}
}

// Evals returns how many per-net evaluations the analyzer behind r has
// committed into it, which is its version clock; zero on a merged shard
// result.
func (r *Result) Evals() int { return int(r.tick) }

// TestEngine is the single-process engine as the external oracle
// (oracle_test.go: it needs internal/report and internal/shard, which import
// this package) drives it through RunIterative.
type TestEngine struct {
	Phases
	eng *engine
	// BeforeWave, when set, runs before each wave: the injection point.
	BeforeWave func(wave int)
	// PassEvals collects the evaluations made by each pass of each round.
	PassEvals []int
}

// NewTestEngine returns the change-driven engine, or the evaluate-everything
// reference. As in ResumeIterativeCtx, opts.STA.WindowPadding must be the
// slice the round loop grows.
func NewTestEngine(b *bind.Design, opts Options, reference bool) *TestEngine {
	e := &TestEngine{eng: &engine{b: b, opts: opts}}
	if e.Phases = e.eng; reference {
		e.Phases = everything{e.eng}
	}
	return e
}

func (e *TestEngine) EvalWave(ctx context.Context, wi int) (bool, error) {
	if e.BeforeWave != nil {
		e.BeforeWave(wi)
	}
	if wi == 0 {
		e.PassEvals = append(e.PassEvals, 0)
	}
	before := e.eng.res.Evals()
	changed, err := e.Phases.EvalWave(ctx, wi)
	e.PassEvals[len(e.PassEvals)-1] += e.eng.res.Evals() - before
	return changed, err
}

func (e *TestEngine) Noise() *Result { return e.eng.res }

// Degrade degrades one net at the given stage, as a failure there does.
func (e *TestEngine) Degrade(net, stage string) {
	a := e.eng.a
	a.degradeNet(int(a.posByID[a.b.Net.FindNet(net)]), stage, errors.New("injected "+stage+" failure"))
}

// ReanalyzeReference is Reanalyze through the evaluate-everything reference.
func (s *Session) ReanalyzeReference(ctx context.Context, padding map[string]float64) (*Result, int, error) {
	s.phases = everything{&s.eng}
	defer func() { s.phases = &s.eng }()
	return s.Reanalyze(ctx, padding)
}
