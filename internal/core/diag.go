package core

import (
	"fmt"
	"sort"
)

// Fail-soft degradation: a signoff run over a whole design must not be
// aborted by one malformed victim. When Options.FailSoft is set, a panic
// or error while preparing or evaluating a single net is caught, recorded
// as a Diag, and the victim is substituted with the conservative full-rail
// fallback — its combined noise is pinned at the supply rail over an
// infinite window, so the degradation can hide a violation but never
// invent a pass. Cancellation (context errors) is never degraded: a
// cancelled run returns the context error, not a partial result.

// Degradation stages, recorded in Diag.Stage.
const (
	// StagePrepare covers context and coupled-event construction
	// (prepareNet): RC analysis, parameter validation, fault hooks.
	StagePrepare = "prepare"
	// StageEvaluate covers the per-net windowed combination inside the
	// propagation fixpoint.
	StageEvaluate = "evaluate"
	// StageDelay covers the per-net crosstalk delta-delay evaluation.
	StageDelay = "delay"
	// StageShard marks a victim whose owning shard was lost and could not
	// be reassigned within budget in a distributed run: the coordinator
	// substituted the conservative full-rail fallback for the whole shard.
	StageShard = "shard"
)

// Diag records one net the engine could not analyze and what it did about
// it.
type Diag struct {
	// Net is the victim the failure occurred on.
	Net string
	// Stage names where it failed (StagePrepare, StageEvaluate, StageDelay).
	Stage string
	// Err is the recovered panic or returned error.
	Err error
	// Degraded reports that the conservative full-rail fallback was
	// substituted. It is false for a victim that was analyzed, but under
	// an assumption the inputs forced: a coupling partner the netlist does
	// not have is taken to switch at any time.
	Degraded bool
}

// String renders the diagnostic for logs and reports.
func (d Diag) String() string {
	if !d.Degraded {
		return fmt.Sprintf("net %s: %s: %v", d.Net, d.Stage, d.Err)
	}
	return fmt.Sprintf("net %s: %s failed (degraded to full-rail bound): %v", d.Net, d.Stage, d.Err)
}

// SortDiags orders diagnostics by net name, then stage, then an assumption
// before the degradation that may follow it at the same stage, for deterministic
// reports regardless of worker scheduling — exported for the shard
// coordinator, which merges per-shard diagnostics (disjoint victim sets, so
// no ties) with its own shard-loss records before reporting.
func SortDiags(diags []Diag) {
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Net != diags[j].Net {
			return diags[i].Net < diags[j].Net
		}
		if diags[i].Stage != diags[j].Stage {
			return diags[i].Stage < diags[j].Stage
		}
		return !diags[i].Degraded && diags[j].Degraded
	})
}
