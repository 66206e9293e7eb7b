package chaos

import (
	"context"
	"fmt"
)

// JobFaults injects failures into the async job executor, the way
// StoreFaults injects them into the store's write path and RuntimeFaults
// into the engine. The jobs manager calls Fire at the top of each
// execution attempt; a matching rule fires once (or, with count "*",
// every attempt) and simulates the executor misbehaving:
//
//	panic    the attempt panics — exercising the manager's recover
//	         barrier and, repeated MaxAttempts times, the poison-job
//	         quarantine
//	error    the attempt fails with a plain (transient-shaped) error
//	degrade  the attempt completes but reports an engine-degraded
//	         result, the breaker-feeding outcome
//	hang     the attempt blocks until its context is cancelled —
//	         exercising per-job deadlines and cancellation
//
// Rules select on the job type: "analyze", "reanalyze", "iterate",
// "sweep", or "*" for any.
//
// The struct is safe for concurrent use; job attempts run in parallel.
type JobFaults faultRules

var jobFaultGrammar = faultGrammar{
	what: "job", target: "type", example: "panic:iterate:2",
	kinds:   []string{"panic", "error", "degrade", "hang"},
	targets: []string{"analyze", "reanalyze", "iterate", "sweep"}, wantTargets: "analyze|reanalyze|iterate|sweep|*",
}

// ParseJobFaults parses a comma-separated spec of kind:type[:n] rules,
// e.g. "panic:iterate:*,error:analyze,hang:*". Kinds are panic, error,
// degrade, hang; types are analyze, reanalyze, iterate, sweep, or *; n
// selects the n-th matching attempt (default 1), and n "*" fires every
// attempt. An empty spec returns nil (no faults).
func ParseJobFaults(spec string) (*JobFaults, error) {
	r, err := jobFaultGrammar.parse(spec)
	return (*JobFaults)(r), err
}

// Fire runs at the top of one job execution attempt. It panics for
// "panic" rules, blocks until ctx is done for "hang" rules, and
// otherwise reports whether the attempt should be forced degraded and/or
// failed. A nil receiver is a no-op.
func (f *JobFaults) Fire(ctx context.Context, jobType string) (degrade bool, err error) {
	switch (*faultRules)(f).match(jobType) {
	case "panic":
		panic(fmt.Sprintf("chaos: injected panic fault on %s job", jobType))
	case "error":
		return false, fmt.Errorf("chaos: injected error fault on %s job", jobType)
	case "degrade":
		return true, nil
	case "hang":
		<-ctx.Done()
		return false, ctx.Err()
	}
	return false, nil
}
