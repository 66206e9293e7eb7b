package workload

import (
	"fmt"
	"time"
)

// WorkerFaults injects failures into the shard coordinator's worker
// transport, the way StoreFaults injects them into the store's write path.
// The transport consults Intercept before (and, for partial, after) every
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

// InjectedWorkerFault marks a simulated transport or worker failure: the
// coordinator must treat the dispatch as failed and recover (retry,
// reassign, or degrade) exactly as it would for a real loss.
type InjectedWorkerFault struct {
	Kind string
	Op   string
}

func (e *InjectedWorkerFault) Error() string {
	return fmt.Sprintf("workload: injected %s fault on worker %s", e.Kind, e.Op)
}

// WorkerFaultAction is what the transport should do to one dispatched call.
// Zero value means "proceed normally".
type WorkerFaultAction struct {
	// Drop blocks the call until the caller's context deadline.
	Drop bool
	// Delay holds the call for WorkerFaultDelay before proceeding.
	Delay bool
	// Err fails the call immediately without executing it.
	Err error
	// Partial executes the call but discards the response, failing the
	// dispatch afterwards.
	Partial bool
	// Kill marks the worker permanently dead.
	Kill bool
}

// ParseWorkerFaults parses a comma-separated spec of kind:op[:n] rules,
// e.g. "kill:eval:3,delay:round,partial:eval:*". Kinds are drop, delay,
// error, partial, kill; ops are the shard protocol operations or *; n
// selects the n-th matching call (default 1), and n "*" fires every time.
// An empty spec returns nil (no faults).
func ParseWorkerFaults(spec string) (*WorkerFaults, error) {
	r, err := workerFaultGrammar.parse(spec)
	return (*WorkerFaults)(r), err
}

// Intercept reports what to do with one dispatched call. At most one rule
// fires per call: the first armed match in spec order.
func (f *WorkerFaults) Intercept(op string) WorkerFaultAction {
	switch (*faultRules)(f).match(op) {
	case "drop":
		return WorkerFaultAction{Drop: true}
	case "delay":
		return WorkerFaultAction{Delay: true}
	case "error":
		return WorkerFaultAction{Err: &InjectedWorkerFault{Kind: "error", Op: op}}
	case "partial":
		return WorkerFaultAction{Partial: true}
	case "kill":
		return WorkerFaultAction{Kill: true}
	}
	return WorkerFaultAction{}
}
