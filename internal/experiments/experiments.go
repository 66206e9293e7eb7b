// Package experiments regenerates every table and figure of the
// (reconstructed) evaluation. Each experiment returns report tables whose
// rows are the series the paper plots; cmd/noisebench prints them and the
// root bench_test.go wraps them as testing.B benchmarks.
//
// The experiment IDs, workloads, and expected result shapes are indexed in
// DESIGN.md §4 and the measured outcomes are recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/report"
)

// Config scales experiments between test-suite speed and full fidelity.
type Config struct {
	// Quick shrinks sweeps so the whole suite runs in seconds (used by
	// unit tests); the full runs back EXPERIMENTS.md.
	Quick bool
	// Ctx cancels a sweep between experiments (nil = background). Long
	// full-fidelity runs check it so noisebench -timeout can stop a
	// stuck sweep instead of hanging CI.
	Ctx context.Context
}

// ctx returns the configured context, defaulting to background.
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// Runner is one experiment's entry point.
type Runner func(Config) ([]*report.Table, error)

// Index maps experiment IDs (as used by `noisebench -run`) to runners.
var Index = map[string]Runner{
	"A1":  A1Widening,
	"A2":  A2Multiphase,
	"A3":  A3Corners,
	"T1":  T1Pessimism,
	"T2":  T2Accuracy,
	"T3":  T3Runtime,
	"T4":  T4Convergence,
	"T5":  T5Filtering,
	"T6":  T6Combination,
	"T7":  T7DeltaDelay,
	"T8":  T8Shielding,
	"T9":  T9Correlation,
	"T10": T10Iteration,
	"T11": T11MonteCarlo,
	"F1":  F1Alignment,
	"F2":  F2Propagation,
	"F3":  F3Waveform,
}

// IDs returns the experiment identifiers in order.
func IDs() []string {
	ids := make([]string, 0, len(Index))
	for id := range Index {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by ID.
func Run(id string, cfg Config) ([]*report.Table, error) {
	r, ok := Index[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	if err := cfg.ctx().Err(); err != nil {
		return nil, err
	}
	return r(cfg)
}

// All executes every experiment in ID order, stopping at the first
// cancellation or failure.
func All(cfg Config) ([]*report.Table, error) {
	var out []*report.Table
	for _, id := range IDs() {
		if err := cfg.ctx().Err(); err != nil {
			return nil, err
		}
		ts, err := Run(id, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", id, err)
		}
		out = append(out, ts...)
	}
	return out, nil
}
