// Package metrics provides the tiny, dependency-free instrumentation
// primitives the snad service exposes through GET /metrics: fixed-bucket
// latency histograms rendered in the Prometheus text exposition format.
//
// A Histogram is safe for concurrent Observe from every request
// goroutine: buckets are atomic counters and the running sum is an
// atomic float64-bits cell, so the hot path is a handful of atomic adds
// with no locks and no allocation. Rendering reads the same atomics;
// a scrape concurrent with observations sees a consistent-enough
// snapshot (Prometheus counters are monotonic, and cumulative bucket
// sums are re-derived at render time).
package metrics

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
)

// DefaultBuckets are the latency bucket upper bounds in seconds used by
// every snad stage histogram: 1ms to 10s in a 1-2.5-5 progression, wide
// enough to cover an admission wait on an idle server and a full
// analysis on a large design.
var DefaultBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style. Create one with NewHistogram; the zero value is not usable.
type Histogram struct {
	name    string
	help    string
	bounds  []float64
	buckets []atomic.Int64 // one per bound, plus +Inf at the end
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum of seconds
}

// NewHistogram builds a histogram with the given metric name, help
// text, and bucket upper bounds (in seconds, ascending). Nil bounds
// use DefaultBuckets.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultBuckets
	}
	return &Histogram{
		name:    name,
		help:    help,
		bounds:  bounds,
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one measurement in seconds.
func (h *Histogram) Observe(seconds float64) {
	i := 0
	for i < len(h.bounds) && seconds > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nu := math.Float64bits(math.Float64frombits(old) + seconds)
		if h.sumBits.CompareAndSwap(old, nu) {
			return
		}
	}
}

// Sum returns the sum of all observed values in seconds.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Write renders the histogram in the Prometheus text exposition format:
// HELP and TYPE headers, one cumulative `_bucket` line per bound plus
// +Inf, then `_sum` and `_count`.
func (h *Histogram) Write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", h.name, formatBound(bound), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(b, "%s_sum %g\n", h.name, h.Sum())
	fmt.Fprintf(b, "%s_count %d\n", h.name, h.count.Load())
}

// formatBound renders a bucket bound the way Prometheus clients expect:
// shortest decimal form, no exponent for the magnitudes in use here.
func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
