package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// calmest is the smallest median of k consecutive samples (the median of
// all of them when there are fewer than k): the unit time over the stretch
// of the window that the host's other tenants disturbed least. On a shared
// host interference only ever adds time, and arrives in episodes longer
// than a unit of work, so the plain median of a window moves with how much
// of the window an episode covered; the calmest stretch does not, as long
// as the window holds one quiet stretch of k units. The median inside the
// stretch keeps a single lucky sample from deciding the value.
func calmest(xs []float64, k int) float64 {
	if len(xs) <= k {
		return median(xs)
	}
	best := math.Inf(1)
	for i := 0; i+k <= len(xs); i++ {
		if m := median(xs[i : i+k]); m < best {
			best = m
		}
	}
	return best
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), which
// is what the benchmark's acceptance rule is written in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 { // the i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
