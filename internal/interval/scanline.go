package interval

import (
	"math"
	"slices"
)

// Weighted couples a window with a non-negative weight. In noise combination
// the weight is a glitch's peak voltage and the window is its noise window:
// the instants at which that peak can occur.
type Weighted struct {
	W      Window
	Weight float64
}

// Combination is the result of a scan-line max-overlap-sum query.
type Combination struct {
	// Sum is the maximum achievable total weight at a single instant.
	Sum float64
	// At is an instant achieving Sum. When a whole interval achieves it,
	// At is that interval's left edge. NaN when Sum is 0 and no window
	// contributed.
	At float64
	// Members lists the indices (into the query slice) of the windows that
	// contain At, i.e. the glitches that align to produce Sum.
	Members []int
}

// Scan owns the buffers of the window kernels (MaxOverlapSum,
// MaxWeightIndependentSet), so a caller that asks once per victim edge or
// per alignment instant allocates nothing once the buffers are warm. The
// zero value is ready to use; one Scan serves one goroutine. The index
// slices a query returns alias the Scan and hold until its next query.
type Scan struct {
	edges   []edge
	members []int
	mwis    mwis
}

// edge is one end of a weighted window on the scan line.
type edge struct {
	t     float64
	start bool
	w     float64
}

// byInstant orders edges by time. Closed intervals: at a tie instant, starts
// are processed before ends so that windows touching at a point are counted
// as overlapping there.
func byInstant(a, b edge) int {
	switch {
	case a.t != b.t:
		if a.t < b.t {
			return -1
		}
		return 1
	case a.start && !b.start:
		return -1
	}
	return 0
}

// MaxOverlapSum computes the classical windowed-combination query: over all
// instants t, the maximum of the summed weights of the windows containing t.
//
// This is exactly the paper's noise-window combination step — aggressor and
// propagated glitches may only superpose when their noise windows share an
// instant, and the worst combined glitch is the heaviest overlapping subset.
// Without windows (all windows infinite) it degenerates to the pessimistic
// sum of all weights.
//
// Windows with empty intervals or non-positive weights contribute nothing.
// The scan runs in O(n log n).
func (sc *Scan) MaxOverlapSum(items []Weighted) Combination {
	edges := sc.edges[:0]
	for _, it := range items {
		if it.W.IsEmpty() || it.Weight <= 0 {
			continue
		}
		edges = append(edges, edge{t: it.W.Lo, start: true, w: it.Weight}, edge{t: it.W.Hi, w: it.Weight})
	}
	sc.edges = edges
	if len(edges) == 0 {
		return Combination{Sum: 0, At: math.NaN()}
	}
	slices.SortFunc(edges, byInstant)
	var cur, best float64
	bestAt := edges[0].t
	for _, e := range edges {
		if e.start {
			cur += e.w
			if cur > best {
				best = cur
				bestAt = e.t
			}
		} else {
			cur -= e.w
		}
	}
	members := sc.members[:0]
	for i, it := range items {
		if it.Weight > 0 && it.W.Contains(bestAt) {
			members = append(members, i)
		}
	}
	sc.members = members
	return Combination{Sum: best, At: bestAt, Members: members}
}
