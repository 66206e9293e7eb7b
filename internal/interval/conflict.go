package interval

import (
	"math"
	"sort"
)

// MaxOverlapSumConstrained answers the combination query under pairwise
// exclusion constraints: over all instants t, the maximum total weight of a
// subset of windows that (a) all contain t and (b) contains no conflicting
// pair. conflict(i, j) reports whether items i and j may never combine —
// in noise analysis, aggressors whose transitions are logically mutually
// exclusive (same single source with opposite polarity).
//
// With a nil or always-false conflict this reduces exactly to
// MaxOverlapSum. The optimum is still achieved at some window's left edge,
// so the scan enumerates those; at each candidate instant the active items
// form a conflict graph whose maximum-weight independent set is computed
// exactly by branch and bound (active sets in noise analysis are small —
// the aggressors of one victim).
func MaxOverlapSumConstrained(items []Weighted, conflict func(i, j int) bool) Combination {
	if conflict == nil {
		return MaxOverlapSum(items)
	}
	// Candidate instants: every non-empty positive-weight window's Lo.
	cands := make([]float64, 0, len(items))
	for _, it := range items {
		if !it.W.IsEmpty() && it.Weight > 0 {
			cands = append(cands, it.W.Lo)
		}
	}
	if len(cands) == 0 {
		return Combination{Sum: 0, At: math.NaN()}
	}
	sort.Float64s(cands)
	best := Combination{Sum: 0, At: math.NaN()}
	for _, t := range cands {
		var active []int
		for i, it := range items {
			if it.Weight > 0 && it.W.Contains(t) {
				active = append(active, i)
			}
		}
		if len(active) == 0 {
			continue
		}
		sum, members := maxWeightIndependent(items, active, conflict)
		if sum > best.Sum {
			best = Combination{Sum: sum, At: t, Members: members}
		}
	}
	if best.Members != nil {
		sort.Ints(best.Members)
	}
	return best
}

// maxWeightIndependent computes the exact maximum-weight independent set of
// the conflict graph over the active items by branch and bound.
func maxWeightIndependent(items []Weighted, active []int, conflict func(i, j int) bool) (float64, []int) {
	weights := make([]float64, len(items))
	for _, i := range active {
		weights[i] = items[i].Weight
	}
	return MaxWeightIndependentSet(weights, active, conflict)
}

// MaxWeightIndependentSet computes the exact maximum-weight independent set
// over the active indices of a conflict graph, by branch and bound with a
// remaining-weight upper bound. weights is indexed by the same space as
// active's entries and conflict's arguments. Exposed for callers whose
// per-item weights vary by alignment instant (the tent-occupancy noise
// combination).
func MaxWeightIndependentSet(weights []float64, active []int, conflict func(i, j int) bool) (float64, []int) {
	var sc Scan
	return sc.MaxWeightIndependentSet(weights, active, conflict)
}

// MaxWeightIndependentSet is the package function of that name over sc's
// buffers.
func (sc *Scan) MaxWeightIndependentSet(weights []float64, active []int, conflict func(i, j int) bool) (float64, []int) {
	m := &sc.mwis
	m.weights, m.conflict = weights, conflict
	// Sort heaviest-first: tightens the bound early.
	m.active = append(m.active[:0], active...)
	sort.Sort(m)
	m.suffix = append(m.suffix[:0], make([]float64, len(active)+1)...)
	for i := len(active) - 1; i >= 0; i-- {
		m.suffix[i] = m.suffix[i+1] + weights[m.active[i]]
	}
	m.bestSum, m.bestSet, m.cur = 0, m.bestSet[:0], m.cur[:0]
	m.search(0, 0)
	m.weights, m.conflict = nil, nil // the buffers outlive the query; the caller's closure need not
	return m.bestSum, m.bestSet
}

// mwis is one branch-and-bound search: the query, the incumbent and the
// buffers. It sorts its active list by descending weight (sort.Interface).
type mwis struct {
	weights  []float64
	conflict func(i, j int) bool
	active   []int
	suffix   []float64 // suffix[p] = total weight of active[p:]
	cur      []int
	bestSum  float64
	bestSet  []int
}

func (m *mwis) Len() int           { return len(m.active) }
func (m *mwis) Less(a, b int) bool { return m.weights[m.active[a]] > m.weights[m.active[b]] }
func (m *mwis) Swap(a, b int)      { m.active[a], m.active[b] = m.active[b], m.active[a] }

func (m *mwis) search(pos int, sum float64) {
	if sum+m.suffix[pos] <= m.bestSum {
		return // cannot beat the incumbent
	}
	if pos == len(m.active) {
		if sum > m.bestSum {
			m.bestSum = sum
			m.bestSet = append(m.bestSet[:0], m.cur...)
		}
		return
	}
	idx := m.active[pos]
	// Include idx if compatible with the current set.
	ok := true
	if m.conflict != nil {
		for _, c := range m.cur {
			if m.conflict(c, idx) || m.conflict(idx, c) {
				ok = false
				break
			}
		}
	}
	if ok {
		m.cur = append(m.cur, idx)
		m.search(pos+1, sum+m.weights[idx])
		m.cur = m.cur[:len(m.cur)-1]
	}
	// Exclude idx.
	m.search(pos+1, sum)
}
