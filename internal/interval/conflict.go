package interval

import "sort"

// MaxWeightIndependentSet computes the exact maximum-weight independent set
// over the active indices of a conflict graph, by branch and bound with a
// remaining-weight upper bound. weights is indexed by the same space as
// active's entries and conflict's arguments. It is the combination query
// under pairwise exclusion constraints: at one alignment instant, the
// heaviest subset of the windows active there that contains no conflicting
// pair — in noise analysis, aggressors whose transitions are logically
// mutually exclusive (same single source with opposite polarity). Active
// sets are small (the aggressors of one victim), so the search is exact.
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
