// Package liberty models the standard-cell library data static timing and
// noise analysis consume: NLDM-style two-dimensional lookup tables for delay
// and output slew, pin capacitances, driver resistances (both switching
// drive and quiet holding resistance), noise-rejection (immunity) curves,
// and noise-transfer characteristics.
//
// Two sources of libraries are provided: Generic (a synthesized,
// self-consistent educational library used by the workload generators and
// experiments) and Parse (a line-oriented ".nlib" text format so designs can
// ship with their own characterization).
package liberty

import (
	"fmt"
	"sort"
)

// Table2D is a lookup table over (input slew, output load) with bilinear
// interpolation inside the grid and clamped evaluation outside it. Clamping
// (rather than extrapolation) keeps the analysis conservative and avoids
// negative delays from runaway extrapolation at tiny loads.
type Table2D struct {
	Slews []float64   // ascending input transition times, seconds
	Loads []float64   // ascending output loads, farads
	Vals  [][]float64 // Vals[i][j] = value at Slews[i], Loads[j]
}

// NewTable2D validates and returns a table. Axes must be ascending and
// non-empty and Vals must be len(slews) x len(loads).
func NewTable2D(slews, loads []float64, vals [][]float64) (*Table2D, error) {
	if len(slews) == 0 || len(loads) == 0 {
		return nil, fmt.Errorf("liberty: empty table axis")
	}
	if !sort.Float64sAreSorted(slews) || !sort.Float64sAreSorted(loads) {
		return nil, fmt.Errorf("liberty: table axes must be ascending")
	}
	if len(vals) != len(slews) {
		return nil, fmt.Errorf("liberty: table has %d rows, want %d", len(vals), len(slews))
	}
	for i, row := range vals {
		if len(row) != len(loads) {
			return nil, fmt.Errorf("liberty: table row %d has %d cols, want %d", i, len(row), len(loads))
		}
	}
	return &Table2D{Slews: slews, Loads: loads, Vals: vals}, nil
}

// Eval returns the bilinearly interpolated table value at the given input
// slew and output load, clamped to the table's corner values outside the
// characterized grid.
func (t *Table2D) Eval(slew, load float64) float64 {
	i0, i1, fi := locate(t.Slews, slew)
	j0, j1, fj := locate(t.Loads, load)
	v00 := t.Vals[i0][j0]
	v01 := t.Vals[i0][j1]
	v10 := t.Vals[i1][j0]
	v11 := t.Vals[i1][j1]
	return v00*(1-fi)*(1-fj) + v01*(1-fi)*fj + v10*fi*(1-fj) + v11*fi*fj
}

// locate finds the bracketing indices and interpolation fraction for x in
// ascending axis, clamping outside the range.
func locate(axis []float64, x float64) (lo, hi int, frac float64) {
	n := len(axis)
	if n == 1 || x <= axis[0] {
		return 0, 0, 0
	}
	if x >= axis[n-1] {
		return n - 1, n - 1, 0
	}
	i := sort.SearchFloat64s(axis, x)
	if axis[i] == x {
		return i, i, 0
	}
	lo, hi = i-1, i
	frac = (x - axis[lo]) / (axis[hi] - axis[lo])
	return lo, hi, frac
}

// MaxVal returns the largest value in the table; MinVal the smallest. The
// timing engine uses them for worst-case bounds when windows are widened
// conservatively.
func (t *Table2D) MaxVal() float64 {
	best := t.Vals[0][0]
	for _, row := range t.Vals {
		for _, v := range row {
			if v > best {
				best = v
			}
		}
	}
	return best
}

// MinVal returns the smallest value in the table.
func (t *Table2D) MinVal() float64 {
	best := t.Vals[0][0]
	for _, row := range t.Vals {
		for _, v := range row {
			if v < best {
				best = v
			}
		}
	}
	return best
}
