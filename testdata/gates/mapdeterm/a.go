// Golden cases for the mapdeterm analyzer: map iteration must not feed
// ordering-sensitive output without a sort.
package mapdeterm

import "sort"

// Fprintf is a local output stub; the analyzer matches sink names
// structurally, so the golden package needs no fmt dependency.
func Fprintf(format string, args ...any) {}

// unsortedRows appends map entries to an outer slice that is never
// sorted: reported.
func unsortedRows(m map[string]int) []string {
	var rows []string
	for k := range m {
		rows = append(rows, k) // want `never sorted in unsortedRows`
	}
	return rows
}

// sortedRows collects keys and sorts them before use: clean.
func sortedRows(m map[string]int) []string {
	var rows []string
	for k := range m {
		rows = append(rows, k)
	}
	sort.Strings(rows)
	return rows
}

// sortSliceRows sorts with a comparator, which also counts: clean.
func sortSliceRows(m map[string]int) []string {
	var rows []string
	for k := range m {
		rows = append(rows, k)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	return rows
}

// directPrint writes output from inside the iteration: reported.
func directPrint(m map[string]int) {
	for k, v := range m {
		Fprintf("%s=%d\n", k, v) // want `map iteration order reaches Fprintf`
	}
}

// chanFeed sends work in map order: reported.
func chanFeed(m map[string]int, jobs chan string) {
	for k := range m {
		jobs <- k // want `map iteration order feeds a channel send`
	}
}

// counters only aggregates order-insensitive state: clean.
func counters(m map[string]int) (int, map[string]bool) {
	n := 0
	seen := make(map[string]bool)
	for k, v := range m {
		n += v
		seen[k] = true
	}
	return n, seen
}

// floatTotal sums floats in map order, three ways: reported. The integer
// count beside them is exact in any order: clean.
type tally struct{ total float64 }

func floatTotal(m map[string]float64, t *tally) (float64, float64, int) {
	var sum, scaled float64
	n := 0
	for _, v := range m {
		sum += v                // want `map iteration order decides the rounding of sum`
		scaled = scaled*0.5 + v // want `map iteration order decides the rounding of scaled`
		t.total -= v            // want `map iteration order decides the rounding of total`
		n++
	}
	return sum, scaled, n
}

// floatMax keeps a running maximum, which no order changes, and a float
// local to the body: clean.
func floatMax(m map[string]float64) float64 {
	worst := 0.0
	for _, v := range m {
		half := 0.0
		half += v / 2
		if half > worst {
			worst = half
		}
	}
	return worst
}

// sortedFloatTotal sums over sorted keys: clean.
func sortedFloatTotal(m map[string]float64) float64 {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += m[k]
	}
	return sum
}

// sliceRange iterates a slice, not a map: clean.
func sliceRange(xs []string) []string {
	var rows []string
	for _, x := range xs {
		rows = append(rows, x)
	}
	return rows
}

// innerSlice appends to a slice declared inside the loop body: clean.
func innerSlice(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		total += len(local)
	}
	return total
}

// waived carries the ordered claim with a reason: suppressed. Directive
// hygiene (missing reasons, stale waivers) is pinned by unit tests in
// internal/analysis/directive_test.go, where the extra hygiene diagnostics don't collide
// with the golden expectations.
func waived(m map[string]int, jobs chan string) {
	for k := range m {
		//snavet:ordered workers drain the channel into an order-insensitive set
		jobs <- k
	}
}
