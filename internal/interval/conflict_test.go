package interval

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// maxOverlapSumConstrained is the combination query under pairwise
// exclusion constraints, posed the way core's combiner poses it: at every
// window's left edge (where the optimum is achieved), the exact
// maximum-weight independent set of the windows active there.
func maxOverlapSumConstrained(items []Weighted, conflict func(i, j int) bool) Combination {
	var sc Scan
	weights := make([]float64, len(items))
	for i, it := range items {
		weights[i] = it.Weight
	}
	best := Combination{At: math.NaN()}
	for _, c := range items {
		if c.W.IsEmpty() || c.Weight <= 0 {
			continue
		}
		var active []int
		for i, it := range items {
			if it.Weight > 0 && it.W.Contains(c.W.Lo) {
				active = append(active, i)
			}
		}
		if sum, members := sc.MaxWeightIndependentSet(weights, active, conflict); sum > best.Sum {
			members = slices.Clone(members)
			slices.Sort(members)
			best = Combination{Sum: sum, At: c.W.Lo, Members: members}
		}
	}
	return best
}

func TestConstrainedNilConflictMatchesUnconstrained(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	items := randWeighted(r, 10)
	a := new(Scan).MaxOverlapSum(items)
	b := maxOverlapSumConstrained(items, nil)
	if math.Abs(a.Sum-b.Sum) > 1e-12 {
		t.Fatalf("nil conflict: %g vs %g", a.Sum, b.Sum)
	}
}

func TestConstrainedFalseConflictMatchesUnconstrained(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		items := randWeighted(r, 1+r.Intn(10))
		a := new(Scan).MaxOverlapSum(items)
		b := maxOverlapSumConstrained(items, func(i, j int) bool { return false })
		return math.Abs(a.Sum-b.Sum) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConstrainedExclusivePair(t *testing.T) {
	// Two conflicting overlapping windows: only the heavier may count.
	items := []Weighted{
		{W: New(0, 10), Weight: 0.3},
		{W: New(0, 10), Weight: 0.5},
	}
	conflict := func(i, j int) bool { return true }
	c := maxOverlapSumConstrained(items, conflict)
	if c.Sum != 0.5 || len(c.Members) != 1 || c.Members[0] != 1 {
		t.Fatalf("got %+v", c)
	}
}

func TestConstrainedTriangle(t *testing.T) {
	// Three overlapping windows; 0-1 conflict, 2 compatible with both.
	items := []Weighted{
		{W: New(0, 10), Weight: 0.4},
		{W: New(0, 10), Weight: 0.3},
		{W: New(0, 10), Weight: 0.2},
	}
	conflict := func(i, j int) bool {
		return (i == 0 && j == 1) || (i == 1 && j == 0)
	}
	c := maxOverlapSumConstrained(items, conflict)
	// Best: {0, 2} = 0.6.
	if math.Abs(c.Sum-0.6) > 1e-12 {
		t.Fatalf("Sum = %g, want 0.6", c.Sum)
	}
	if len(c.Members) != 2 || c.Members[0] != 0 || c.Members[1] != 2 {
		t.Fatalf("Members = %v", c.Members)
	}
}

func TestConstrainedConflictOutsideOverlapIrrelevant(t *testing.T) {
	// Conflicting items whose windows never overlap anyway: both still
	// count at their own instants; the best single is returned.
	items := []Weighted{
		{W: New(0, 1), Weight: 0.4},
		{W: New(5, 6), Weight: 0.5},
	}
	conflict := func(i, j int) bool { return true }
	c := maxOverlapSumConstrained(items, conflict)
	if c.Sum != 0.5 {
		t.Fatalf("Sum = %g", c.Sum)
	}
}

func TestConstrainedEmpty(t *testing.T) {
	c := maxOverlapSumConstrained(nil, func(i, j int) bool { return false })
	if c.Sum != 0 || !math.IsNaN(c.At) {
		t.Fatalf("got %+v", c)
	}
	c = maxOverlapSumConstrained([]Weighted{{W: Empty(), Weight: 1}}, func(i, j int) bool { return false })
	if c.Sum != 0 {
		t.Fatalf("got %+v", c)
	}
}

// bruteConstrained enumerates all subsets at all candidate instants.
func bruteConstrained(items []Weighted, conflict func(i, j int) bool) float64 {
	best := 0.0
	for _, anchor := range items {
		if anchor.W.IsEmpty() || anchor.Weight <= 0 {
			continue
		}
		t := anchor.W.Lo
		var active []int
		for i, it := range items {
			if it.Weight > 0 && it.W.Contains(t) {
				active = append(active, i)
			}
		}
		n := len(active)
		for mask := 1; mask < 1<<n; mask++ {
			ok := true
			sum := 0.0
			for a := 0; a < n && ok; a++ {
				if mask&(1<<a) == 0 {
					continue
				}
				sum += items[active[a]].Weight
				for b := a + 1; b < n; b++ {
					if mask&(1<<b) != 0 && conflict(active[a], active[b]) {
						ok = false
						break
					}
				}
			}
			if ok && sum > best {
				best = sum
			}
		}
	}
	return best
}

func TestQuickConstrainedMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		items := randWeighted(r, n)
		// Random symmetric conflict matrix.
		conf := make([][]bool, n)
		for i := range conf {
			conf[i] = make([]bool, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.3 {
					conf[i][j] = true
					conf[j][i] = true
				}
			}
		}
		conflict := func(i, j int) bool { return conf[i][j] }
		got := maxOverlapSumConstrained(items, conflict).Sum
		want := bruteConstrained(items, conflict)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickConstrainedBoundedByUnconstrained(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		items := randWeighted(r, 1+r.Intn(10))
		conflict := func(i, j int) bool { return (i+j)%3 == 0 }
		return maxOverlapSumConstrained(items, conflict).Sum <= new(Scan).MaxOverlapSum(items).Sum+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
