package interval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMaxOverlapSumDisjoint(t *testing.T) {
	items := []Weighted{
		{W: New(0, 1), Weight: 0.3},
		{W: New(2, 3), Weight: 0.5},
		{W: New(4, 5), Weight: 0.2},
	}
	c := new(Scan).MaxOverlapSum(items)
	if c.Sum != 0.5 {
		t.Fatalf("Sum = %g, want 0.5 (heaviest single window)", c.Sum)
	}
	if len(c.Members) != 1 || c.Members[0] != 1 {
		t.Fatalf("Members = %v", c.Members)
	}
	if !items[1].W.Contains(c.At) {
		t.Fatalf("At = %g outside winning window", c.At)
	}
}

func TestMaxOverlapSumAllOverlap(t *testing.T) {
	items := []Weighted{
		{W: New(0, 10), Weight: 0.3},
		{W: New(2, 8), Weight: 0.5},
		{W: New(5, 20), Weight: 0.2},
	}
	c := new(Scan).MaxOverlapSum(items)
	if math.Abs(c.Sum-1.0) > 1e-12 {
		t.Fatalf("Sum = %g, want 1.0", c.Sum)
	}
	if len(c.Members) != 3 {
		t.Fatalf("Members = %v", c.Members)
	}
}

func TestMaxOverlapSumTouching(t *testing.T) {
	// Touching at a single instant must count as overlap.
	items := []Weighted{
		{W: New(0, 5), Weight: 1},
		{W: New(5, 9), Weight: 1},
	}
	c := new(Scan).MaxOverlapSum(items)
	if c.Sum != 2 || c.At != 5 {
		t.Fatalf("Sum=%g At=%g, want 2 at 5", c.Sum, c.At)
	}
}

func TestMaxOverlapSumInfiniteWindows(t *testing.T) {
	// Infinite windows (no timing information) reduce to the pessimistic
	// all-aggressors sum.
	items := []Weighted{
		{W: Infinite(), Weight: 0.4},
		{W: Infinite(), Weight: 0.3},
		{W: New(100, 101), Weight: 0.2},
	}
	c := new(Scan).MaxOverlapSum(items)
	if math.Abs(c.Sum-0.9) > 1e-12 {
		t.Fatalf("Sum = %g, want 0.9", c.Sum)
	}
}

func TestMaxOverlapSumIgnoresEmptyAndZero(t *testing.T) {
	items := []Weighted{
		{W: Empty(), Weight: 5},
		{W: New(0, 1), Weight: 0},
		{W: New(0, 1), Weight: -3},
	}
	c := new(Scan).MaxOverlapSum(items)
	if c.Sum != 0 || !math.IsNaN(c.At) || len(c.Members) != 0 {
		t.Fatalf("got %+v, want zero combination", c)
	}
}

func TestMaxOverlapSumSingle(t *testing.T) {
	c := new(Scan).MaxOverlapSum([]Weighted{{W: New(3, 4), Weight: 0.7}})
	if c.Sum != 0.7 || !New(3, 4).Contains(c.At) {
		t.Fatalf("got %+v", c)
	}
}

func TestMaxOverlapSumStaggeredChain(t *testing.T) {
	// Chain 0-2, 1-3, 2-4: best instant is t=2 where all three meet.
	items := []Weighted{
		{W: New(0, 2), Weight: 1},
		{W: New(1, 3), Weight: 1},
		{W: New(2, 4), Weight: 1},
	}
	c := new(Scan).MaxOverlapSum(items)
	if c.Sum != 3 || c.At != 2 {
		t.Fatalf("Sum=%g At=%g", c.Sum, c.At)
	}
}

func TestSumAt(t *testing.T) {
	items := []Weighted{
		{W: New(0, 2), Weight: 1},
		{W: New(1, 3), Weight: 2},
	}
	if got := sumAt(items, 1.5); got != 3 {
		t.Fatalf("sumAt(1.5) = %g", got)
	}
	if got := sumAt(items, 2.5); got != 2 {
		t.Fatalf("sumAt(2.5) = %g", got)
	}
	if got := sumAt(items, -1); got != 0 {
		t.Fatalf("sumAt(-1) = %g", got)
	}
}

func randWeighted(r *rand.Rand, n int) []Weighted {
	items := make([]Weighted, n)
	for i := range items {
		items[i] = Weighted{W: randWindow(r), Weight: r.Float64()}
	}
	return items
}

// sumAt returns the total weight of the windows containing instant t.
func sumAt(items []Weighted, t float64) float64 {
	var sum float64
	for _, it := range items {
		if it.Weight > 0 && it.W.Contains(t) {
			sum += it.Weight
		}
	}
	return sum
}

// bruteMaxOverlap evaluates sumAt at every window endpoint — for closed
// intervals the optimum is always achieved at some left endpoint.
func bruteMaxOverlap(items []Weighted) float64 {
	best := 0.0
	for _, it := range items {
		if it.W.IsEmpty() || it.Weight <= 0 {
			continue
		}
		for _, t := range []float64{it.W.Lo, it.W.Hi} {
			if s := sumAt(items, t); s > best {
				best = s
			}
		}
	}
	return best
}

func TestQuickMaxOverlapMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		items := randWeighted(r, 1+r.Intn(12))
		got := new(Scan).MaxOverlapSum(items).Sum
		want := bruteMaxOverlap(items)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickMaxOverlapAchievable(t *testing.T) {
	// The reported Sum is actually achieved at the reported instant by the
	// reported members.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		items := randWeighted(r, 1+r.Intn(12))
		c := new(Scan).MaxOverlapSum(items)
		if math.IsNaN(c.At) {
			return c.Sum == 0
		}
		var sum float64
		for _, i := range c.Members {
			if !items[i].W.Contains(c.At) {
				return false
			}
			sum += items[i].Weight
		}
		return math.Abs(sum-c.Sum) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickMaxOverlapUpperBoundsSumAt(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		items := randWeighted(r, 1+r.Intn(12))
		c := new(Scan).MaxOverlapSum(items)
		for k := 0; k < 20; k++ {
			t := r.Float64()*220 - 110
			if sumAt(items, t) > c.Sum+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMaxOverlapSum64(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	items := randWeighted(r, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(Scan).MaxOverlapSum(items)
	}
}

func BenchmarkMaxOverlapSum1024(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	items := randWeighted(r, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(Scan).MaxOverlapSum(items)
	}
}
