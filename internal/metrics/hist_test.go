package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketsCumulative(t *testing.T) {
	h := NewHistogram("test_seconds", "help text", []float64{0.01, 0.1, 1})
	h.Observe(0.005) // bucket 0.01
	h.Observe(0.05)  // bucket 0.1
	h.Observe(0.05)  // bucket 0.1
	h.Observe(0.5)   // bucket 1
	h.Observe(5)     // +Inf

	var b strings.Builder
	h.Write(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE test_seconds histogram",
		`test_seconds_bucket{le="0.01"} 1`,
		`test_seconds_bucket{le="0.1"} 3`,
		`test_seconds_bucket{le="1"} 4`,
		`test_seconds_bucket{le="+Inf"} 5`,
		"test_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if got := h.count.Load(); got != 5 {
		t.Errorf("Count() = %d, want 5", got)
	}
	if got := h.Sum(); got < 5.6 || got > 5.61 {
		t.Errorf("Sum() = %g, want ~5.605", got)
	}
}

func TestHistogramBoundaryGoesInBucket(t *testing.T) {
	// An observation exactly on a bound counts in that bucket (le is
	// "less than or equal").
	h := NewHistogram("b_seconds", "h", []float64{0.1, 1})
	h.Observe(0.1)
	var b strings.Builder
	h.Write(&b)
	if !strings.Contains(b.String(), `b_seconds_bucket{le="0.1"} 1`) {
		t.Errorf("boundary observation not in its bucket:\n%s", b.String())
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram("c_seconds", "h", nil)
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(g%4) * 0.01)
			}
		}(g)
	}
	wg.Wait()
	if got := h.count.Load(); got != goroutines*per {
		t.Errorf("Count() = %d, want %d", got, goroutines*per)
	}
	want := float64(per) * (0 + 0.01 + 0.02 + 0.03) * float64(goroutines/4)
	if got := h.Sum(); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("Sum() = %g, want %g", got, want)
	}
}
