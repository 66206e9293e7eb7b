package sta_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/liberty"
	"repro/internal/sta"
	"repro/internal/workload"
)

// TestAllocationGates: a timing run costs a handful of tables per design —
// no object per net, per load pin or per window — and reading a point
// without an annotation hands out the one shared empty Timing.
func TestAllocationGates(t *testing.T) {
	g, err := workload.Bus(workload.BusSpec{Bits: 4096, Segs: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Bind(liberty.Generic())
	if err != nil {
		t.Fatal(err)
	}
	opts := g.STAOptions()
	res, err := sta.RunCtx(context.Background(), b, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	points := 0
	for _, net := range b.Net.Nets() {
		points += 1 + len(b.Net.Loads(net))
	}
	for _, workers := range []int{0, 2} {
		per := testing.AllocsPerRun(3, func() {
			if _, err := sta.RunCtx(context.Background(), b, opts, workers); err != nil {
				t.Fatal(err)
			}
		}) / float64(points)
		t.Logf("RunCtx, %d workers: %.4f allocations per net and load pin over %d", workers, per, points)
		if per > 0.1 {
			t.Errorf("RunCtx, %d workers: %.2f allocations per net and load pin, want ≤ 0.1", workers, per)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if res.TimingOf(-1).HasActivity() {
			t.Fatal("no net has activity")
		}
	}); n != 0 {
		t.Errorf("TimingOf(nil): %v allocations, want 0", n)
	}
}

// TestParseTimingAllocationGate: reading a .win file costs one allocation
// per input line — its name — and a few for the map and the slabs.
func TestParseTimingAllocationGate(t *testing.T) {
	g, err := workload.Bus(workload.BusSpec{Bits: 4096})
	if err != nil {
		t.Fatal(err)
	}
	var src bytes.Buffer
	if err := sta.WriteInputTiming(&src, g.Inputs); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(src.Bytes(), []byte("\n"))
	perLine := testing.AllocsPerRun(3, func() {
		if _, err := sta.ParseInputTiming(bytes.NewReader(src.Bytes())); err != nil {
			t.Fatal(err)
		}
	}) / float64(lines)
	t.Logf("ParseInputTiming: %.3f allocations per line over %d lines", perLine, lines)
	if perLine > 1.5 {
		t.Fatalf("ParseInputTiming: %.2f allocations per line, want ≤ 1.5", perLine)
	}
}
