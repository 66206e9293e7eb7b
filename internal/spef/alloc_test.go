package spef_test

import (
	"bytes"
	"testing"

	"repro/internal/spef"
	"repro/internal/workload"
)

// TestAllocationGates: parsing makes no object per section, line, node or
// name — a net is records in tables that grow a batch at a time — so the
// bus's SPEF parses in at most one allocation per *D_NET, a quarter of one
// per design net.
func TestAllocationGates(t *testing.T) {
	g, err := workload.Bus(workload.BusSpec{Bits: 4096})
	if err != nil {
		t.Fatal(err)
	}
	var src bytes.Buffer
	if err := spef.Write(&src, g.Paras); err != nil {
		t.Fatal(err)
	}
	perNet := testing.AllocsPerRun(3, func() {
		if _, err := spef.Parse(bytes.NewReader(src.Bytes())); err != nil {
			t.Fatal(err)
		}
	}) / float64(g.Design.NumNets())
	t.Logf("spef.Parse: %.4f allocations per design net over %d nets, %d of them extracted",
		perNet, g.Design.NumNets(), g.Paras.NumNets())
	if perNet > 0.25 {
		t.Fatalf("spef.Parse: %.3f allocations per design net, want ≤ 0.25", perNet)
	}
}
