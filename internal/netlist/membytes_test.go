package netlist_test

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/vlog"
)

// TestMemBytesTracksHeap pins MemBytes, which the server's -mem-budget
// admission charges, to what a loaded design really holds: within 25 % of
// the heap the build left behind, whichever reader built it.
func TestMemBytesTracksHeap(t *testing.T) {
	const bits = 5000 // 10 000 nets
	var dotNet, verilog strings.Builder
	dotNet.WriteString("design bus\n")
	verilog.WriteString("module bus (")
	for i := 0; i < bits; i++ {
		fmt.Fprintf(&dotNet, "port in%d in\nport out%d out\ninst buf%d BUF_X1\nconn buf%d A in%d in\nconn buf%d Y out%d out\n",
			i, i, i, i, i, i, i)
		if i > 0 {
			verilog.WriteString(", ")
		}
		fmt.Fprintf(&verilog, "in%d, out%d", i, i)
	}
	verilog.WriteString(");\n")
	for i := 0; i < bits; i++ {
		fmt.Fprintf(&verilog, "  input in%d;\n  output out%d;\n  BUF_X1 buf%d (.A(in%d), .Y(out%d));\n", i, i, i, i, i)
	}
	verilog.WriteString("endmodule\n")
	lib := liberty.Generic()
	for _, tc := range []struct {
		name, src string
		parse     func(io.Reader) (*netlist.Design, error)
	}{
		{"net", dotNet.String(), netlist.Parse},
		{"verilog", verilog.String(), func(r io.Reader) (*netlist.Design, error) { return vlog.Parse(r, lib) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := liveHeap()
			d, err := tc.parse(strings.NewReader(tc.src))
			if err != nil {
				t.Fatal(err)
			}
			grew := liveHeap() - before
			runtime.KeepAlive(tc.src) // the source is not the design's to free
			if d.NumNets() != 2*bits {
				t.Fatalf("%d nets", d.NumNets())
			}
			got := d.MemBytes()
			t.Logf("MemBytes %d, heap grew %d (%.2f)", got, grew, float64(got)/float64(grew))
			if got < grew*3/4 || got > grew*5/4 {
				t.Fatalf("MemBytes %d is not within 25%% of the %d bytes the heap grew", got, grew)
			}
			runtime.KeepAlive(d)
		})
	}
}

func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
