package bind_test

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/bind"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/workload"
)

// wideBus is big enough (2 400 nets) that New fans both its loops out.
func wideBus(t *testing.T) *workload.Generated {
	t.Helper()
	g, err := workload.Bus(workload.BusSpec{Bits: 600, Segs: 2})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestNewParallelMatchesSerial: the fanned-out bind builds the design the
// one-core bind builds — every net's network, node for node.
func TestNewParallelMatchesSerial(t *testing.T) {
	g := wideBus(t)
	lib := liberty.Generic()
	par, err := bind.New(g.Design, lib, g.Paras)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(1)
	ser, err := bind.New(g.Design, lib, g.Paras)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Design.Nets() {
		if !reflect.DeepEqual(par.NetworkOf(n), ser.NetworkOf(n)) {
			t.Fatalf("net %s: parallel bind built a different network", n.Name)
		}
		if inst := n.Driver().Inst; inst != nil && par.Cell(inst) != ser.Cell(inst) {
			t.Fatalf("net %s: driver cell differs", n.Name)
		}
	}
}

// TestNewParallelFirstErrorWins: with several unbindable instances the
// error names the first in name order, as the serial loop's did.
func TestNewParallelFirstErrorWins(t *testing.T) {
	g := wideBus(t)
	for _, name := range []string{"zz_bad", "aa_bad", "mm_bad"} {
		if _, err := g.Design.AddInst(name, "NO_SUCH_CELL"); err != nil {
			t.Fatal(err)
		}
		if err := g.Design.Connect(name, "A", "b0", netlist.In); err != nil {
			t.Fatal(err)
		}
	}
	for rep := 0; rep < 10; rep++ {
		_, err := bind.New(g.Design, liberty.Generic(), g.Paras)
		if err == nil || !strings.Contains(err.Error(), `"aa_bad"`) {
			t.Fatalf("got %v, want the error of instance aa_bad", err)
		}
	}
}

// TestAnalysisOfConcurrent hammers the per-net analysis cache from many
// goroutines on cold nets: every caller gets a usable analysis, and once a
// net is warm every caller gets the same one.
func TestAnalysisOfConcurrent(t *testing.T) {
	g := wideBus(t)
	b, err := bind.New(g.Design, liberty.Generic(), g.Paras)
	if err != nil {
		t.Fatal(err)
	}
	nets := g.Design.Nets()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, n := range nets {
				if a, err := b.AnalysisOf(n); err != nil || a == nil {
					t.Errorf("net %s: analysis %v, error %v", n.Name, a, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, n := range nets[:100] {
		a1, _ := b.AnalysisOf(n)
		a2, _ := b.AnalysisOf(n)
		if a1 != a2 {
			t.Fatalf("net %s: warm cache returned two analyses", n.Name)
		}
	}
}
