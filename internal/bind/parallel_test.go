package bind_test

import (
	"reflect"
	"runtime"
	"slices"
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
// one-core bind builds — every net's record, coupling groups and node
// values.
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
		if !reflect.DeepEqual(par.NetworkOf(n), ser.NetworkOf(n)) || !reflect.DeepEqual(par.Couplings(n), ser.Couplings(n)) {
			t.Fatalf("net %s: parallel bind built a different network", g.Design.NetName(n))
		}
		pa, _ := par.AnalysisOf(n)
		sa, _ := ser.AnalysisOf(n)
		for _, c := range slices.Concat([]netlist.ConnID{g.Design.Driver(n)}, g.Design.Loads(n)) {
			if c < 0 {
				continue
			}
			if i := par.NodeOf(c); i != ser.NodeOf(c) || i >= 0 && (pa.Elmore(i) != sa.Elmore(i) || pa.M2(i) != sa.M2(i)) {
				t.Fatalf("net %s node %d: parallel bind reduced it differently", g.Design.NetName(n), i)
			}
		}
		if inst := g.Design.DriverInst(n); inst >= 0 && par.Cell(inst) != ser.Cell(inst) {
			t.Fatalf("net %s: driver cell differs", g.Design.NetName(n))
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

// TestAnalysisOfConcurrent reads the analyses from many goroutines at once
// (New computed them all; there is no cache to race on): every caller gets a
// usable analysis, and every call the same one.
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
				if a, err := b.AnalysisOf(n); err != nil || a.Elmore(b.NodeOf(g.Design.Driver(n))) != 0 {
					t.Errorf("net %s: analysis %v, error %v", g.Design.NetName(n), a, err)
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
			t.Fatalf("net %s: two calls returned two analyses", g.Design.NetName(n))
		}
	}
}

// TestAllocationGates: reading the parasitics database allocates nothing,
// and building it costs a handful of allocations per design, not per net
// (the old per-net Network cost 11 a net, its lazy Analysis 17 more).
func TestAllocationGates(t *testing.T) {
	g, err := workload.Bus(workload.BusSpec{Bits: 4096, Segs: 1})
	if err != nil {
		t.Fatal(err)
	}
	lib := liberty.Generic()
	b, err := bind.New(g.Design, lib, g.Paras)
	if err != nil {
		t.Fatal(err)
	}
	net := g.Design.FindNet(workload.MiddleBusNet(4096))
	load := g.Design.Loads(net)[0]
	var sink float64
	for name, fn := range map[string]func(){
		"NetworkOf":   func() { sink += b.NetworkOf(net).TotalCap() },
		"AnalysisOf":  func() { a, _ := b.AnalysisOf(net); sink += a.Elmore(b.NodeOf(load)) + a.MaxElmore() },
		"WireDelayTo": func() { wd, _ := b.WireDelayTo(load); sink += wd },
		"Couplings":   func() { sink += b.Couplings(net)[0].C },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, n)
		}
	}
	if sink == 0 {
		t.Fatal("the reads returned nothing")
	}
	perNet := testing.AllocsPerRun(3, func() {
		if _, err := bind.New(g.Design, lib, g.Paras); err != nil {
			t.Fatal(err)
		}
	}) / float64(g.Design.NumNets())
	t.Logf("bind.New: %.4f allocations per net over %d nets", perNet, g.Design.NumNets())
	if perNet > 0.1 { // the issue's bound was 3; one stray allocation per extracted net reads 0.25
		t.Fatalf("bind.New: %.2f allocations per net, want ≤ 0.1", perNet)
	}
}

// TestMemBytesTracksHeap pins what the design cache charges for a bound
// design's parasitics — now including every net's reduction, which New
// computes — to the heap the bind really left behind: within 25 %.
func TestMemBytesTracksHeap(t *testing.T) {
	g, err := workload.Bus(workload.BusSpec{Bits: 4096, Segs: 2})
	if err != nil {
		t.Fatal(err)
	}
	lib := liberty.Generic()
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	b, err := bind.New(g.Design, lib, g.Paras)
	if err != nil {
		t.Fatal(err)
	}
	grew := heap() - before
	for _, n := range g.Design.Nets() { // the full analysis is in what was measured
		if _, err := b.AnalysisOf(n); err != nil {
			t.Fatal(err)
		}
	}
	got := b.MemBytes() - g.Design.MemBytes() - lib.MemBytes()
	t.Logf("MemBytes %d for the bind's share, heap grew %d (%.2f)", got, grew, float64(got)/float64(grew))
	if got < grew*3/4 || got > grew*5/4 {
		t.Fatalf("MemBytes %d is not within 25%% of the %d bytes the heap grew", got, grew)
	}
	runtime.KeepAlive(b)
}
