package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/bind"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/report"
	"repro/internal/shard"
	"repro/internal/spef"
	"repro/internal/sta"
	"repro/internal/units"
	"repro/internal/workload"
)

// The oracle of the change-driven fixpoint: an engine that evaluates only
// what is stale must produce, round by round, exactly what the same engine
// produces when everything is made stale before every pass (the reference,
// export_test.go). Reports are compared byte for byte, results field by
// field — not with one reflect.DeepEqual over core.Result: a quiet net's
// Combined.At is NaN, and a Result points at its timing annotation.

func hotFabric(width, levels int) (*workload.Generated, error) {
	return workload.Fabric(workload.FabricSpec{
		Width: width, Levels: levels, CouplingDensity: 3, CoupleC: 12 * units.Femto,
		GroundC: 4 * units.Femto, SegRes: 60, Seed: 1,
	})
}

// loopDesign is a small design with combinational feedback, so its instance-
// driven nets all land in the serial wave: a NAND latch (p, q), a gate whose
// output r is its own input, and two nets downstream of the loops, coupled
// to each other and to two port-driven aggressors whose windows overlap the
// loop's own. With cx = 9 fF the glitches go round the loops and widen on
// every pass, so the fixpoint runs into its 16-pass limit; with 2 fF they stay
// under the cells' propagation threshold and it converges.
func loopDesign(cx float64) (*workload.Generated, error) {
	d := netlist.New("loop")
	para := spef.NewParasitics("loop")
	insts := [][]string{ // name, cell, output net, input nets
		{"da0", "INV_X1", "a0", "i0"}, {"da1", "INV_X1", "a1", "i1"},
		{"g1", "NAND2_X1", "p", "i2", "q"}, {"g2", "NAND2_X1", "q", "p", "i3"},
		{"g3", "NAND2_X1", "r", "i2", "r"},
		{"g4", "INV_X1", "o1", "q"}, {"g5", "NAND2_X1", "o2", "r", "p"},
		{"l0", "INV_X1", "z0", "a0"}, {"l1", "INV_X1", "z1", "a1"},
		{"l2", "INV_X1", "z2", "o1"}, {"l3", "INV_X1", "z3", "o2"},
	}
	couple := map[string][]string{
		"p": {"a0", "q"}, "q": {"a0", "a1", "p"}, "r": {"a1", "a0"},
		"o1": {"a1", "o2"}, "o2": {"a0", "o1"}, "a0": {"p"}, "a1": {"r"},
	}
	inputs := make(map[string]*sta.Timing)
	for i := 0; i < 4; i++ {
		port := fmt.Sprintf("i%d", i)
		if _, err := d.AddPort(port, netlist.In); err != nil {
			return nil, err
		}
		w := interval.SetOf(float64(i)*15*units.Pico, float64(i)*15*units.Pico+90*units.Pico)
		slew := sta.Range{Min: 20 * units.Pico, Max: 25 * units.Pico}
		inputs[port] = &sta.Timing{Rise: w, Fall: w, SlewRise: slew, SlewFall: slew}
	}
	loads := make(map[string][]string) // net -> "inst:PIN" of its receivers
	for _, in := range insts {
		if _, err := d.AddInst(in[0], in[1]); err != nil {
			return nil, err
		}
		if err := d.Connect(in[0], "Y", in[2], netlist.Out); err != nil {
			return nil, err
		}
		for k, net := range in[3:] {
			pin := string(rune('A' + k))
			if err := d.Connect(in[0], pin, net, netlist.In); err != nil {
				return nil, err
			}
			loads[net] = append(loads[net], in[0]+":"+pin)
		}
	}
	for _, in := range insts {
		net, drv := in[2], in[0]+":Y"
		if len(loads[net]) == 0 {
			continue
		}
		n := &spef.Net{
			Name:  net,
			Conns: []spef.Conn{{Pin: drv, Dir: spef.DirOut, Node: drv}},
			Caps:  []spef.CapEntry{{Node: net + ":1", F: 3 * units.Femto}},
			Ress:  []spef.ResEntry{{A: drv, B: net + ":1", Ohms: 60}},
		}
		for _, pin := range loads[net] {
			n.Conns = append(n.Conns, spef.Conn{Pin: pin, Dir: spef.DirIn, Node: pin})
			n.Ress = append(n.Ress, spef.ResEntry{A: net + ":1", B: pin, Ohms: 40})
		}
		for _, other := range couple[net] {
			n.Caps = append(n.Caps, spef.CapEntry{Node: net + ":1", Other: other + ":1", F: cx})
		}
		if err := para.AddNet(n); err != nil {
			return nil, err
		}
	}
	return &workload.Generated{Design: d, Paras: para, Inputs: inputs}, nil
}

type oracleCase struct {
	name string
	mk   func() (*workload.Generated, error)
	// faults is a chaos.RuntimeFaults spec (prepare stage); degrade names a net
	// degraded at the evaluate stage before the given wave of round 2's
	// first pass.
	faults      string
	degrade     string
	degradeWave int
	loop        bool
}

func oracleCases() []oracleCase {
	bus := func() (*workload.Generated, error) {
		return workload.Bus(workload.BusSpec{Bits: 8, Segs: 2, WindowWidth: 80 * units.Pico})
	}
	hot := func() (*workload.Generated, error) { return hotFabric(40, 10) }
	return []oracleCase{
		{name: "bus", mk: bus},
		{name: "hotfabric", mk: hot},
		{name: "loop", mk: func() (*workload.Generated, error) { return loopDesign(9 * units.Femto) }, loop: true},
		{name: "loop-converging", mk: func() (*workload.Generated, error) { return loopDesign(2 * units.Femto) }, loop: true},
		{name: "bus-prepare-fault", mk: bus, faults: "error:b3,panic:b5"},
		{name: "hotfabric-evaluate-fault", mk: hot, degrade: "n_4_7", degradeWave: 7},
	}
}

func bindCase(t *testing.T, c oracleCase) (*bind.Design, core.Options) {
	t.Helper()
	g, err := c.mk()
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Bind(liberty.Generic())
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Mode: core.ModeNoiseWindows, FailSoft: true, STA: g.STAOptions()}
	if c.faults != "" {
		f, err := chaos.ParseRuntimeFaults(c.faults)
		if err != nil {
			t.Fatal(err)
		}
		opts.PrepareHook = f.Hook()
	}
	return b, opts
}

func reportBytes(t *testing.T, noise *core.Result, delay *core.DelayResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, noise); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteDelayJSON(&buf, delay); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sameComb(a, b core.Combined) bool {
	same := func(x, y float64) bool { return x == y || x != x && y != y }
	return same(a.Peak, b.Peak) && same(a.Width, b.Width) && same(a.At, b.At) && a.Window == b.Window &&
		slices.Equal(a.Members, b.Members) && slices.Equal(a.MemberEvents, b.MemberEvents)
}

// requireSame compares two analyses exactly: every net's events and
// combinations, violations, slacks, statistics, diagnostics, delay result.
func requireSame(t *testing.T, label string, gotN, wantN *core.Result, gotD, wantD *core.DelayResult) {
	t.Helper()
	if len(gotN.Nets) != len(wantN.Nets) {
		t.Fatalf("%s: %d nets, want %d", label, len(gotN.Nets), len(wantN.Nets))
	}
	for name, w := range wantN.Nets {
		g := gotN.Nets[name]
		if g == nil || g.Net != w.Net {
			t.Fatalf("%s: net %s missing", label, name)
		}
		for _, k := range core.Kinds {
			if !slices.Equal(g.Events[k], w.Events[k]) || !sameComb(g.Comb[k], w.Comb[k]) {
				t.Fatalf("%s: net %s %v differs:\n got %+v %+v\nwant %+v %+v", label, name, k, g.Comb[k], g.Events[k], w.Comb[k], w.Events[k])
			}
		}
	}
	for _, p := range [][2]any{
		{gotN.Mode, wantN.Mode}, {gotN.Violations, wantN.Violations}, {gotN.Slacks, wantN.Slacks},
		{gotN.Stats, wantN.Stats}, {gotN.Diags, wantN.Diags}, {gotD, wantD},
	} {
		if !reflect.DeepEqual(p[0], p[1]) {
			t.Fatalf("%s: %T differs:\n got %+v\nwant %+v", label, p[0], p[0], p[1])
		}
	}
}

// roundRecorder renders the reports after every round of a run.
type roundRecorder struct {
	*core.TestEngine
	t      *testing.T
	rounds [][]byte
}

func (r *roundRecorder) DelayImpacts(ctx context.Context, passes int, converged bool) (*core.DelayResult, error) {
	delay, err := r.TestEngine.DelayImpacts(ctx, passes, converged)
	if err == nil {
		r.rounds = append(r.rounds, reportBytes(r.t, r.Noise(), delay))
	}
	return delay, err
}

// runLocal drives the whole noise–delay loop over one engine, recording
// every round.
func runLocal(t *testing.T, c oracleCase, b *bind.Design, opts core.Options, workers int, reference bool) (*core.IterativeResult, *roundRecorder) {
	t.Helper()
	pad := make([]float64, b.Net.NumNets())
	opts.Workers, opts.STA.WindowPadding = workers, pad
	rec := &roundRecorder{TestEngine: core.NewTestEngine(b, opts, reference), t: t}
	if c.degrade != "" {
		rec.BeforeWave = func(wave int) {
			if len(rec.rounds) == 1 && wave == c.degradeWave {
				rec.Degrade(c.degrade, core.StageEvaluate)
			}
		}
	}
	out, err := core.RunIterative(context.Background(), rec, opts, 0, core.RoundState{Padding: pad}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out.Noise, out.Padding = rec.Noise(), core.PaddingByName(b.Net, pad)
	return out, rec
}

func TestChangeDrivenMatchesEvaluateEverything(t *testing.T) {
	for _, c := range oracleCases() {
		t.Run(c.name, func(t *testing.T) {
			b, opts := bindCase(t, c)
			want, ref := runLocal(t, c, b, opts, 0, true)
			if want.Rounds < 2 {
				t.Fatalf("%d round(s): the fixture no longer exercises an incremental round", want.Rounds)
			}
			if c.degrade != "" && !slices.ContainsFunc(want.Noise.Diags, func(d core.Diag) bool { return d.Net == c.degrade }) {
				t.Fatalf("net %s was not degraded: %+v", c.degrade, want.Noise.Diags)
			}
			for _, workers := range []int{0, 2} {
				label := fmt.Sprintf("workers=%d", workers)
				got, rec := runLocal(t, c, b, opts, workers, false)
				if len(rec.rounds) != len(ref.rounds) {
					t.Fatalf("%s: %d rounds, reference %d", label, len(rec.rounds), len(ref.rounds))
				}
				for i := range ref.rounds {
					if !bytes.Equal(rec.rounds[i], ref.rounds[i]) {
						t.Fatalf("%s: round %d reports differ from the reference", label, i+1)
					}
				}
				requireSame(t, label, got.Noise, want.Noise, got.Delay, want.Delay)
				if !reflect.DeepEqual(got.Padding, want.Padding) || got.Converged != want.Converged {
					t.Fatalf("%s: loop outcome differs", label)
				}
				if slices.Equal(rec.PassEvals, ref.PassEvals) {
					t.Fatalf("%s: made the reference's evaluations %v: the test no longer compares two engines", label, ref.PassEvals)
				}
				// An acyclic design's confirming pass has nothing to evaluate.
				if !c.loop && c.degrade == "" && rec.PassEvals[1] != 0 {
					t.Errorf("%s: second pass of round 1 evaluated %d nets, want 0", label, rec.PassEvals[1])
				}
			}
			if c.degrade != "" {
				return // degraded from inside the local engine only
			}
			wantBytes := ref.rounds[len(ref.rounds)-1]
			for shards := 1; shards <= 4; shards++ {
				for nw := 1; nw <= 3; nw++ {
					label := fmt.Sprintf("%d shards on %d workers", shards, nw)
					workers := make([]shard.Worker, nw)
					for i := range workers {
						workers[i] = shard.NewInProc(fmt.Sprintf("w%d", i), func(context.Context) (*bind.Design, error) { return b, nil }, opts)
					}
					got, err := shard.Run(context.Background(), shard.Config{B: b, Opts: opts, Workers: workers, Shards: shards, Token: c.name})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !bytes.Equal(reportBytes(t, got.Noise, got.Delay), wantBytes) {
						t.Fatalf("%s: reports differ from the reference", label)
					}
					requireSame(t, label, got.Noise, want.Noise, got.Delay, want.Delay)
				}
			}
		})
	}
}

// TestChangeDrivenMatchesAcrossOptions repeats the local oracle under the
// options that change what an evaluation reads or how a pass ends.
func TestChangeDrivenMatchesAcrossOptions(t *testing.T) {
	variants := map[string]func(*core.Options){
		"all-aggressors": func(o *core.Options) { o.Mode = core.ModeAllAggressors },
		"timing-windows": func(o *core.Options) { o.Mode = core.ModeTimingWindows },
		"no-propagation": func(o *core.Options) { o.NoPropagation = true },
		"correlation":    func(o *core.Options) { o.LogicCorrelation = true },
		"filtered":       func(o *core.Options) { o.FilterThreshold = 0.05 },
		"peak-occupancy": func(o *core.Options) { o.Occupancy = core.OccupancyPeak },
	}
	for _, c := range oracleCases()[:3] {
		for name, set := range variants {
			t.Run(c.name+"/"+name, func(t *testing.T) {
				b, opts := bindCase(t, c)
				set(&opts)
				want, ref := runLocal(t, c, b, opts, 0, true)
				for _, workers := range []int{0, 2} {
					got, rec := runLocal(t, c, b, opts, workers, false)
					if !slices.EqualFunc(rec.rounds, ref.rounds, bytes.Equal) {
						t.Fatalf("workers=%d: round reports differ from the reference", workers)
					}
					requireSame(t, name, got.Noise, want.Noise, got.Delay, want.Delay)
				}
			})
		}
	}
}

// TestReanalyzeMatchesEvaluateEverything drives two sessions through one
// seeded random sequence of paddings, one through Reanalyze and one through
// the reference, and compares them after every step.
func TestReanalyzeMatchesEvaluateEverything(t *testing.T) {
	for _, c := range oracleCases()[:4] {
		t.Run(c.name, func(t *testing.T) {
			b, opts := bindCase(t, c)
			ctx := context.Background()
			got, err := core.NewSession(ctx, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.NewSession(ctx, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			var nets []string
			for name := range got.Noise().Nets {
				nets = append(nets, name)
			}
			sort.Strings(nets)
			rng := rand.New(rand.NewSource(7))
			for step := 0; step < 12; step++ {
				pad := make(map[string]float64)
				for i := rng.Intn(3) + 1; i > 0; i-- {
					pad[nets[rng.Intn(len(nets))]] = float64(rng.Intn(60)+1) * units.Pico
				}
				gn, _, err := got.Reanalyze(ctx, pad)
				if err != nil {
					t.Fatal(err)
				}
				wn, _, err := want.ReanalyzeReference(ctx, pad)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("step %d %v", step, pad)
				requireSame(t, label, gn, wn, got.Delay(), want.Delay())
				if !bytes.Equal(reportBytes(t, gn, got.Delay()), reportBytes(t, wn, want.Delay())) {
					t.Fatalf("%s: reports differ from the reference", label)
				}
			}
			if g, w := got.Noise().Evals(), want.Noise().Evals(); g >= w {
				t.Fatalf("change-driven session made %d evaluations, the reference %d", g, w)
			}
		})
	}
}

// TestSessionPaddingEdge pins the Session's padding where it enters by
// name: each name resolves to its net ID; padding is max-monotonic, so a
// value no larger than the one applied — or a name the design lacks —
// changes nothing, counts nothing and leaves the report's bytes as they
// were; and a session opened at the grown padding by ID, as a service
// rebuilds one from its record, reports what the incremental one does. The
// record by name, names the design lacks included, is the service's
// (internal/server TestReanalyzePaddingEdge).
func TestSessionPaddingEdge(t *testing.T) {
	b, opts := bindCase(t, oracleCases()[0])
	ctx := context.Background()
	sess, err := core.NewSession(ctx, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	both := map[string]float64{"b1": 5 * units.Pico, "b2": 3 * units.Pico}
	if _, n, err := sess.Reanalyze(ctx, both); err != nil || n != 2 {
		t.Fatalf("padding two nets: changed %d (want 2), %v", n, err)
	}
	padded := reportBytes(t, sess.Noise(), sess.Delay())
	for _, pad := range []map[string]float64{both, {"b2": 3 * units.Pico}, {"b2": 1 * units.Pico, "b1": 2 * units.Pico}, {"ghost": 9 * units.Pico}} {
		if _, n, err := sess.Reanalyze(ctx, pad); err != nil || n != 0 || !bytes.Equal(reportBytes(t, sess.Noise(), sess.Delay()), padded) {
			t.Fatalf("re-applying %v: changed %d (want 0), %v", pad, n, err)
		}
	}
	if _, n, err := sess.Reanalyze(ctx, map[string]float64{"b2": 4 * units.Pico, "ghost": 10 * units.Pico}); err != nil || n != 1 {
		t.Fatalf("growing one net beside an unknown one: changed %d (want 1), %v", n, err)
	}
	pad := make([]float64, b.Net.NumNets())
	pad[b.Net.FindNet("b1")], pad[b.Net.FindNet("b2")] = 5*units.Pico, 4*units.Pico
	seeded := opts
	seeded.STA.WindowPadding = slices.Clone(pad)
	rebuilt, err := core.NewSession(ctx, b, seeded)
	if err != nil {
		t.Fatal(err)
	}
	if _, n, err := rebuilt.Reanalyze(ctx, map[string]float64{"b1": 5 * units.Pico, "b2": 4 * units.Pico}); err != nil || n != 0 {
		t.Fatalf("the grown padding again on the rebuilt session: changed %d (want 0), %v", n, err)
	}
	// A rebuild counts the passes of its own fixpoint; the rest is the same.
	gotN, wantN := *rebuilt.Noise(), *sess.Noise()
	gotN.Stats.Iterations, wantN.Stats.Iterations = 0, 0
	if !bytes.Equal(reportBytes(t, &gotN, rebuilt.Delay()), reportBytes(t, &wantN, sess.Delay())) {
		t.Fatal("the rebuilt session's report differs")
	}
	// The session pads its own copy: growing it leaves the caller's slice be.
	if _, n, err := rebuilt.Reanalyze(ctx, map[string]float64{"b1": 6 * units.Pico}); err != nil || n != 1 || !slices.Equal(seeded.STA.WindowPadding, pad) {
		t.Fatalf("growing the rebuilt session: changed %d (want 1), %v; seed slice now %v", n, err, seeded.STA.WindowPadding)
	}
}

// TestIterateFixtureEvaluations counts the evaluations of one local fixpoint
// on the benchmark's iterate shape (hot fabric 120 × 16: 2 160 nets, 18
// waves, 5 rounds of 2 passes). Evaluating every net in every pass would be
// 21 600; the fanout-closure engine this one replaces made 20 286.
func TestIterateFixtureEvaluations(t *testing.T) {
	c := oracleCase{name: "iterate", mk: func() (*workload.Generated, error) { return hotFabric(120, 16) }}
	b, opts := bindCase(t, c)
	out, rec := runLocal(t, c, b, opts, 0, false)
	if out.Rounds != 5 || len(rec.PassEvals) != 10 {
		t.Fatalf("%d rounds, %d passes: the fixture moved (want 5 and 10)", out.Rounds, len(rec.PassEvals))
	}
	for pass := 1; pass < len(rec.PassEvals); pass += 2 {
		if rec.PassEvals[pass] != 0 {
			t.Errorf("confirming pass of round %d evaluated %d nets, want 0", pass/2+1, rec.PassEvals[pass])
		}
	}
	if got := out.Noise.Evals(); got > 9000 || got != rec.PassEvals[0]+rec.PassEvals[2]+rec.PassEvals[4]+rec.PassEvals[6]+rec.PassEvals[8] {
		t.Errorf("%d evaluations by pass %v, want at most 9000 and all in first passes", got, rec.PassEvals)
	}
	t.Logf("evaluations by pass: %v", rec.PassEvals)
}

// TestTotalNoiseIsOneNumber: the total is a float sum, so it has an order,
// and the order is the nets' names — not Go's map order, which on this
// fabric gave ten different bit patterns in fifty calls on one result. Every
// call, every worker count and a result merged from four shards agree bit
// for bit.
func TestTotalNoiseIsOneNumber(t *testing.T) {
	c := oracleCase{name: "total", mk: func() (*workload.Generated, error) { return hotFabric(40, 8) }}
	b, opts := bindCase(t, c)
	serial, _ := runLocal(t, c, b, opts, 0, false)
	want := serial.Noise.TotalNoise()
	if want <= 0 {
		t.Fatal("the fixture is quiet")
	}
	for call := 0; call < 50; call++ {
		if got := serial.Noise.TotalNoise(); got != want {
			t.Fatalf("call %d on one result: %x, the first call gave %x", call, math.Float64bits(got), math.Float64bits(want))
		}
	}
	fanned, _ := runLocal(t, c, b, opts, 4, false)
	if got := fanned.Noise.TotalNoise(); got != want {
		t.Errorf("workers=4: %x, serial %x", math.Float64bits(got), math.Float64bits(want))
	}
	workers := []shard.Worker{shard.NewInProc("w0", func(context.Context) (*bind.Design, error) { return b, nil }, opts)}
	sharded, err := shard.Run(context.Background(), shard.Config{B: b, Opts: opts, Workers: workers, Shards: 4, Token: c.name})
	if err != nil {
		t.Fatal(err)
	}
	if got := sharded.Noise.TotalNoise(); got != want {
		t.Errorf("4 shards: %x, serial %x", math.Float64bits(got), math.Float64bits(want))
	}
}

// TestZeroOptionsAreNoiseWindows: the zero Options run the paper's method.
// On a bus and on a fabric, core.Options{} with only the timing set reports
// byte for byte what an explicit ModeNoiseWindows run does — through a
// Session and through AnalyzeCtx alike — and not what ModeAllAggressors
// computes, even with the mode's name set aside.
func TestZeroOptionsAreNoiseWindows(t *testing.T) {
	ctx := context.Background()
	for _, c := range oracleCases()[:2] {
		g, err := c.mk()
		if err != nil {
			t.Fatal(err)
		}
		b, err := g.Bind(liberty.Generic())
		if err != nil {
			t.Fatal(err)
		}
		open := func(mode core.Mode, set bool) *core.Session {
			opts := core.Options{STA: g.STAOptions()}
			if set {
				opts.Mode = mode
			}
			sess, err := core.NewSession(ctx, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			return sess
		}
		zero := open(0, false)
		got := reportBytes(t, zero.Noise(), zero.Delay())
		if want := open(core.ModeNoiseWindows, true); !bytes.Equal(got, reportBytes(t, want.Noise(), want.Delay())) {
			t.Errorf("%s: core.Options{} differs from ModeNoiseWindows", c.name)
		}
		noise, err := core.AnalyzeCtx(ctx, b, core.Options{STA: g.STAOptions()})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, reportBytes(t, noise, zero.Delay())) {
			t.Errorf("%s: AnalyzeCtx under core.Options{} differs from the session's noise", c.name)
		}
		all := open(core.ModeAllAggressors, true)
		allNoise, allDelay := *all.Noise(), *all.Delay()
		allNoise.Mode, allDelay.Mode = core.ModeNoiseWindows, core.ModeNoiseWindows
		if bytes.Equal(got, reportBytes(t, &allNoise, &allDelay)) {
			t.Errorf("%s: core.Options{} computes what ModeAllAggressors does", c.name)
		}
	}
}
