package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/liberty"
)

// gen draws protocol messages whose values sit on every edge the codec must
// carry: NaN, the infinities and the empty window; nil, empty and filled
// slices; empty strings; negative integers; nil and set errors.
type gen struct{ *rand.Rand }

func (g gen) float() float64 {
	switch g.Intn(8) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return 0
	case 4:
		return math.Float64frombits(g.Uint64()) // any bit pattern, odd NaNs included
	}
	return g.NormFloat64() * 1e-10
}

func (g gen) str() string {
	return []string{"", "n1", "prop:b12", "inst.pin", "a rather longer net name/with[3]"}[g.Intn(5)]
}

func (g gen) window() interval.Window {
	if g.Intn(4) == 0 {
		return interval.Empty()
	}
	return interval.Window{Lo: g.float(), Hi: g.float()}
}

// list draws a nil, an empty or a filled slice.
func list[T any](g gen, elem func() T) []T {
	switch g.Intn(4) {
	case 0:
		return nil
	case 1:
		return []T{}
	}
	out := make([]T, 1+g.Intn(3))
	for i := range out {
		out[i] = elem()
	}
	return out
}

func (g gen) event() core.Event {
	return core.Event{Peak: g.float(), Width: g.float(), Window: g.window(), Source: g.str()}
}

func (g gen) combined() core.Combined {
	return core.Combined{
		Peak: g.float(), Width: g.float(), Window: g.window(), At: g.float(),
		Members: list(g, g.str), MemberEvents: list(g, g.event),
	}
}

// planNets is the victim-order length the drawn init requests declare; every
// drawn position lies inside it.
const planNets = 1 << 20

func (g gen) pos() int32 {
	return []int32{0, 1, 127, 128, planNets - 1}[g.Intn(5)]
}

func (g gen) netComb() NetComb {
	return NetComb{Pos: g.pos(), Comb: [2]core.Combined{g.combined(), g.combined()}}
}

func (g gen) pad() PadEntry { return PadEntry{Pos: g.pos(), Pad: g.float()} }

func (g gen) impact() core.DelayImpact {
	im := core.DelayImpact{
		Rise: g.Intn(2) == 0, NoisePeak: g.float(), Delta: g.float(), At: g.float(),
		Members: list(g, g.str),
	}
	// A set is normalized by construction; the zero Set is the empty one.
	if n := g.Intn(3); n > 0 {
		ws := make([]interval.Window, n)
		for i := range ws {
			lo := float64(i) * 1e-9
			ws[i] = interval.Window{Lo: lo, Hi: lo + 1e-10}
		}
		if g.Intn(3) == 0 {
			ws[n-1].Hi = math.Inf(1)
		}
		im.VictimWindow = interval.NewSet(ws...)
	}
	return im
}

func (g gen) collect() core.ShardCollect {
	col := core.ShardCollect{
		Nets: list(g, func() *core.NetNoise {
			return &core.NetNoise{
				Net:    g.str(),
				Events: [2][]core.Event{list(g, g.event), list(g, g.event)},
				Comb:   [2]core.Combined{g.combined(), g.combined()},
			}
		}),
		Violations: list(g, func() core.Violation {
			return core.Violation{
				Net: g.str(), Receiver: g.str(), Kind: core.Kind(g.Intn(2)), Peak: g.float(), Width: g.float(),
				Limit: g.float(), Slack: g.float(), At: g.float(), Members: list(g, g.str),
			}
		}),
		Slacks: list(g, func() core.ReceiverSlack {
			return core.ReceiverSlack{Net: g.str(), Receiver: g.str(), Kind: core.Kind(g.Intn(2)), Peak: g.float(), Limit: g.float(), Slack: g.float()}
		}),
		Diags: list(g, func() core.Diag {
			d := core.Diag{Net: g.str(), Stage: g.str(), Degraded: g.Intn(2) == 0}
			if g.Intn(3) > 0 {
				d.Err = errors.New(g.str())
			}
			return d
		}),
		Pairs: g.Intn(1 << 20), Filtered: -g.Intn(5), Propagated: g.Intn(300),
	}
	return col
}

// route draws a Route and the number of shards it addresses.
func (g gen) route() (Route, int) {
	n := g.Intn(4)
	at := Route{Token: g.str()}
	if n > 0 || g.Intn(2) == 0 {
		at.Shards = make([]int, n)
		for i := range at.Shards {
			at.Shards[i] = g.Intn(70) - 1
		}
	}
	return at, n
}

// perShard draws a per-shard field for n shards: nil or empty for none.
func perShard[T any](g gen, n int, elem func() T) []T {
	if n == 0 {
		return list(g, elem)[:0:0]
	}
	out := make([]T, n)
	for i := range out {
		out[i] = elem()
	}
	return out
}

// messages draws one message of every type.
func (g gen) messages() []any {
	init := &InitRequest{Padding: list(g, g.pad), Plan: core.PlanID{Nets: planNets}}
	g.Read(init.Plan.Digest[:])
	var n int
	init.Route, n = g.route()
	init.Inits = perShard(g, n, func() ShardInit {
		return ShardInit{Owned: list(g, g.pos), Restore: list(g, g.netComb)}
	})
	if n == 0 && g.Intn(2) == 0 {
		init.Inits = nil
	}
	if g.Intn(3) > 0 {
		init.Design = &DesignSpec{
			Netlist: g.str(), Verilog: g.str(), SPEF: g.str(), Liberty: g.str(), Timing: g.str(),
			Options: OptionsSpec{
				Mode: g.str(), Threshold: g.float(), NoPropagation: g.Intn(2) == 0, LogicCorrelation: g.Intn(2) == 0,
				Workers: g.Intn(9) - 1, FailFast: g.Intn(2) == 0,
			},
		}
	}
	eval := &EvalRequest{Seq: g.Intn(1 << 30), Wave: g.Intn(40) - 1}
	eval.Route, n = g.route()
	eval.Boundary = perShard(g, n, func() []NetComb { return list(g, g.netComb) })
	if n == 0 && g.Intn(2) == 0 {
		eval.Boundary = nil
	}
	round := &RoundRequest{Changed: list(g, g.pad)}
	round.Route, _ = g.route()
	delay, collect, cl := &DelayRequest{}, &CollectRequest{}, &CloseRequest{}
	delay.Route, _ = g.route()
	collect.Route, _ = g.route()
	cl.Route, _ = g.route()

	// A reply carries the faults and at most its op's results.
	n = g.Intn(4)
	rep := &Reply{Faults: perShard(g, n, func() Fault { return Fault{Kind: byte(g.Intn(5)), Msg: g.str()} })}
	if n == 0 && g.Intn(2) == 0 {
		rep.Faults = nil
	}
	switch g.Intn(4) {
	case 0:
		rep.Evals = perShard(g, n, func() EvalResult {
			return EvalResult{Updates: list(g, g.netComb), Changed: g.Intn(2) == 0}
		})
	case 1:
		rep.Impacts = perShard(g, n, func() [][]core.DelayImpact {
			return list(g, func() []core.DelayImpact { return list(g, g.impact) })
		})
	case 2:
		rep.Collects = perShard(g, n, g.collect)
	}
	return []any{init, eval, round, delay, collect, cl, rep}
}

// bitEqual is reflect.DeepEqual with floats compared by their bits (NaN
// equals the same NaN, 0 differs from -0) and errors by their messages.
func bitEqual(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !bitEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitEqual(a.Elem(), b.Elem())
	case reflect.Interface: // core.Diag.Err
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return a.Interface().(error).Error() == b.Interface().(error).Error()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int32:
		return a.Int() == b.Int()
	case reflect.Uint8:
		return a.Uint() == b.Uint()
	}
	panic("bitEqual: unhandled kind " + a.Kind().String())
}

// roundTrip decodes msg's frame into a fresh message of its type.
func roundTrip(t testing.TB, msg any) (frame []byte, back any) {
	t.Helper()
	frame, err := Marshal(msg)
	if err != nil {
		t.Fatalf("%T: %v", msg, err)
	}
	back = reflect.New(reflect.TypeOf(msg).Elem()).Interface()
	if err := Unmarshal(frame, back); err != nil {
		t.Fatalf("%T: decoding its own frame: %v\n%+v", msg, err, msg)
	}
	return frame, back
}

// TestWireRoundTrip is the codec's property: decode(encode(m)) is m, bit for
// bit, for every message type.
func TestWireRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		for _, msg := range (gen{rand.New(rand.NewSource(seed))}).messages() {
			frame, back := roundTrip(t, msg)
			if !bitEqual(reflect.ValueOf(msg), reflect.ValueOf(back)) {
				t.Fatalf("seed %d: %T changed across the wire\n got: %+v\nwant: %+v", seed, msg, back, msg)
			}
			if again, _ := Marshal(back); !bytes.Equal(frame, again) {
				t.Fatalf("seed %d: %T re-encodes differently", seed, msg)
			}
		}
	}
}

// TestWireRejectsMalformed: truncated, over-long, trailing and garbage input
// is an error, never a panic; a decoded length never allocates beyond what
// the input could hold; and all of it — a foreign version byte first — is a
// FatalError, which the server answers as shard_fatal and nobody retries.
func TestWireRejectsMalformed(t *testing.T) {
	fresh := func(msg any) any { return reflect.New(reflect.TypeOf(msg).Elem()).Interface() }
	mustFail := func(what string, frame []byte, into any) {
		t.Helper()
		err := Unmarshal(frame, into)
		var fe *FatalError
		if err == nil || !errors.As(err, &fe) {
			t.Fatalf("%s into %T: error %v, want a FatalError", what, into, err)
		}
	}
	msgs := (gen{rand.New(rand.NewSource(7))}).messages()
	for _, msg := range msgs {
		frame, _ := roundTrip(t, msg)
		for cut := 0; cut < len(frame); cut++ {
			mustFail("truncated frame", frame[:cut], fresh(msg))
			// The same cut with an honest length: the payload itself is short.
			short := append([]byte(nil), frame[:cut]...)
			if cut >= frameHeader {
				binary.LittleEndian.PutUint32(short[1:], uint32(cut-frameHeader))
				mustFail("truncated payload", short, fresh(msg))
			}
		}
		mustFail("trailing byte", append(append([]byte(nil), frame...), 0), fresh(msg))
		long := append(append([]byte(nil), frame...), 0)
		binary.LittleEndian.PutUint32(long[1:], uint32(len(long)-frameHeader))
		mustFail("trailing payload byte", long, fresh(msg))
		for _, version := range []byte{1, wireVersion + 1} {
			other := append([]byte(nil), frame...)
			other[0] = version
			mustFail("foreign version", other, fresh(msg))
		}
		for _, into := range msgs {
			if reflect.TypeOf(into) != reflect.TypeOf(msg) {
				mustFail("frame of another message", frame, fresh(into))
			}
		}
	}
	// What a name used to guarantee by failing to resolve: a position the
	// plan lacks — owned or restored, at the edge or beyond int32 — never
	// decodes, and a negative one cannot be encoded into anything that does.
	for _, bad := range []int32{planNets, math.MaxInt32, -1, math.MinInt32} {
		for _, in := range []ShardInit{{Owned: []int32{0, bad}}, {Restore: []NetComb{{Pos: bad}}}, {}} {
			init := &InitRequest{Route: Route{Shards: []int{0}}, Plan: core.PlanID{Nets: planNets}, Inits: []ShardInit{in}}
			if len(in.Owned)+len(in.Restore) == 0 {
				init.Padding = []PadEntry{{Pos: bad, Pad: 1e-12}}
			}
			frame, err := Marshal(init)
			if err != nil {
				t.Fatal(err)
			}
			mustFail(fmt.Sprintf("init naming position %d", bad), frame, &InitRequest{})
		}
		if bad < 0 {
			for _, msg := range []any{
				&EvalRequest{Route: Route{Shards: []int{0}}, Boundary: [][]NetComb{{{Pos: bad}}}},
				&Reply{Faults: make([]Fault, 1), Evals: []EvalResult{{Updates: []NetComb{{Pos: bad}}}}},
			} {
				frame, err := Marshal(msg)
				if err != nil {
					t.Fatal(err)
				}
				mustFail(fmt.Sprintf("%T naming position %d", msg, bad), frame, fresh(msg))
			}
		}
	}
	mustFail("not a message", nil, &Reply{})
	if err := Unmarshal(nil, &struct{}{}); err == nil {
		t.Fatal("decoding into a non-message succeeded")
	}

	// A reply claiming 2^40 faults in a dozen bytes must fail before allocating.
	payload := binary.AppendUvarint([]byte{'r'}, 1<<40+1)
	payload = append(payload, 1, 2, 3, 4, 5, 6)
	frame := append([]byte{wireVersion, 0, 0, 0, 0}, payload...)
	binary.LittleEndian.PutUint32(frame[1:], uint32(len(payload)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mustFail("impossible slice length", frame, &Reply{})
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Fatalf("a %d-byte frame made the decoder allocate %d bytes", len(frame), grew)
	}
}

func requireInPlan(t *testing.T, p int32, nets int) {
	t.Helper()
	if p < 0 || int(p) >= nets {
		t.Fatalf("an init decoded with net position %d in a plan of %d nets", p, nets)
	}
}

// fuzzRunner is a runner over the bus fixture owning every net, and its
// order's length: what a fuzzed round's padding is applied to. No decoder
// can bound a round's positions (a round carries no plan), so the runner
// must.
var fuzzRunner = sync.OnceValues(func() (*Runner, int) {
	ctx := context.Background()
	g, err := fixtures()["bus"]()
	if err != nil {
		panic(err)
	}
	b, err := g.Bind(liberty.Generic())
	if err != nil {
		panic(err)
	}
	plan, err := core.BuildShardPlan(ctx, b)
	if err != nil {
		panic(err)
	}
	eng, err := core.NewShardEngine(ctx, core.NewShardTiming(b, core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions()}, nil), plan.ID, allNets(plan), nil)
	if err != nil {
		panic(err)
	}
	r, err := NewRunner(eng, nil)
	if err != nil {
		panic(err)
	}
	return r, len(plan.Order)
})

// requireRoundChecked applies a decoded round's padding to the fuzz runner:
// a position outside its order must be refused whole, as a bad request that
// leaves the engine working; the rest applies. Only the delays a coordinator
// sends are tried — finite, non-negative.
func requireRoundChecked(t *testing.T, pads []PadEntry) {
	t.Helper()
	outside := false
	r, n := fuzzRunner()
	for _, p := range pads {
		if !(p.Pad >= 0 && p.Pad <= 1e-9) {
			return
		}
		outside = outside || p.Pos < 0 || int(p.Pos) >= n
	}
	err := r.Round(context.Background(), pads)
	if outside && !isFatal(err) || !outside && err != nil {
		t.Fatalf("a round padding %v of an order of %d nets: %v", pads, n, err)
	}
	if _, err := r.engine(); err != nil {
		t.Fatalf("the runner refuses work after a round: %v", err)
	}
}

// FuzzShardWire feeds arbitrary bytes to the decoder of every message type:
// it may refuse them, never panic, never allocate out of proportion; what it
// accepts must survive a re-encode unchanged. A decoded init names no
// position outside its plan, and a decoded round is refused by a live
// runner when it pads one outside its order.
func FuzzShardWire(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		for _, msg := range (gen{rand.New(rand.NewSource(seed))}).messages() {
			frame, err := Marshal(msg)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(frame)
		}
	}
	// Padding by position: an init of a three-net plan padding its last
	// net, and a round padding a net of the fuzz runner's order and one
	// past it. A digit more in a varint takes either outside its order.
	for _, msg := range []any{
		&InitRequest{Route: Route{Shards: []int{0}}, Plan: core.PlanID{Nets: 3}, Padding: []PadEntry{{Pos: 2, Pad: 1e-12}}, Inits: []ShardInit{{Owned: []int32{0, 1, 2}}}},
		&RoundRequest{Route: Route{Shards: []int{0}}, Changed: []PadEntry{{Pos: 1, Pad: 2e-12}, {Pos: 100, Pad: 1e-12}}},
	} {
		frame, err := Marshal(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{wireVersion, 1, 0, 0, 0, 'r'})
	f.Add([]byte{1, 1, 0, 0, 0, 'r'}) // the version before positions
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, into := range []any{&InitRequest{}, &EvalRequest{}, &RoundRequest{}, &DelayRequest{}, &CollectRequest{}, &CloseRequest{}, &Reply{}} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := Unmarshal(data, into)
			runtime.ReadMemStats(&after)
			// The widest in-memory element per wire byte is a string header
			// for a one-byte empty string; 64x leaves room for the runtime.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64*len(data))+1<<16 {
				t.Fatalf("%d bytes of input made the %T decoder allocate %d", len(data), into, grew)
			}
			if err != nil {
				continue
			}
			if len(data) > 0 && data[0] != wireVersion {
				t.Fatalf("%T accepted a version-%d frame", into, data[0])
			}
			if init, ok := into.(*InitRequest); ok {
				for _, in := range init.Inits {
					for _, p := range in.Owned {
						requireInPlan(t, p, init.Plan.Nets)
					}
					for _, nc := range in.Restore {
						requireInPlan(t, nc.Pos, init.Plan.Nets)
					}
				}
				for _, p := range init.Padding {
					requireInPlan(t, p.Pos, init.Plan.Nets)
				}
			}
			if round, ok := into.(*RoundRequest); ok {
				requireRoundChecked(t, round.Changed)
			}
			frame, back := roundTrip(t, into)
			if !bitEqual(reflect.ValueOf(into), reflect.ValueOf(back)) {
				t.Fatalf("%T accepted from fuzz input changed across a re-encode", into)
			}
			if len(frame) > len(data) {
				t.Fatalf("%T re-encodes longer (%d) than the input it came from (%d)", into, len(frame), len(data))
			}
		}
	})
}
