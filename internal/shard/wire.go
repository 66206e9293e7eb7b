// Package shard implements fault-tolerant distributed noise analysis: a
// deterministic partitioner over the coupling/fanin affinity graph, a
// runner that hosts one partition's core.ShardEngine behind a small op
// protocol, a Host that keeps a worker's runners and executes ops on them
// (shared by the in-process worker and snad's /v1/shard endpoint), and a
// coordinator that is the distributed side of core's noise/delay fixpoint
// driver: core.RunIterative decides when a wave, a pass, a round and the run
// are over; the coordinator turns each phase into one exchange per worker,
// trading boundary combinations wave by wave.
//
// The contract: a healthy distributed run is byte-identical (at the report
// JSON level) to the single-process core.AnalyzeIterativeCtx, whose engine is
// the one core.AnalyzeCtx and core.Session drive; a round cancelled before a
// shard's engine moved is re-sent to the same engine, one cancelled after it
// re-initialises the engine in place; a run that loses
// workers reassigns their shards to survivors and, when a shard is
// irrecoverable, substitutes the conservative full-rail bound for its nets
// with Diag{Stage: "shard"} records — a sound report, never a hang or a
// hard failure.
//
// This file is the protocol: the messages, which hold the engine's own types
// (core.Combined, core.DelayImpact, core.ShardCollect, ...) and which the
// in-process worker is handed by pointer, and the binary frames the HTTP
// transport carries them in. One function per message both encodes and
// decodes it, so the directions cannot drift; DESIGN.md §10 has the format.
package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/interval"
)

// Protocol operations, in the order a run issues them. They double as the
// op names chaos.WorkerFaults rules select on in tests.
const (
	OpInit    = "init"
	OpEval    = "eval"
	OpRound   = "round"
	OpDelay   = "delay"
	OpCollect = "collect"
	OpClose   = "close"
)

// ErrEngineBroken is returned by a runner whose engine was left in an
// undefined state (a padding update died halfway). The coordinator
// recovers by re-initializing the shard — on the same worker or another —
// from its authoritative state; the worker itself is not suspect.
var ErrEngineBroken = errors.New("shard: engine broken, re-init required")

// FatalError wraps a deterministic analysis failure (a fail-fast
// evaluation error): retrying it anywhere reproduces it, so the
// coordinator aborts the run with it instead of burning the retry budget.
type FatalError struct{ Err error }

func (e *FatalError) Error() string { return e.Err.Error() }
func (e *FatalError) Unwrap() error { return e.Err }

// badRequestError marks a malformed protocol request (unknown op, missing
// engine, out-of-range wave) — a coordinator bug or a stale worker, not a
// transient fault.
func badRequestError(format string, args ...any) error {
	return &FatalError{Err: fmt.Errorf(format, args...)}
}

// Fault is one shard's failure inside a delivered answer: the error's class
// in the coordinator's taxonomy and its message. The zero Fault is success.
type Fault struct {
	Kind byte
	Msg  string
}

const (
	faultNone      byte = iota
	faultTransient      // timeouts, cancellation, anything retryable
	faultBroken         // ErrEngineBroken
	faultFatal          // FatalError
)

func faultOf(err error) Fault {
	switch {
	case err == nil:
		return Fault{}
	case errors.Is(err, ErrEngineBroken):
		return Fault{faultBroken, err.Error()}
	case isFatal(err):
		return Fault{faultFatal, err.Error()}
	}
	return Fault{faultTransient, err.Error()}
}

func (f Fault) err() error {
	switch f.Kind {
	case faultNone:
		return nil
	case faultBroken:
		return fmt.Errorf("%w: %s", ErrEngineBroken, f.Msg)
	case faultFatal:
		return &FatalError{Err: errors.New(f.Msg)}
	}
	return errors.New(f.Msg)
}

// Route addresses a request: the run token and the shards of the receiving
// worker that take part in the step, ascending. Every request embeds it and
// a Host keys its engines by (token, shard). A request's per-shard fields and
// every field of its Reply are parallel to Shards; a request of one shard is
// the same message with one entry.
type Route struct {
	Token  string
	Shards []int
}

func (r *Route) route() *Route { return r }

func (r Route) only(i int) Route { return Route{Token: r.Token, Shards: r.Shards[i : i+1]} }

// request is what the coordinator needs of any op's request: whom it
// addresses, and pick(i), the request of one for entry i, sharing its payload
// so a re-send is exact.
type request interface {
	route() *Route
	pick(i int) request
}

// Reply is every op's answer, one result-or-error per addressed shard:
// Faults[i] tells how Shards[i] fared (the zero Fault: fine) and, by op,
// Evals[i], Impacts[i] (in evaluation order) or Collects[i] (a diagnostic's
// error crosses as its message) is its result. Init and round answer Faults
// alone; close answers nothing.
type Reply struct {
	Faults   []Fault
	Evals    []EvalResult
	Impacts  [][][]core.DelayImpact
	Collects []core.ShardCollect
}

// NetComb is the boundary-exchange and restore currency of the protocol: the
// engine's own record of one net's committed combination, by position.
type NetComb = core.WaveUpdate

// PadEntry is one net's absolute window padding, seconds, by position: the
// engine's own record of it.
type PadEntry = core.PadUpdate

// OptionsSpec is the service's analysis options, the knobs of the sna CLI:
// a session's create request carries them as JSON, and a coordinator ships
// them to remote workers in the binary init frame.
type OptionsSpec struct {
	// Mode is the combination policy: "all", "timing", or "noise"
	// (default).
	Mode string `json:"mode,omitempty"`
	// Threshold is the aggressor coupling-ratio filter threshold.
	Threshold float64 `json:"threshold,omitempty"`
	// NoPropagation disables noise propagation through gates.
	NoPropagation bool `json:"noPropagation,omitempty"`
	// LogicCorrelation enables mutual-exclusion aggressor filtering.
	LogicCorrelation bool `json:"logicCorrelation,omitempty"`
	// Workers sets the engine's parallel worker count (0 = serial).
	Workers int `json:"workers,omitempty"`
	// FailFast aborts a request on the first per-net failure instead of
	// degrading fail-soft. Fail-soft is the service default: one bad
	// victim must not take down the query.
	FailFast bool `json:"failFast,omitempty"`
}

// DesignSpec is one design as the service knows it: the sources and the
// options. A session keeps the one it was built from, and a coordinator
// ships it to remote workers so they bind and analyze the same inputs.
// In-process workers ignore it (they carry their own BuildDesign source).
type DesignSpec struct {
	Netlist string
	Verilog string
	SPEF    string
	Liberty string
	Timing  string
	Options OptionsSpec
}

// ShardInit is one shard's part of an init: the owned nets' positions and
// the authoritative combinations to restore (none on the first init).
type ShardInit struct {
	Owned   []int32
	Restore []NetComb
}

// InitRequest builds (or rebuilds) shard engines on a worker. The design
// source, the cumulative padding that seeds timing and the identity of the
// victim order every position of the run refers to are the same for every
// shard of a run, so they travel once per request. A name would check itself
// against the worker's design; a position cannot, so the worker builds no
// engine unless its own design yields the order Plan identifies.
type InitRequest struct {
	Route
	Design  *DesignSpec
	Plan    core.PlanID
	Padding []PadEntry
	Inits   []ShardInit
}

// EvalRequest evaluates the addressed shards' slices of one wave. Seq
// increases with every distinct wave dispatch; a runner that sees a Seq twice
// returns the accumulated result instead of re-evaluating, which makes a
// re-send after a lost response exact. Boundary[i] carries the fanin
// combinations committed on other shards since shard i's last eval.
type EvalRequest struct {
	Route
	Seq      int
	Wave     int
	Boundary [][]NetComb
}

// EvalResult answers two different questions (core.ShardEngine.EvalWave):
// Updates is what to forward — every owned net whose committed peak, width
// or window differs at all — and Changed whether the pass moved beyond the
// fixpoint tolerance. A net can be in Updates while Changed is false.
type EvalResult struct {
	Updates []NetComb
	Changed bool
}

// RoundRequest applies one round of padding growth (absolute values).
type RoundRequest struct {
	Route
	Changed []PadEntry
}

// DelayRequest runs the delta-delay pass over the shards' owned nets.
type DelayRequest struct{ Route }

// CollectRequest fetches the shards' slices of the final result.
type CollectRequest struct{ Route }

// CloseRequest drops every engine of the token on a worker (Shards is not
// read). Best-effort cleanup, no response.
type CloseRequest struct{ Route }

func (m *InitRequest) pick(i int) request {
	return &InitRequest{Route: m.only(i), Design: m.Design, Plan: m.Plan, Padding: m.Padding, Inits: m.Inits[i : i+1]}
}
func (m *EvalRequest) pick(i int) request {
	return &EvalRequest{Route: m.only(i), Seq: m.Seq, Wave: m.Wave, Boundary: m.Boundary[i : i+1]}
}
func (m *RoundRequest) pick(i int) request {
	return &RoundRequest{Route: m.only(i), Changed: m.Changed}
}
func (m *DelayRequest) pick(i int) request   { return &DelayRequest{m.only(i)} }
func (m *CollectRequest) pick(i int) request { return &CollectRequest{m.only(i)} }

// NewRequest returns an op's empty request, to decode into.
func NewRequest(op string) (any, error) {
	if mk := requests[op]; mk != nil {
		return mk(), nil
	}
	return nil, badRequestError("shard: unknown op %q", op)
}

var requests = map[string]func() any{
	OpInit: func() any { return &InitRequest{} }, OpEval: func() any { return &EvalRequest{} },
	OpRound: func() any { return &RoundRequest{} }, OpDelay: func() any { return &DelayRequest{} },
	OpCollect: func() any { return &CollectRequest{} }, OpClose: func() any { return &CloseRequest{} },
}

const (
	wireVersion = 3 // leads every frame
	frameHeader = 5 // version byte + payload length
)

// wired is a protocol message: wire encodes or decodes it, field by field.
type wired interface{ wire(c *codec) }

// Marshal returns msg (a pointer to a request type or a *Reply) as one frame.
func Marshal(msg any) ([]byte, error) {
	m, ok := msg.(wired)
	if !ok {
		return nil, badRequestError("shard: %T is not a protocol message", msg)
	}
	// Two walks: the first only counts, so a frame of megabytes is allocated
	// once at its final size instead of regrown a dozen times.
	c := &codec{sizing: true}
	m.wire(c)
	c = &codec{buf: make([]byte, frameHeader, frameHeader+c.size)}
	m.wire(c)
	c.buf[0] = wireVersion
	binary.LittleEndian.PutUint32(c.buf[1:], uint32(len(c.buf)-frameHeader))
	return c.buf, nil
}

// Unmarshal decodes one frame into msg, which must be the message type the
// frame holds. Malformed input of any kind is an error, never a panic, and
// no slice is allocated longer than the unread input could fill. The error
// is a FatalError: HTTP delivers a body whole or not at all, so a frame that
// does not parse — another wire version, say — will not on a retry either.
func Unmarshal(data []byte, msg any) error {
	m, ok := msg.(wired)
	if !ok {
		return badRequestError("shard: %T is not a protocol message", msg)
	}
	c := &codec{dec: true, nets: math.MaxInt32 + 1}
	switch {
	case len(data) < frameHeader:
		c.fail("frame shorter than its header")
	case data[0] != wireVersion:
		c.fail("peer speaks version %d, this build version %d", data[0], wireVersion)
	case uint64(binary.LittleEndian.Uint32(data[1:])) != uint64(len(data)-frameHeader):
		c.fail("frame of %d bytes declares %d", len(data), binary.LittleEndian.Uint32(data[1:]))
	default:
		c.buf = data[frameHeader:]
		if m.wire(c); c.err == nil && len(c.buf) > 0 {
			c.fail("%d bytes after the message", len(c.buf))
		}
	}
	if c.err != nil {
		return &FatalError{Err: c.err}
	}
	return nil
}

// codec encodes into buf or decodes from it, by dec. Every method takes
// pointers and moves the values in the codec's direction; a decoding failure
// sticks in err and turns the rest of the walk into no-ops on zero values.
type codec struct {
	buf    []byte // encoding: the frame so far; decoding: the unread input
	dec    bool
	sizing bool // encode nothing, add the bytes it would take to size
	size   int
	nets   uint64 // decoding: every net position lies below it
	err    error
}

func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("shard: wire: "+format, args...)
	}
	c.buf = nil
}

// take returns the next n unread bytes, or nil after a failure.
func (c *codec) take(n int) []byte {
	if len(c.buf) < n {
		c.fail("truncated message")
		return nil
	}
	b := c.buf[:n]
	c.buf = c.buf[n:]
	return b
}

func (c *codec) uvarint(v *uint64) {
	if c.sizing {
		c.size += (bits.Len64(*v|1) + 6) / 7
		return
	}
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, *v)
		return
	}
	x, n := binary.Uvarint(c.buf)
	if n <= 0 {
		c.fail("bad varint")
		x, n = 0, 0
	}
	*v, c.buf = x, c.buf[n:]
}

func (c *codec) ints(vs ...*int) {
	for _, v := range vs {
		u := uint64(*v<<1) ^ uint64(*v>>63) // zig-zag; encoding never writes back: requests share payloads
		if c.uvarint(&u); c.dec {
			*v = int(u>>1) ^ -int(u&1)
		}
	}
}

func (c *codec) byte(v *byte) {
	if c.sizing {
		c.size++
	} else if !c.dec {
		c.buf = append(c.buf, *v)
	} else if b := c.take(1); b != nil {
		*v = b[0]
	}
}

func (c *codec) bools(vs ...*bool) {
	for _, v := range vs {
		var b byte
		if *v {
			b = 1
		}
		if c.byte(&b); c.dec {
			if *v = b == 1; b > 1 {
				c.fail("bad boolean %d", b)
			}
		}
	}
}

// tag writes a message's tag byte or checks that the input carries it.
func (c *codec) tag(want byte) {
	got := want
	if c.byte(&got); got != want {
		c.fail("message tag %q, want %q", got, want)
	}
}

func (c *codec) floats(vs ...*float64) {
	for _, v := range vs {
		if c.sizing {
			c.size += 8
		} else if !c.dec {
			c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*v))
		} else if b := c.take(8); b != nil {
			*v = math.Float64frombits(binary.LittleEndian.Uint64(b))
		}
	}
}

func (c *codec) strs(vs ...*string) {
	for _, v := range vs {
		n := uint64(len(*v))
		if c.uvarint(&n); c.sizing {
			c.size += len(*v)
		} else if !c.dec {
			c.buf = append(c.buf, *v...)
		} else if n > uint64(len(c.buf)) {
			c.fail("string of %d bytes in %d bytes of input", n, len(c.buf))
		} else {
			*v = string(c.take(int(n)))
		}
	}
}

// slice moves a slice whose elements each take at least min bytes on the
// wire, which bounds what a decoded length may allocate. nil and empty
// slices stay distinct.
func slice[T any](c *codec, v *[]T, min int, elem func(*codec, *T)) {
	n := uint64(len(*v)) + 1
	if *v == nil {
		n = 0
	}
	if c.uvarint(&n); c.dec {
		if *v = nil; n == 0 || c.err != nil {
			return
		}
		if n-1 > uint64(len(c.buf)/min) {
			c.fail("slice of %d elements in %d bytes of input", n-1, len(c.buf))
			return
		}
		*v = make([]T, n-1)
	}
	for i := range *v {
		elem(c, &(*v)[i])
	}
}

// Minimum wire sizes (see slice): a string or slice is at least 1 byte.
const (
	minWindow   = 16
	minEvent    = 16 + minWindow + 1
	minCombined = 24 + minWindow + 2
	minNetComb  = 1 + 2*minCombined
)

func (c *codec) names(v *[]string) { slice(c, v, 1, func(c *codec, s *string) { c.strs(s) }) }

func (c *codec) window(v *interval.Window) { c.floats(&v.Lo, &v.Hi) }

func (c *codec) event(v *core.Event) {
	c.floats(&v.Peak, &v.Width)
	c.window(&v.Window)
	c.strs(&v.Source)
}

func (c *codec) events(v *[]core.Event) { slice(c, v, minEvent, (*codec).event) }

func (c *codec) combined(v *core.Combined) {
	c.floats(&v.Peak, &v.Width)
	c.window(&v.Window)
	c.floats(&v.At)
	c.names(&v.Members)
	c.events(&v.MemberEvents)
}

// pos moves a net's position in the victim order. No negative one crosses,
// and none at or past the order's length where the message says it (an
// init); elsewhere the receiver checks — the engine a boundary import or a
// round's padding (SetComb, ApplyRound), the coordinator an answer.
func (c *codec) pos(v *int32) {
	u := uint64(uint32(*v))
	if c.uvarint(&u); c.dec {
		if u >= c.nets {
			c.fail("net position %d outside an order of %d nets", u, c.nets)
			u = 0
		}
		*v = int32(u)
	}
}

func (c *codec) netCombs(v *[]NetComb) {
	slice(c, v, minNetComb, func(c *codec, nc *NetComb) {
		c.pos(&nc.Pos)
		c.combined(&nc.Comb[0])
		c.combined(&nc.Comb[1])
	})
}

func (c *codec) pads(v *[]PadEntry) {
	slice(c, v, 9, func(c *codec, p *PadEntry) { c.pos(&p.Pos); c.floats(&p.Pad) })
}

func (c *codec) netNoise(v **core.NetNoise) {
	if c.dec {
		*v = &core.NetNoise{}
	}
	nn := *v
	c.strs(&nn.Net)
	c.events(&nn.Events[0])
	c.events(&nn.Events[1])
	c.combined(&nn.Comb[0])
	c.combined(&nn.Comb[1])
}

func (c *codec) violation(v *core.Violation) {
	c.strs(&v.Net, &v.Receiver)
	c.ints((*int)(&v.Kind))
	c.floats(&v.Peak, &v.Width, &v.Limit, &v.Slack, &v.At)
	c.names(&v.Members)
}

func (c *codec) slack(v *core.ReceiverSlack) {
	c.strs(&v.Net, &v.Receiver)
	c.ints((*int)(&v.Kind))
	c.floats(&v.Peak, &v.Limit, &v.Slack)
}

// diag moves a core.Diag; its error crosses as presence and message.
func (c *codec) diag(v *core.Diag) {
	has, msg := v.Err != nil, ""
	if has {
		msg = v.Err.Error()
	}
	c.strs(&v.Net, &v.Stage, &msg)
	c.bools(&has, &v.Degraded)
	if c.dec && has {
		v.Err = errors.New(msg)
	}
}

// impact moves a core.DelayImpact without its victim: an impact crosses in
// its net's list, and the coordinator names and numbers the net from the
// list's place in the shard's owned positions.
func (c *codec) impact(v *core.DelayImpact) {
	c.bools(&v.Rise)
	ws := v.VictimWindow.Windows()
	slice(c, &ws, minWindow, (*codec).window)
	for i, w := range ws {
		if !(w.Lo <= w.Hi) || i > 0 && !(ws[i-1].Hi < w.Lo) {
			c.fail("victim window set is not normalized")
		}
	}
	if c.dec && c.err == nil && len(ws) > 0 {
		v.VictimWindow = interval.NewSet(ws...)
	}
	c.floats(&v.NoisePeak, &v.Delta, &v.At)
	c.names(&v.Members)
}

func (c *codec) collect(v *core.ShardCollect) {
	slice(c, &v.Nets, 3+2*minCombined, (*codec).netNoise)
	slice(c, &v.Violations, 3+40+1, (*codec).violation)
	slice(c, &v.Slacks, 3+24, (*codec).slack)
	slice(c, &v.Diags, 5, (*codec).diag)
	c.ints(&v.Pairs, &v.Filtered, &v.Propagated)
}

// route moves a request's tag and Route.
func (c *codec) route(tag byte, v *Route) {
	c.tag(tag)
	c.strs(&v.Token)
	slice(c, &v.Shards, 1, func(c *codec, s *int) { c.ints(s) })
}

// per checks, decoding, that a per-shard field answers every addressed shard.
func (c *codec) per(n, shards int) {
	if c.dec && c.err == nil && n != shards {
		c.fail("%d per-shard entries for %d shards", n, shards)
	}
}

func (v *Reply) wire(c *codec) {
	c.tag('r')
	slice(c, &v.Faults, 2, func(c *codec, f *Fault) { c.byte(&f.Kind); c.strs(&f.Msg) })
	slice(c, &v.Evals, 2, func(c *codec, r *EvalResult) { c.netCombs(&r.Updates); c.bools(&r.Changed) })
	slice(c, &v.Impacts, 1, func(c *codec, nets *[][]core.DelayImpact) {
		slice(c, nets, 1, func(c *codec, ims *[]core.DelayImpact) { slice(c, ims, 3+24, (*codec).impact) })
	})
	slice(c, &v.Collects, 7, (*codec).collect)
	for _, n := range []int{len(v.Evals), len(v.Impacts), len(v.Collects)} {
		if n > 0 {
			c.per(n, len(v.Faults))
		}
	}
}

func (v *InitRequest) wire(c *codec) {
	c.route('I', &v.Route)
	has := v.Design != nil
	if c.bools(&has); has {
		if c.dec {
			v.Design = &DesignSpec{}
		}
		d, o := v.Design, &v.Design.Options
		c.strs(&d.Netlist, &d.Verilog, &d.SPEF, &d.Liberty, &d.Timing, &o.Mode)
		c.floats(&o.Threshold)
		c.bools(&o.NoPropagation, &o.LogicCorrelation, &o.FailFast)
		c.ints(&o.Workers)
	}
	c.ints(&v.Plan.Nets)
	for i := range v.Plan.Digest {
		c.byte(&v.Plan.Digest[i])
	}
	c.nets = uint64(max(0, min(v.Plan.Nets, math.MaxInt32)))
	c.pads(&v.Padding)
	slice(c, &v.Inits, 2, func(c *codec, in *ShardInit) { slice(c, &in.Owned, 1, (*codec).pos); c.netCombs(&in.Restore) })
	c.per(len(v.Inits), len(v.Shards))
}

func (v *EvalRequest) wire(c *codec) {
	c.route('E', &v.Route)
	c.ints(&v.Seq, &v.Wave)
	slice(c, &v.Boundary, 1, (*codec).netCombs)
	c.per(len(v.Boundary), len(v.Shards))
}

func (v *RoundRequest) wire(c *codec)   { c.route('R', &v.Route); c.pads(&v.Changed) }
func (v *DelayRequest) wire(c *codec)   { c.route('D', &v.Route) }
func (v *CollectRequest) wire(c *codec) { c.route('C', &v.Route) }
func (v *CloseRequest) wire(c *codec)   { c.route('X', &v.Route) }
