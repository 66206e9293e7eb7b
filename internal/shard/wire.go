// Package shard implements fault-tolerant distributed noise analysis: a
// deterministic partitioner over the coupling/fanin affinity graph, a
// runner that hosts one partition's core.ShardEngine behind a small op
// protocol, a Host that keeps a worker's runners and executes ops on them
// (shared by the in-process worker and snad's /v1/shard endpoint), and a
// coordinator that is the distributed side of core's noise/delay fixpoint
// driver: core.RunIterative decides when a wave, a pass, a round and the run
// are over; the coordinator turns each phase into dispatches, exchanging
// boundary combinations wave by wave.
//
// The contract: a healthy distributed run is byte-identical (at the report
// JSON level) to the single-process core.AnalyzeIterative; a run that loses
// workers reassigns their shards to survivors and, when a shard is
// irrecoverable, substitutes the conservative full-rail bound for its nets
// with Diag{Stage: "shard"} records — a sound report, never a hang or a
// hard failure.
package shard

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/interval"
)

// Protocol operations, in the order a run issues them. They double as the
// op names workload.WorkerFaults rules select on.
const (
	OpInit    = "init"
	OpEval    = "eval"
	OpRound   = "round"
	OpDelay   = "delay"
	OpCollect = "collect"
	OpClose   = "close"
	OpPing    = "ping"
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

// Float JSON round-trips are exact (encoding/json emits the shortest
// representation that parses back to the same float64), so the wire forms
// below preserve bit-identical results across the HTTP transport. The only
// values float64 JSON cannot carry are NaN and the infinities; the wire
// types encode those explicitly: a Combined's At is NaN when no events
// combine (pointer, nil = NaN), and a Window distinguishes the empty
// window (Lo > Hi) from infinite bounds (nil Lo = -Inf, nil Hi = +Inf).

// WindowWire is the wire form of interval.Window.
type WindowWire struct {
	Empty bool     `json:"empty,omitempty"`
	Lo    *float64 `json:"lo,omitempty"`
	Hi    *float64 `json:"hi,omitempty"`
}

func windowToWire(w interval.Window) WindowWire {
	if w.IsEmpty() {
		return WindowWire{Empty: true}
	}
	var out WindowWire
	if !math.IsInf(w.Lo, -1) {
		lo := w.Lo
		out.Lo = &lo
	}
	if !math.IsInf(w.Hi, 1) {
		hi := w.Hi
		out.Hi = &hi
	}
	return out
}

func (w WindowWire) window() interval.Window {
	if w.Empty {
		return interval.Empty()
	}
	lo, hi := math.Inf(-1), math.Inf(1)
	if w.Lo != nil {
		lo = *w.Lo
	}
	if w.Hi != nil {
		hi = *w.Hi
	}
	return interval.Window{Lo: lo, Hi: hi}
}

func setToWire(s interval.Set) []WindowWire {
	ws := s.Windows()
	out := make([]WindowWire, len(ws))
	for i, w := range ws {
		out[i] = windowToWire(w)
	}
	return out
}

func setFromWire(ws []WindowWire) interval.Set {
	wins := make([]interval.Window, len(ws))
	for i, w := range ws {
		wins[i] = w.window()
	}
	return interval.NewSet(wins...)
}

func floatToWire(v float64) *float64 {
	if math.IsNaN(v) {
		return nil
	}
	return &v
}

func floatFromWire(v *float64) float64 {
	if v == nil {
		return math.NaN()
	}
	return *v
}

// EventWire is the wire form of core.Event.
type EventWire struct {
	Peak   float64    `json:"peak"`
	Width  float64    `json:"width"`
	Window WindowWire `json:"window"`
	Source string     `json:"source"`
}

func eventToWire(e core.Event) EventWire {
	return EventWire{Peak: e.Peak, Width: e.Width, Window: windowToWire(e.Window), Source: e.Source}
}

func (e EventWire) event() core.Event {
	return core.Event{Peak: e.Peak, Width: e.Width, Window: e.Window.window(), Source: e.Source}
}

func eventsToWire(es []core.Event) []EventWire {
	if es == nil {
		return nil
	}
	out := make([]EventWire, len(es))
	for i, e := range es {
		out[i] = eventToWire(e)
	}
	return out
}

func eventsFromWire(es []EventWire) []core.Event {
	if es == nil {
		return nil
	}
	out := make([]core.Event, len(es))
	for i, e := range es {
		out[i] = e.event()
	}
	return out
}

// CombinedWire is the wire form of core.Combined, at full fidelity —
// members and member events included, because the final report renders
// them.
type CombinedWire struct {
	Peak         float64     `json:"peak"`
	Width        float64     `json:"width"`
	Window       WindowWire  `json:"window"`
	At           *float64    `json:"at"`
	Members      []string    `json:"members,omitempty"`
	MemberEvents []EventWire `json:"member_events,omitempty"`
}

func combToWire(c core.Combined) CombinedWire {
	return CombinedWire{
		Peak:         c.Peak,
		Width:        c.Width,
		Window:       windowToWire(c.Window),
		At:           floatToWire(c.At),
		Members:      c.Members,
		MemberEvents: eventsToWire(c.MemberEvents),
	}
}

func (c CombinedWire) comb() core.Combined {
	return core.Combined{
		Peak:         c.Peak,
		Width:        c.Width,
		Window:       c.Window.window(),
		At:           floatFromWire(c.At),
		Members:      c.Members,
		MemberEvents: eventsFromWire(c.MemberEvents),
	}
}

func combsToWire(c [2]core.Combined) [2]CombinedWire {
	return [2]CombinedWire{combToWire(c[0]), combToWire(c[1])}
}

func combsFromWire(c [2]CombinedWire) [2]core.Combined {
	return [2]core.Combined{c[0].comb(), c[1].comb()}
}

// forwardToWire is combsToWire without the members: a forwarded value is
// read by another engine for its peak, width and window only. The members
// matter to the report, which every owner renders from its own evaluation
// (collect), never from a forwarded or restored value.
func forwardToWire(c [2]core.Combined) [2]CombinedWire {
	for k := range c {
		c[k].Members, c[k].MemberEvents = nil, nil
	}
	return combsToWire(c)
}

// NetComb carries one net's committed combination — the boundary-exchange
// and restore currency of the protocol.
type NetComb struct {
	Net  string          `json:"net"`
	Comb [2]CombinedWire `json:"comb"`
}

// NetNoiseWire is a full per-net result (collect only).
type NetNoiseWire struct {
	Net    string          `json:"net"`
	Events [2][]EventWire  `json:"events"`
	Comb   [2]CombinedWire `json:"comb"`
}

func netNoiseToWire(nn *core.NetNoise) NetNoiseWire {
	return NetNoiseWire{
		Net:    nn.Net,
		Events: [2][]EventWire{eventsToWire(nn.Events[0]), eventsToWire(nn.Events[1])},
		Comb:   combsToWire(nn.Comb),
	}
}

func (w NetNoiseWire) netNoise() *core.NetNoise {
	return &core.NetNoise{
		Net:    w.Net,
		Events: [2][]core.Event{eventsFromWire(w.Events[0]), eventsFromWire(w.Events[1])},
		Comb:   combsFromWire(w.Comb),
	}
}

// ViolationWire is the wire form of core.Violation.
type ViolationWire struct {
	Net      string   `json:"net"`
	Receiver string   `json:"receiver"`
	Kind     int      `json:"kind"`
	Peak     float64  `json:"peak"`
	Width    float64  `json:"width"`
	Limit    float64  `json:"limit"`
	Slack    float64  `json:"slack"`
	At       *float64 `json:"at"`
	Members  []string `json:"members,omitempty"`
}

func violationToWire(v core.Violation) ViolationWire {
	return ViolationWire{
		Net: v.Net, Receiver: v.Receiver, Kind: int(v.Kind),
		Peak: v.Peak, Width: v.Width, Limit: v.Limit, Slack: v.Slack,
		At: floatToWire(v.At), Members: v.Members,
	}
}

func (v ViolationWire) violation() core.Violation {
	return core.Violation{
		Net: v.Net, Receiver: v.Receiver, Kind: core.Kind(v.Kind),
		Peak: v.Peak, Width: v.Width, Limit: v.Limit, Slack: v.Slack,
		At: floatFromWire(v.At), Members: v.Members,
	}
}

// SlackWire is the wire form of core.ReceiverSlack.
type SlackWire struct {
	Net      string  `json:"net"`
	Receiver string  `json:"receiver"`
	Kind     int     `json:"kind"`
	Peak     float64 `json:"peak"`
	Limit    float64 `json:"limit"`
	Slack    float64 `json:"slack"`
}

func slackToWire(s core.ReceiverSlack) SlackWire {
	return SlackWire{Net: s.Net, Receiver: s.Receiver, Kind: int(s.Kind), Peak: s.Peak, Limit: s.Limit, Slack: s.Slack}
}

func (s SlackWire) slack() core.ReceiverSlack {
	return core.ReceiverSlack{Net: s.Net, Receiver: s.Receiver, Kind: core.Kind(s.Kind), Peak: s.Peak, Limit: s.Limit, Slack: s.Slack}
}

// ImpactWire is the wire form of core.DelayImpact.
type ImpactWire struct {
	Net          string       `json:"net"`
	Rise         bool         `json:"rise"`
	VictimWindow []WindowWire `json:"victim_window"`
	NoisePeak    float64      `json:"noise_peak"`
	Delta        float64      `json:"delta"`
	At           *float64     `json:"at"`
	Members      []string     `json:"members,omitempty"`
}

func impactToWire(im core.DelayImpact) ImpactWire {
	return ImpactWire{
		Net: im.Net, Rise: im.Rise, VictimWindow: setToWire(im.VictimWindow),
		NoisePeak: im.NoisePeak, Delta: im.Delta, At: floatToWire(im.At), Members: im.Members,
	}
}

func (im ImpactWire) impact() core.DelayImpact {
	return core.DelayImpact{
		Net: im.Net, Rise: im.Rise, VictimWindow: setFromWire(im.VictimWindow),
		NoisePeak: im.NoisePeak, Delta: im.Delta, At: floatFromWire(im.At), Members: im.Members,
	}
}

// DiagWire is the wire form of core.Diag; the error crosses as its message.
type DiagWire struct {
	Net      string `json:"net"`
	Stage    string `json:"stage"`
	Err      string `json:"err"`
	Degraded bool   `json:"degraded"`
}

func diagToWire(d core.Diag) DiagWire {
	msg := ""
	if d.Err != nil {
		msg = d.Err.Error()
	}
	return DiagWire{Net: d.Net, Stage: d.Stage, Err: msg, Degraded: d.Degraded}
}

func (d DiagWire) diag() core.Diag {
	return core.Diag{Net: d.Net, Stage: d.Stage, Err: errors.New(d.Err), Degraded: d.Degraded}
}

// PadEntry is one net's absolute window padding, seconds.
type PadEntry struct {
	Net string  `json:"net"`
	Pad float64 `json:"pad"`
}

// OptionsSpec is the serializable subset of analysis options a remote
// worker needs to rebuild the coordinator's engine configuration. It
// mirrors the snad session options.
type OptionsSpec struct {
	Mode             string  `json:"mode,omitempty"`
	Threshold        float64 `json:"threshold,omitempty"`
	NoPropagation    bool    `json:"no_propagation,omitempty"`
	LogicCorrelation bool    `json:"logic_correlation,omitempty"`
	Workers          int     `json:"workers,omitempty"`
	FailFast         bool    `json:"fail_fast,omitempty"`
	MaxIter          int     `json:"max_iter,omitempty"`
}

// DesignSpec ships the design sources to a remote worker so it can bind
// and analyze the same inputs the coordinator holds. In-process workers
// ignore it (they carry their own BuildDesign source).
type DesignSpec struct {
	Netlist string      `json:"netlist,omitempty"`
	Verilog string      `json:"verilog,omitempty"`
	SPEF    string      `json:"spef,omitempty"`
	Liberty string      `json:"liberty,omitempty"`
	Timing  string      `json:"timing,omitempty"`
	Options OptionsSpec `json:"options"`
}

// Route addresses a request: the run token and the shard. Every request
// embeds it (the JSON stays flat); the coordinator stamps it per dispatch
// and a Host keys its engines by it.
type Route struct {
	Token string `json:"token"`
	Shard int    `json:"shard"`
}

func (r *Route) route() *Route { return r }

// routed is implemented by every request through its embedded Route.
type routed interface{ route() *Route }

// InitRequest builds (or rebuilds) one shard's engine on a worker: the
// owned nets, the cumulative padding to seed timing with, and the
// authoritative combinations to restore (empty on the first init, the
// coordinator's committed state on a mid-run rebuild).
type InitRequest struct {
	Route
	Owned   []string    `json:"owned"`
	Padding []PadEntry  `json:"padding,omitempty"`
	Restore []NetComb   `json:"restore,omitempty"`
	Design  *DesignSpec `json:"design,omitempty"`
}

// EvalRequest evaluates the owned slice of one wave. Seq increases with
// every distinct wave dispatch; a runner that sees a Seq twice returns the
// accumulated response instead of re-evaluating, which is what makes a
// retried dispatch after a lost response exact. Boundary carries the fanin
// combinations committed on other shards since this shard's last eval.
type EvalRequest struct {
	Route
	Seq      int       `json:"seq"`
	Wave     int       `json:"wave"`
	Boundary []NetComb `json:"boundary,omitempty"`
}

// EvalResponse answers two different questions (core.ShardEngine.EvalWave):
// Updates is what to forward — every owned net whose committed peak, width
// or window differs at all — and Changed whether the pass moved beyond the
// fixpoint tolerance. A net can be in Updates while Changed is false.
type EvalResponse struct {
	Updates []NetComb `json:"updates,omitempty"`
	Changed bool      `json:"changed,omitempty"`
}

// RoundRequest applies one round of padding growth (absolute values).
type RoundRequest struct {
	Route
	Changed []PadEntry `json:"changed"`
}

// DelayRequest runs the delta-delay pass over the shard's owned nets.
type DelayRequest struct{ Route }

// DelayResponse returns the shard's impacts in evaluation order.
type DelayResponse struct {
	Impacts []ImpactWire `json:"impacts,omitempty"`
}

// CollectRequest fetches the shard's slice of the final result.
type CollectRequest struct{ Route }

// CollectResponse is the shard's final contribution: full per-net results,
// canonical-order violations and slacks, diagnostics, and additive stats.
type CollectResponse struct {
	Nets       []NetNoiseWire  `json:"nets"`
	Violations []ViolationWire `json:"violations,omitempty"`
	Slacks     []SlackWire     `json:"slacks,omitempty"`
	Diags      []DiagWire      `json:"diags,omitempty"`
	Pairs      int             `json:"pairs"`
	Filtered   int             `json:"filtered"`
	Propagated int             `json:"propagated"`
}

// CloseRequest drops one shard's engine (or, with Shard -1, every engine
// of the token) on a worker. Best-effort cleanup.
type CloseRequest struct{ Route }

func padEntries(padding map[string]float64) []PadEntry {
	if len(padding) == 0 {
		return nil
	}
	nets := make([]string, 0, len(padding))
	for net := range padding {
		nets = append(nets, net)
	}
	// Sorted so the wire bytes (and worker-side application order) are
	// deterministic.
	sort.Strings(nets)
	out := make([]PadEntry, len(nets))
	for i, net := range nets {
		out[i] = PadEntry{Net: net, Pad: padding[net]}
	}
	return out
}

func padMap(entries []PadEntry) map[string]float64 {
	out := make(map[string]float64, len(entries))
	for _, e := range entries {
		out[e.Net] = e.Pad
	}
	return out
}

// badRequestError marks a malformed protocol request (unknown op, missing
// engine, out-of-range wave) — a coordinator bug or a stale worker, not a
// transient fault.
func badRequestError(format string, args ...any) error {
	return &FatalError{Err: fmt.Errorf(format, args...)}
}
