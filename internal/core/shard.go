package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/bind"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// Sharded analysis support. A shard owns a subset of the victim nets but
// reads the full design and its full timing, which is what makes a shard's
// view of aggressor windows bit-identical to the single-process engine's.
// That timing costs as much as a shard's share of the noise analysis, so
// the shards of one run on one host share it (ShardTiming).
// Only propagated noise crosses shard boundaries —
// a victim's coupled events depend on aggressor *timing* (local everywhere)
// while its propagated events read the committed combinations of its fanin
// nets, which may be owned elsewhere. The coordinator (internal/shard)
// ships exactly those fanin combinations between shards, wave by wave.
//
// ShardEngine has no loop of its own, at any level. Passes and rounds are
// driven from outside by the one driver (RunIterative, through the
// coordinator's Phases); within a wave it runs the analyzer's own evalWave
// — the same function the single-process engine runs — filtered to the
// nets it owns. The equivalence argument is "same code over the same
// inputs in the same order", not a parallel implementation to keep in sync.

// FullRail returns the conservative fallback event and combination for a
// net the engine could not analyze, identical to the engine's internal
// fullRailEvent/fullRailComb. Exported so the coordinator can substitute
// the very same bound for every net of an irrecoverably lost shard.
func FullRail(vdd float64) (Event, Combined) {
	a := analyzer{vdd: vdd}
	return a.fullRailEvent(), a.fullRailComb()
}

// PlanID identifies a victim order: its length and a digest of its names.
// A position means the same net on two participants exactly when their IDs
// are equal, so every init carries the coordinator's and the engine refuses
// one that is not its own. (A net ID is each participant's own.)
type PlanID struct {
	Nets   int
	Digest [sha256.Size]byte
}

func orderID(d *netlist.Design, order []netlist.NetID) PlanID {
	h := sha256.New()
	var frame [binary.MaxVarintLen64]byte
	for _, net := range order {
		name := d.NetName(net)
		h.Write(frame[:binary.PutUvarint(frame[:], uint64(len(name)))])
		io.WriteString(h, name)
	}
	id := PlanID{Nets: len(order)}
	h.Sum(id.Digest[:0])
	return id
}

// ShardPlan is the design-global schedule and connectivity the partitioner
// and coordinator work from. It is derived deterministically from the bound
// design alone, so every participant (coordinator, each worker, a restarted
// coordinator) reconstructs the identical plan — which is what lets a net be
// named, everywhere between them, by its position in Order.
type ShardPlan struct {
	// Order is the global victim evaluation order: the one table from a
	// position to its net's name. ID identifies it.
	Order []string
	ID    PlanID
	// Nets is Order by net ID in the design the plan was built from, and
	// Pos the way back: each net ID's position, -1 for a net not analyzed.
	Nets []netlist.NetID
	Pos  []int32
	// Rank is each position's rank in alphabetical net-name order. Ordering
	// by it is how the partitioner stays independent of everything but the
	// names without ever comparing them again.
	Rank []int32
	// Waves partitions Order into level wavefronts; the feedback nets, if
	// any, are the serial wave, the last.
	Waves []Wave
	// Fanin lists, per analyzed net, the analyzed nets its propagated
	// events read (its driver's input nets), ascending. A shard must know
	// the committed combinations of every fanin of an owned net before
	// evaluating its wave; fanins it does not own are its imports.
	Fanin [][]int32
	// Adjacency is the undirected affinity graph the partitioner cuts:
	// coupling neighbours (from the RC networks) plus fanin/fanout edges,
	// deduplicated and ordered by Rank per net. Cutting a coupling edge
	// costs nothing at runtime (aggressor timing is local to every shard),
	// but keeping coupled and logically adjacent nets together is what
	// keeps boundary traffic and padding churn low.
	Adjacency [][]int32
}

// edgeLists turns directed edges, each from<<32 | to, into one ascending,
// deduplicated list per position; the lists share one backing array.
func edgeLists(n int, edges []uint64) [][]int32 {
	slices.Sort(edges)
	edges = slices.Compact(edges)
	flat, out := make([]int32, len(edges)), make([][]int32, n)
	for lo := 0; lo < len(edges); {
		from, hi := edges[lo]>>32, lo
		for ; hi < len(edges) && edges[hi]>>32 == from; hi++ {
			flat[hi] = int32(uint32(edges[hi]))
		}
		out[from] = flat[lo:hi:hi]
		lo = hi
	}
	return out
}

// BuildShardPlan derives the evaluation schedule and the affinity graph
// from the bound design. It runs no timing and builds no noise contexts, so
// it is cheap enough for the coordinator to rebuild on every run.
func BuildShardPlan(ctx context.Context, b *bind.Design) (*ShardPlan, error) {
	d, order := b.Net, victimOrderOf(b)
	pos, byName := orderIndex(d, order)
	plan := &ShardPlan{Order: make([]string, len(order)), ID: orderID(d, order), Nets: order, Pos: pos, Rank: make([]int32, len(order)), Waves: wavesOf(d, order)}
	for rank, p := range byName {
		plan.Rank[p] = int32(rank)
	}
	// Adjacency edges carry the neighbour's rank, so the one sort orders each
	// list alphabetically; they are mapped back to positions below.
	var fanin, adj []uint64
	link := func(a, b int32) {
		if a != b {
			adj = append(adj, uint64(a)<<32|uint64(plan.Rank[b]), uint64(b)<<32|uint64(plan.Rank[a]))
		}
	}
	for i, n := range order {
		if i&0x3f == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		plan.Order[i] = d.NetName(n)
		// Structural fanin: the driver instance's input nets.
		if drv := d.DriverInst(n); drv >= 0 {
			for _, ic := range d.Inputs(drv) {
				p := pos[d.Conn(ic).Net]
				if p < 0 {
					continue
				}
				fanin = append(fanin, uint64(i)<<32|uint64(p))
				link(int32(i), p)
			}
		}
		// Coupling neighbours, as the bind resolved the extracted parasitics.
		for _, g := range b.Couplings(n) {
			if g.Agg >= 0 && pos[g.Agg] >= 0 {
				link(int32(i), pos[g.Agg])
			}
		}
	}
	plan.Fanin, plan.Adjacency = edgeLists(len(order), fanin), edgeLists(len(order), adj)
	for _, list := range plan.Adjacency {
		for i, rank := range list {
			list[i] = byName[rank]
		}
	}
	return plan, nil
}

// WaveUpdate is one net's committed combination, keyed by its evaluation-order
// position: what an EvalWave call reports for every owned net that moved, and
// what the coordinator keeps as authoritative, forwards to every shard that
// imports the net and restores into a rebuilt engine. It carries no members:
// another engine reads a forwarded value for its peak, width and window only,
// and the report renders members from the owner's own evaluation (Collect).
type WaveUpdate struct {
	Pos  int32
	Comb [2]Combined
}

// PadUpdate is one net's absolute window padding, seconds, by its position:
// what seeds a shard engine's timing and what a round grows it by.
type PadUpdate struct {
	Pos int32
	Pad float64
}

// ErrPosition marks a net position outside a shard engine's victim order.
// The engine refused the request whole: nothing of it was applied.
var ErrPosition = errors.New("core: net position outside the victim order")

// ShardCollect is one shard's final contribution to the merged result.
type ShardCollect struct {
	// Nets holds the owned victims' final noise records, in evaluation
	// order.
	Nets []*NetNoise
	// Violations and Slacks are in canonical gather order (see
	// gatherChecks) restricted to owned nets — the coordinator interleaves
	// the shards' sequences by global alphabetical net order and then
	// applies the identical violation sort.
	Violations []Violation
	Slacks     []ReceiverSlack
	// Diags are the shard's fail-soft degradations, sorted.
	Diags []Diag
	// Pairs, Filtered, and Propagated are the shard's additive statistics
	// contributions.
	Pairs, Filtered, Propagated int
}

// ShardTiming is the timing annotation the shard engines of one run share on
// one host, one per padding state. A state is never written once built: a
// round builds the next one on a copy (sta.Result.Clone) and the first engine
// to apply the round publishes it for its siblings, so no engine reads a
// timing another one is updating, and a failed or cancelled update leaves
// every engine's state as it was.
type ShardTiming struct {
	b     *bind.Design
	opts  Options
	order []netlist.NetID
	id    PlanID // order's
	// observe, when set, sees each timing run (full) and update before it
	// starts, with the context it runs under (tests count and cancel them).
	// It runs under mu, so it must not call back into the ShardTiming.
	observe func(ctx context.Context, full bool)

	mu   sync.Mutex
	head *timingState // the state built last, which an init may share
}

// timingState is one padding state: its annotation and padding by net ID,
// both read-only, and (under the ShardTiming's lock) the state the first
// round from it built and the nets that round re-timed.
type timingState struct {
	res     *sta.Result
	pad     []float64
	next    *timingState
	retimed []netlist.NetID
}

// NewShardTiming returns the empty shared timing of the engines of one run
// over b with opts (the window padding comes from each init and round);
// observe may be nil.
func NewShardTiming(b *bind.Design, opts Options, observe func(ctx context.Context, full bool)) *ShardTiming {
	opts.STA.WindowPadding = nil
	order := victimOrderOf(b)
	return &ShardTiming{b: b, opts: opts, order: order, id: orderID(b.Net, order), observe: observe}
}

// at returns the state at padding pad: the last one built when its padding
// is pad, else a fresh timing run, which becomes the last.
func (t *ShardTiming) at(ctx context.Context, pad []float64) (*timingState, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.head != nil && slices.Equal(t.head.pad, pad) {
		return t.head, nil
	}
	if t.observe != nil {
		t.observe(ctx, true)
	}
	opts := t.opts.STA
	opts.WindowPadding = pad
	res, err := sta.RunCtx(ctx, t.b, opts, t.opts.Workers)
	if err != nil {
		return nil, err
	}
	t.head = &timingState{res: res, pad: pad}
	return t.head, nil
}

// advance returns the state one round leads to from s — padding pad, grown
// on the changed nets — and the nets the round re-timed: the state a sibling
// already built from s for the same padding, else an update of a copy of s,
// which is published when it is the first round from s.
func (t *ShardTiming) advance(ctx context.Context, s *timingState, pad []float64, changed []netlist.NetID) (*timingState, []netlist.NetID, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.next != nil && slices.Equal(s.next.pad, pad) {
		return s.next, s.retimed, nil
	}
	if t.observe != nil {
		t.observe(ctx, false)
	}
	res := s.res.Clone()
	opts := t.opts.STA
	opts.WindowPadding = pad
	retimed, err := res.UpdatePaddingCtx(ctx, opts, changed)
	if err != nil {
		return nil, nil, err
	}
	n := &timingState{res: res, pad: pad}
	if s.next == nil {
		s.next, s.retimed = n, retimed
	}
	if t.head == s {
		t.head = n
	}
	return n, retimed, nil
}

// ShardEngine runs the per-round noise/delay fixpoint over one partition of
// the victim set. It is driven from outside, one wave at a time: the
// coordinator feeds it the boundary combinations its owned nets read
// (SetComb), asks it to evaluate the owned slice of each wave (EvalWave),
// applies the round's padding growth (ApplyRound), and finally collects the
// shard's slice of the result (Collect, DelayImpacts). Ownership needs no
// filter of its own: the analyzer marks only victims it prepared as stale,
// and this one prepared only the owned.
type ShardEngine struct {
	a   *analyzer
	res *Result
	// owned lists the owned nets' evaluation-order positions, ascending.
	owned []int
	// tm is the shared timing and at this engine's state in it.
	tm *ShardTiming
	at *timingState
}

// NewShardEngine builds a shard over the full design of tm that prepares and
// evaluates only the owned nets, given as positions of the victim order plan
// identifies; an order other than this design's, or a position outside it, is
// refused. The padding, by position, selects the timing state; an engine
// rebuilt after a worker loss with the cumulative padding is therefore in
// exactly the state a surviving engine reached through incremental updates,
// by the same rebuild-equivalence contract core.Session relies on.
func NewShardEngine(ctx context.Context, tm *ShardTiming, plan PlanID, owned []int32, padding []PadUpdate) (*ShardEngine, error) {
	b, order := tm.b, tm.order
	if own := tm.id; own != plan {
		return nil, fmt.Errorf("core: shard plan names %d nets (digest %x), this design's victim order %d (digest %x)",
			plan.Nets, plan.Digest[:4], own.Nets, own.Digest[:4])
	}
	pad := make([]float64, b.Net.NumNets())
	if _, err := padTo(pad, order, padding); err != nil {
		return nil, err
	}
	at, err := tm.at(ctx, pad)
	if err != nil {
		return nil, err
	}
	a := newAnalyzerBase(b, tm.opts, order, at.res)
	e := &ShardEngine{a: a, owned: make([]int, len(owned)), tm: tm, at: at}
	for i, pos := range owned {
		e.owned[i] = int(pos)
	}
	slices.Sort(e.owned)
	e.owned = slices.Compact(e.owned)
	if n := len(e.owned); n > 0 && (e.owned[0] < 0 || e.owned[n-1] >= len(a.order)) {
		return nil, fmt.Errorf("core: shard owns net positions %d..%d, outside [0, %d)", e.owned[0], e.owned[n-1], len(a.order))
	}
	if err := a.prepareAll(ctx, e.owned); err != nil {
		return nil, err
	}
	e.res = a.newResult()
	return e, nil
}

// SetComb installs an externally committed combination for the net at pos —
// a boundary import from another shard, or a restored authoritative value
// after this engine was rebuilt mid-run — and, when it differs from what the
// net's owned readers last saw, makes them stale. The record is no
// evaluation of this engine's: its version is 0.
func (e *ShardEngine) SetComb(pos int32, comb [2]Combined) error {
	if pos < 0 || int(pos) >= len(e.a.order) {
		return fmt.Errorf("core: shard net position %d outside [0, %d)", pos, len(e.a.order))
	}
	net := e.a.order[pos]
	nn := &e.res.slab[pos]
	if combMoved(comb[KindLow], nn.Comb[KindLow]) || combMoved(comb[KindHigh], nn.Comb[KindHigh]) {
		e.a.markReaders(net)
	}
	nn.Comb, e.res.ver[pos] = comb, 0
	return nil
}

// EvalWave evaluates the stale owned nets of one wave through the analyzer's
// evalWave, so fail-soft degradation, statistics, the change test and the
// Options.Workers parallel path are the single-process engine's. It answers
// two questions that are not the same predicate. forward: every owned net
// whose committed Peak, Width or Window differs at all from before the call
// — importers must get those. changed: the convergence test (beyond
// tolerance) the pass loop asks for. After a padding round a fanin's window
// can widen while its peak holds — not changed, yet an importer combining
// against the stale narrow window reports peaks lower than single-process.
//
// On error both still describe the commits made so far — an aborted attempt
// has already mutated the engine, and the runner must remember them so a
// retried dispatch reports them (a committed net is clean and is not
// evaluated again).
func (e *ShardEngine) EvalWave(ctx context.Context, wi int) (forward []WaveUpdate, changed bool, err error) {
	if wi < 0 || wi >= len(e.a.waves) {
		return nil, false, fmt.Errorf("core: shard wave %d out of range", wi)
	}
	changed, err = e.a.evalWave(ctx, e.res, e.a.waves[wi], &forward)
	return forward, changed, err
}

// ApplyRound applies one round of padding growth, the changed nets' new
// absolute padding values: the engine moves to the shared timing state they
// lead to (ShardTiming.advance), and from there the round goes on as the
// single-process engine's does (retime): the owned victims of the re-timed
// aggressors are re-prepared. A round that leaves the padding as it is — one
// this engine already applied — changes nothing. A position outside the order
// refuses the round (ErrPosition); any failure before the move leaves the
// engine as it was, and one after it wraps ErrSessionBroken.
func (e *ShardEngine) ApplyRound(ctx context.Context, changed []PadUpdate) error {
	pad := slices.Clone(e.at.pad)
	ids, err := padTo(pad, e.a.order, changed)
	if err != nil || slices.Equal(pad, e.at.pad) {
		return err
	}
	next, retimed, err := e.tm.advance(ctx, e.at, pad, ids)
	if err != nil {
		return err
	}
	e.at, e.a.staRes, e.res.STA = next, next.res, next.res
	if err := e.a.retime(ctx, retimed); err != nil {
		return fmt.Errorf("%w: %w", ErrSessionBroken, err)
	}
	return nil
}

// padTo writes pads, positions of order, into padding by net ID and returns
// their nets; a position outside order refuses them all, unwritten.
func padTo(padding []float64, order []netlist.NetID, pads []PadUpdate) ([]netlist.NetID, error) {
	ids := make([]netlist.NetID, len(pads))
	for i, p := range pads {
		if p.Pos < 0 || int(p.Pos) >= len(order) {
			return nil, fmt.Errorf("%w: padding position %d outside [0, %d)", ErrPosition, p.Pos, len(order))
		}
		ids[i] = order[p.Pos]
	}
	for i, p := range pads {
		padding[ids[i]] = p.Pad
	}
	return ids, nil
}

// DelayImpacts runs the crosstalk delta-delay pass over the delay-stale owned
// victims and returns their impacts, a list per owned net in ascending
// position — the place names the net — which is the engine's own until its
// next delay pass. The impact sort comparator is total, so the coordinator
// may flatten all shards' impacts together (FlattenImpacts) and obtain the
// single-process order.
func (e *ShardEngine) DelayImpacts(ctx context.Context) ([][]DelayImpact, error) {
	if err := e.a.delayPass(ctx); err != nil {
		return nil, err
	}
	out := make([][]DelayImpact, len(e.owned))
	for i, pos := range e.owned {
		if i&0x3f == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		out[i] = e.a.impacts[pos]
	}
	return out, nil
}

// Collect returns the shard's slice of the final result. Violations and
// slacks come from the canonical gather sweep — degraded and non-owned
// victims have no noise context here, so the sweep yields exactly the
// owned nets' canonical subsequence.
func (e *ShardEngine) Collect(ctx context.Context) (*ShardCollect, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.a.gatherChecks(e.res)
	out := &ShardCollect{
		Nets:       make([]*NetNoise, 0, len(e.owned)),
		Pairs:      e.a.stats.AggressorPairs,
		Filtered:   e.a.stats.Filtered,
		Propagated: e.a.propTotal,
	}
	for i, pos := range e.owned {
		if i&0x3f == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		out.Nets = append(out.Nets, &e.res.slab[pos])
	}
	out.Violations = append(out.Violations, e.res.Violations...)
	out.Slacks = append(out.Slacks, e.res.Slacks...)
	SortDiags(e.a.diags)
	out.Diags = append(out.Diags, e.a.diags...)
	return out, nil
}
