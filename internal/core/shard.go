package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/bind"
)

// Sharded analysis support. A shard owns a subset of the victim nets but
// holds the full design: timing, RC networks, and cell models are cheap
// relative to the noise analysis itself, and running full STA everywhere is
// what makes a shard's view of aggressor windows bit-identical to the
// single-process engine's. Only propagated noise crosses shard boundaries —
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

// EffectiveVdd resolves the supply voltage an analysis of this design will
// use — Options.Vdd when positive, the library supply otherwise. The
// coordinator needs it to synthesize full-rail fallbacks for abandoned
// shards that match what any engine would have produced.
func EffectiveVdd(b *bind.Design, opts Options) float64 {
	if opts.Vdd > 0 {
		return opts.Vdd
	}
	return b.Lib.Vdd
}

// FullRail returns the conservative fallback event and combination for a
// net the engine could not analyze, identical to the engine's internal
// fullRailEvent/fullRailComb. Exported so the coordinator can substitute
// the very same bound for every net of an irrecoverably lost shard.
func FullRail(vdd float64) (Event, Combined) {
	a := analyzer{vdd: vdd}
	return a.fullRailEvent(), a.fullRailComb()
}

// PlanWave is one level wavefront of the evaluation schedule, by net name.
type PlanWave struct {
	// Nets lists the wave's nets in evaluation (victimOrder) order.
	Nets []string
	// Serial marks the feedback wave: its nets read each other within a
	// pass (Gauss–Seidel), so they must all be owned by one shard.
	Serial bool
}

// ShardPlan is the design-global schedule and connectivity the partitioner
// and coordinator work from. It is derived deterministically from the bound
// design alone, so every participant (coordinator, each worker, a restarted
// coordinator) reconstructs the identical plan.
type ShardPlan struct {
	// Order is the global victim evaluation order.
	Order []string
	// Waves partitions Order into level wavefronts.
	Waves []PlanWave
	// Fanin maps each analyzed net to the analyzed nets its propagated
	// events read (its driver's input nets), sorted. A shard must know the
	// committed combinations of every fanin of an owned net before
	// evaluating its wave; fanins it does not own are its imports.
	Fanin map[string][]string
	// Adjacency is the undirected affinity graph the partitioner cuts:
	// coupling neighbours (from the RC networks) plus fanin/fanout edges,
	// sorted and deduplicated per net. Cutting a coupling edge costs
	// nothing at runtime (aggressor timing is local to every shard), but
	// keeping coupled and logically adjacent nets together is what keeps
	// boundary traffic and padding churn low.
	Adjacency map[string][]string
	// Feedback lists the nets of serial waves (empty for acyclic designs).
	Feedback []string
}

// BuildShardPlan derives the evaluation schedule and the affinity graph
// from the bound design. It runs no timing and builds no noise contexts, so
// it is cheap enough for the coordinator to rebuild on every run.
func BuildShardPlan(ctx context.Context, b *bind.Design) (*ShardPlan, error) {
	order := victimOrderOf(b)
	plan := &ShardPlan{
		Order:     make([]string, len(order)),
		Fanin:     make(map[string][]string, len(order)),
		Adjacency: make(map[string][]string, len(order)),
	}
	inOrder := make(map[string]bool, len(order))
	for i, n := range order {
		plan.Order[i] = n.Name
		inOrder[n.Name] = true
	}
	for lo := 0; lo < len(order); {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lvl := netLevel(order[lo])
		hi := lo + 1
		for hi < len(order) && netLevel(order[hi]) == lvl {
			hi++
		}
		w := PlanWave{Nets: plan.Order[lo:hi], Serial: lvl == feedbackLevel}
		plan.Waves = append(plan.Waves, w)
		if w.Serial {
			plan.Feedback = append(plan.Feedback, w.Nets...)
		}
		lo = hi
	}
	adj := make(map[string]map[string]bool, len(order))
	link := func(a, b string) {
		if a == b || !inOrder[a] || !inOrder[b] {
			return
		}
		if adj[a] == nil {
			adj[a] = make(map[string]bool)
		}
		if adj[b] == nil {
			adj[b] = make(map[string]bool)
		}
		adj[a][b] = true
		adj[b][a] = true
	}
	for i, n := range order {
		if i&0x3f == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// Structural fanin: the driver instance's input nets.
		if drv := n.Driver(); drv != nil && drv.Inst != nil {
			var fanin []string
			seen := make(map[string]bool)
			for _, ic := range drv.Inst.Inputs() {
				if ic.Net == nil || !inOrder[ic.Net.Name] || seen[ic.Net.Name] {
					continue
				}
				seen[ic.Net.Name] = true
				fanin = append(fanin, ic.Net.Name)
				link(n.Name, ic.Net.Name)
			}
			sort.Strings(fanin)
			plan.Fanin[n.Name] = fanin
		}
		// Coupling neighbours from the extracted parasitics.
		for _, c := range b.NetworkOf(n).CouplingsView() {
			if c.OtherNet != "" {
				link(n.Name, c.OtherNet)
			}
		}
	}
	i := 0
	for name, set := range adj {
		if i&0x3f == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		i++
		out := make([]string, 0, len(set))
		for other := range set {
			out = append(out, other)
		}
		sort.Strings(out)
		plan.Adjacency[name] = out
	}
	return plan, nil
}

// WaveUpdate is one owned net's newly committed combination from an
// EvalWave call: the coordinator applies it to its authoritative state and
// forwards it to every shard that imports the net.
type WaveUpdate struct {
	Net  string
	Comb [2]Combined
}

// ShardCollect is one shard's final contribution to the merged result.
type ShardCollect struct {
	// Nets holds the owned victims' final noise records, in evaluation
	// order.
	Nets []*NetNoise
	// Violations and Slacks are in canonical gather order (see
	// gatherChecks) restricted to owned nets — the coordinator interleaves
	// the shards' sequences by global alphabetical net order and then
	// applies the identical final sorts.
	Violations []Violation
	Slacks     []ReceiverSlack
	// Diags are the shard's fail-soft degradations, sorted.
	Diags []Diag
	// Pairs, Filtered, and Propagated are the shard's additive statistics
	// contributions.
	Pairs, Filtered, Propagated int
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
}

// NewShardEngine builds a shard over the full design that prepares and
// evaluates only the owned nets. The padding map seeds the timing run
// (values are copied); an engine rebuilt after a worker loss with the
// cumulative padding is therefore in exactly the state a surviving engine
// reached through incremental updates, by the same rebuild-equivalence
// contract core.Session relies on.
func NewShardEngine(ctx context.Context, b *bind.Design, opts Options, owned []string, padding map[string]float64) (*ShardEngine, error) {
	pad := make(map[string]float64, len(padding))
	for net, p := range padding {
		pad[net] = p
	}
	opts.STA.WindowPadding = pad
	a, err := newAnalyzerBase(ctx, b, opts)
	if err != nil {
		return nil, err
	}
	e := &ShardEngine{a: a, owned: make([]int, len(owned))}
	for i, name := range owned {
		if i&0x3f == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		net := b.Net.FindNet(name)
		if net == nil || a.posByID[net.ID()] < 0 {
			return nil, fmt.Errorf("core: shard owns unknown net %s", name)
		}
		e.owned[i] = int(a.posByID[net.ID()])
	}
	slices.Sort(e.owned)
	e.owned = slices.Compact(e.owned)
	if err := a.prepareAll(ctx, e.owned); err != nil {
		return nil, err
	}
	e.res = a.newResult()
	return e, nil
}

// SetComb installs an externally committed combination for a net — a
// boundary import from another shard, or a restored authoritative value
// after this engine was rebuilt mid-run — and, when it differs from what the
// net's owned readers last saw, makes them stale. A net the design lacks is
// ignored.
func (e *ShardEngine) SetComb(name string, comb [2]Combined) {
	nn := e.res.Nets[name]
	if nn == nil {
		return
	}
	if combMoved(comb[KindLow], nn.Comb[KindLow]) || combMoved(comb[KindHigh], nn.Comb[KindHigh]) {
		e.a.markReaders(e.a.b.Net.FindNet(name))
	}
	nn.Comb = comb
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

// ApplyRound applies one round of padding growth: the changed nets' new
// absolute padding values are written into the timing options, and from
// there the round begins as the single-process engine's does (applyPadding):
// the timing annotation is updated in place over the full design, and the
// owned victims of the re-timed aggressors are re-prepared.
func (e *ShardEngine) ApplyRound(ctx context.Context, changed []string, padding map[string]float64) error {
	for _, net := range changed {
		e.a.opts.STA.WindowPadding[net] = padding[net]
	}
	return e.a.applyPadding(ctx, changed)
}

// DelayImpacts runs the crosstalk delta-delay pass over the delay-stale owned
// victims and returns all owned impacts in evaluation order (the order
// assembleDelay flattens in). The impact sort comparator is total, so the
// coordinator may sort the concatenation of all shards' lists and obtain
// exactly the single-process order.
func (e *ShardEngine) DelayImpacts(ctx context.Context) ([]DelayImpact, error) {
	if err := e.a.delayPass(ctx); err != nil {
		return nil, err
	}
	var out []DelayImpact
	for i, pos := range e.owned {
		if i&0x3f == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		out = append(out, e.a.impacts[pos]...)
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
		out.Nets = append(out.Nets, e.res.byID[e.a.order[pos].ID()])
	}
	out.Violations = append(out.Violations, e.res.Violations...)
	out.Slacks = append(out.Slacks, e.res.Slacks...)
	sortDiags(e.a.diags)
	out.Diags = append(out.Diags, e.a.diags...)
	return out, nil
}
