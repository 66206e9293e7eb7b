package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/netlist"
)

// Config parameterizes one noise↔delay fixpoint run, coordinated across
// workers (Run) or in this process (RunLocal).
type Config struct {
	// B is the bound design. The coordinator uses it only to derive the
	// shard plan and the library's supply voltage; the analysis itself runs
	// on the workers.
	B *bind.Design
	// Opts are the analysis options, shared verbatim with every engine and
	// with the loop driver (NoPropagation ends a round after one pass).
	Opts core.Options
	// Workers are the execution backends. Shards are assigned round-robin
	// and reassigned to surviving workers when one is lost.
	Workers []Worker
	// Shards is the partition size (default: one per worker).
	Shards int
	// Token names the run; it routes requests on shared workers.
	Token string
	// Design is the design source shipped to remote workers in init
	// requests; in-process workers ignore it.
	Design *DesignSpec
	// MaxRounds bounds the outer noise–delay loop (default 8).
	MaxRounds int
	// DispatchTimeout bounds each dispatch attempt (0 = only the run
	// context limits it).
	DispatchTimeout time.Duration
	// Resume is the round state to start from: a zero Round starts fresh;
	// otherwise Padding holds an entry per net of B, which the run takes
	// over and grows in place.
	Resume core.RoundState
	// AfterRound, when set, sees the state after every round that leaves
	// the loop running: what a caller keeps to resume from.
	AfterRound func(core.RoundState)
	// Logf receives coordinator progress and degradation logs (nil = quiet).
	Logf func(format string, args ...any)
}

// attempts is how many times one dispatch is tried on a worker before the
// worker is declared lost.
const attempts = 2

// Outcome is the result of a run. For a healthy distributed run it is
// byte-identical (after report serialization) to AnalyzeIterativeCtx on the
// same design and options; under worker loss it is a sound conservative
// report with the loss recorded in Noise.Diags.
type Outcome struct {
	core.IterativeResult
	// Degraded reports any fail-soft degradation, including abandoned
	// shards (equivalent to len(Noise.Diags) > 0).
	Degraded bool
	// Reassigns counts engine rebuilds after the first init (on another
	// worker after a loss, in place after a broken answer); AbandonedShards
	// lists shards degraded to full-rail because no worker could host them.
	Reassigns       int
	AbandonedShards []int
	// Dispatches is the run's ledger by op, every Worker.Do attempt counted.
	Dispatches map[string]OpStat
	// Shards is the shard count the run was configured with, one per
	// worker unless Config.Shards set it.
	Shards int
}

// OpStat is one op's share of a run: round trips and their summed wall clock.
type OpStat struct {
	Dispatches int     `json:"dispatches"`
	Seconds    float64 `json:"seconds"`
}

func (s OpStat) String() string { return fmt.Sprintf("%d in %.3fs", s.Dispatches, s.Seconds) }

// errAbandoned marks a dispatch to a shard that was degraded to the
// full-rail fallback; the phase skips it and the run stays sound.
var errAbandoned = errors.New("shard: abandoned")

// cell is one shard's slice of one wave, the unit an eval step dispatches.
type cell struct{ shard, wave int }

// run is the mutable state of one coordinated analysis. It is the
// distributed core.Phases: each phase dispatches to the workers hosting the
// shards. The loops that call the phases are core's. Everything per net is a
// slice over the plan's victim order, or, for padding, over the design's net
// IDs; a name appears only where the run meets the report.
type run struct {
	cfg  Config
	plan *core.ShardPlan
	asn  *Assignment
	// readers lists, per net, the cells (shard, wave) that own a net reading
	// its combination: where a moved commit of it leaves stale nets.
	readers [][]cell
	// present[s][w] reports shard s owning nets in wave w — waves without
	// owned nets are never dispatched to s.
	present [][]bool
	frEvent core.Event
	frComb  core.Combined

	seq atomic.Int64

	mu    sync.Mutex
	hosts []int  // shard -> worker index, -1 = abandoned
	alive []bool // worker index -> believed alive
	cause []error
	// due[s][w] reports that shard s may hold stale nets in wave w: every
	// present wave once its engine is built or a round applied, afterwards
	// the waves of the readers of each moved commit. An eval step goes only
	// to the shards due in its wave — the others would evaluate nothing —
	// and is no dispatch at all when no shard is.
	due [][]bool
	// combs is the coordinator's authoritative committed combination per
	// net, for the nets committed marks; pending[s] queues the imports of s
	// with updates not yet shipped (a net once per commit).
	combs     [][2]core.Combined
	committed []bool
	pending   [][]int32
	// padding is the round loop's cumulative padding by net ID (aliased:
	// the loop grows it, the phases ship it by position).
	padding []float64
	// progress is how many waves of the current pass are complete — the
	// warm-up horizon for a rebuilt engine (see reinit).
	progress int
	// passChanged collects, since the last EvalWave returned, whether a
	// shard committed beyond tolerance or was abandoned — importers must
	// re-evaluate against the bound before a pass may converge.
	passChanged bool
	reassigns   int
	// passes and converged are the last round's fixpoint statistics, kept
	// for the merged Stats.
	passes    int
	converged bool
	ledger    map[string]OpStat
}

// Run executes the distributed noise–delay fixpoint: partition, fan out,
// exchange boundary windows wave by wave, grow padding round by round,
// and merge — surviving worker loss by reassigning or, at worst,
// degrading lost shards to the conservative full-rail bound. It returns
// an error only for cancellation, a deterministic analysis failure (which
// would equally fail single-process), or a setup problem; worker loss
// never fails the run.
//
// The round and pass loops are core.RunIterative's; here is only what is
// distributed: partition, boundary routing, retry/re-host/abandon, merge.
func Run(ctx context.Context, cfg Config) (*Outcome, error) {
	r, err := newRun(ctx, cfg)
	if err != nil {
		return nil, err
	}
	from := r.cfg.Resume
	if from.Padding == nil {
		from.Padding = make([]float64, r.cfg.B.Net.NumNets())
	}
	r.padding = from.Padding
	// On every exit: a failed or cancelled run must not leave its engines,
	// and the design reference their token pins, on the workers.
	defer r.finish()
	res, err := core.RunIterative(ctx, r, r.cfg.Opts, r.cfg.MaxRounds, from, r.cfg.AfterRound)
	if err != nil {
		return nil, err
	}
	cols, err := r.collectAll(ctx)
	if err != nil {
		return nil, err
	}
	out := &Outcome{IterativeResult: *res, Shards: r.cfg.Shards}
	out.Padding = core.PaddingByName(r.cfg.B.Net, r.padding)
	r.assemble(out, cols)
	return out, nil
}

// newRun plans and partitions the design and places the shards.
func newRun(ctx context.Context, cfg Config) (*run, error) {
	if cfg.B == nil {
		return nil, fmt.Errorf("shard: coordinator needs a bound design")
	}
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one worker")
	}
	cfg.fill()
	plan, err := core.BuildShardPlan(ctx, cfg.B)
	if err != nil {
		return nil, err
	}
	asn, err := Partition(plan, cfg.Shards, 0)
	if err != nil {
		return nil, err
	}
	r := &run{
		cfg:       cfg,
		plan:      plan,
		asn:       asn,
		readers:   make([][]cell, len(plan.Order)),
		hosts:     make([]int, asn.Shards),
		alive:     make([]bool, len(cfg.Workers)),
		cause:     make([]error, asn.Shards),
		combs:     make([][2]core.Combined, len(plan.Order)),
		committed: make([]bool, len(plan.Order)),
		pending:   make([][]int32, asn.Shards),
		ledger:    make(map[string]OpStat),
	}
	r.frEvent, r.frComb = core.FullRail(cfg.B.Lib.Vdd)
	for s := range r.hosts {
		r.hosts[s] = s % len(cfg.Workers)
	}
	for w := range r.alive {
		r.alive[w] = true
	}
	r.present, r.due = make([][]bool, asn.Shards), make([][]bool, asn.Shards)
	for s := range r.present {
		r.present[s], r.due[s] = make([]bool, len(plan.Waves)), make([]bool, len(plan.Waves))
	}
	for wi, w := range plan.Waves {
		for p := w.Lo; p < w.Hi; p++ {
			c := cell{int(asn.Owner[p]), wi}
			r.present[c.shard][wi] = true
			for _, in := range plan.Fanin[p] {
				if !slices.Contains(r.readers[in], c) {
					r.readers[in] = append(r.readers[in], c)
				}
			}
		}
	}
	return r, nil
}

// RunLocal is Run without workers: the same loop over the single-process
// engine. Of cfg it reads B, Opts, MaxRounds, Resume and AfterRound.
func RunLocal(ctx context.Context, cfg Config) (*Outcome, error) {
	res, err := core.ResumeIterativeCtx(ctx, cfg.B, cfg.Opts, cfg.MaxRounds, cfg.Resume, cfg.AfterRound)
	if err != nil {
		return nil, err
	}
	return &Outcome{IterativeResult: *res, Degraded: len(res.Noise.Diags) > 0}, nil
}

func (cfg *Config) fill() {
	if cfg.Token == "" {
		cfg.Token = "run"
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Shards <= 0 {
		cfg.Shards = len(cfg.Workers)
	}
}

// BeginRound implements core.Phases: the first round builds every shard's
// engine, seeded with the cumulative padding (empty on a fresh run, the
// resumed state's); later rounds push the growth to every live shard.
func (r *run) BeginRound(ctx context.Context, changed []netlist.NetID) (int, error) {
	r.setProgress(0)
	if changed == nil {
		return len(r.plan.Waves), r.initAll(ctx)
	}
	return len(r.plan.Waves), r.applyRoundAll(ctx, changed)
}

// EvalWave implements core.Phases: dispatch the wave to every shard due in
// it, then report (and reset) whether anything moved.
func (r *run) EvalWave(ctx context.Context, wi int) (bool, error) {
	r.setProgress(wi)
	if err := r.evalWaveAll(ctx, wi); err != nil {
		return false, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	changed := r.passChanged
	r.passChanged = false
	return changed, nil
}

// DelayImpacts implements core.Phases. The diagnostics of the result are
// filled in by the merge, once the shards' are known.
func (r *run) DelayImpacts(ctx context.Context, passes int, converged bool) (*core.DelayResult, error) {
	r.setProgress(len(r.plan.Waves))
	r.passes, r.converged = passes, converged
	impacts, err := r.delayAll(ctx)
	if err != nil {
		return nil, err
	}
	return &core.DelayResult{Mode: r.cfg.Opts.Mode, Impacts: impacts}, nil
}

func (r *run) nextSeq() int { return int(r.seq.Add(1)) }

func (r *run) setProgress(p int) {
	r.mu.Lock()
	r.progress = p
	r.mu.Unlock()
}

// isFatal reports a deterministic analysis failure: retrying it anywhere
// reproduces it, so the run must abort (exactly as single-process would).
func isFatal(err error) bool {
	var fe *FatalError
	return errors.As(err, &fe)
}

func (r *run) at(shards ...int) Route { return Route{Token: r.cfg.Token, Shards: shards} }

// tryWorker runs one request on one worker with per-attempt timeout and
// bounded retries, counting every attempt in the ledger. A request of one
// fails as its shard does. Fatal and engine-broken errors return immediately
// (retrying in place cannot help); transient errors (timeouts, transport
// loss, injected faults) are retried before the caller declares the worker
// lost.
func (r *run) tryWorker(ctx context.Context, wi int, op string, req request, rep *Reply) error {
	w, shards := r.cfg.Workers[wi], len(req.route().Shards)
	var last error
	for att := 0; att < attempts; att++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		actx := ctx
		cancel := func() {}
		if r.cfg.DispatchTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, r.cfg.DispatchTimeout)
		}
		t0 := time.Now()
		err := w.Do(actx, op, req, rep)
		cancel()
		r.mu.Lock()
		st := r.ledger[op]
		r.ledger[op] = OpStat{st.Dispatches + 1, st.Seconds + time.Since(t0).Seconds()}
		r.mu.Unlock()
		if err == nil && len(rep.Faults) != shards {
			err = fmt.Errorf("shard: worker %s answered for %d of %d shards", w.Name(), len(rep.Faults), shards)
		} else if err == nil && shards == 1 {
			err = rep.Faults[0].err()
		}
		if err == nil {
			err = r.ownUpdates(req.route().Shards, rep)
		}
		if err == nil {
			return nil
		}
		last = err
		if isFatal(err) || errors.Is(err, ErrEngineBroken) {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return last
}

// ownUpdates vets an answer before it indexes the coordinator's state:
// every forwarded position lies in the plan and belongs to the shard that
// reports it, and a shard's delay impacts come in a list per net it owns.
// Anything else is a worker speaking of another design.
func (r *run) ownUpdates(shards []int, rep *Reply) error {
	for i, ev := range rep.Evals {
		for _, u := range ev.Updates {
			if u.Pos < 0 || int(u.Pos) >= len(r.asn.Owner) || int(r.asn.Owner[u.Pos]) != shards[i] {
				return badRequestError("shard: shard %d forwarded net position %d, which it does not own", shards[i], u.Pos)
			}
		}
	}
	for i, nets := range rep.Impacts {
		if len(nets) != len(r.asn.Owned[shards[i]]) {
			return badRequestError("shard: shard %d reported impacts for %d nets, it owns %d", shards[i], len(nets), len(r.asn.Owned[shards[i]]))
		}
	}
	return nil
}

// exchange runs one step — op over the live shards due in wave, or over
// all of them (wave -1) — with one request per worker: mk builds the
// request for the shards a worker hosts, the workers run concurrently, and
// within a run a worker therefore never has two requests in flight. commit
// is handed each good answer as (shard, reply, index in the reply). A shard
// whose answer is a fault — and every shard of a request that failed as a
// whole, after its worker was declared lost — is re-sent as a request of one
// through dispatch, the one failure ladder; the runners' protocol (eval Seq
// memo, idempotent round and init) keeps the re-send exact.
func (r *run) exchange(ctx context.Context, op string, wave int, mk func(at Route) request, commit func(shard int, rep *Reply, i int)) error {
	groups, idle := make([][]int, len(r.cfg.Workers)), true
	r.mu.Lock()
	for s, wi := range r.hosts {
		if wi >= 0 && (wave < 0 || r.due[s][wave]) {
			groups[wi], idle = append(groups[wi], s), false
		}
	}
	r.mu.Unlock()
	if idle {
		return nil
	}
	return parallel(len(groups), func(wi int) error {
		g := groups[wi]
		if len(g) == 0 {
			return nil
		}
		req, done := mk(r.at(g...)), make([]bool, len(g))
		// A request of one is the ladder's own first send.
		if len(g) > 1 && r.workerAlive(wi) {
			rep := &Reply{}
			if err := r.tryWorker(ctx, wi, op, req, rep); err == nil {
				for i, f := range rep.Faults {
					if done[i] = f.Kind == faultNone; done[i] {
						commit(g[i], rep, i)
					}
				}
			} else if aerr := r.lost(ctx, wi, err); aerr != nil {
				return aerr
			}
		}
		return parallel(len(g), func(i int) error {
			if done[i] {
				return nil
			}
			rep := &Reply{}
			if err := r.dispatch(ctx, g[i], op, req.pick(i), rep); err != nil {
				return err
			}
			commit(g[i], rep, 0)
			return nil
		})
	})
}

// dispatch executes a request of one against its shard wherever it is
// hosted, surviving worker loss: engine-broken answers re-initialize in
// place, transient loss marks the worker dead and re-hosts the shard on a
// survivor (rebuilding its engine from the authoritative state), and only
// when no worker can host it is the shard abandoned (errAbandoned).
func (r *run) dispatch(ctx context.Context, shard int, op string, req request, rep *Reply) error {
	brokenTries := 0
	for {
		r.mu.Lock()
		wi := r.hosts[shard]
		r.mu.Unlock()
		if wi < 0 {
			return errAbandoned
		}
		if !r.workerAlive(wi) {
			if err := r.rehost(ctx, shard); err != nil {
				return err
			}
			continue
		}
		err := r.tryWorker(ctx, wi, op, req, rep)
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrEngineBroken) && brokenTries == 0 && ctx.Err() == nil {
			// The engine refused work after a half-applied update; rebuild
			// it in place once. A second broken answer means the rebuild
			// path itself is failing — treat the worker as lost.
			brokenTries++
			if err = r.reinit(ctx, shard, wi); err == nil {
				continue
			}
		}
		if aerr := r.lost(ctx, wi, err); aerr != nil {
			return aerr
		}
		if rerr := r.rehost(ctx, shard); rerr != nil {
			return rerr
		}
	}
}

// lost classifies a failed dispatch to worker wi. A deterministic failure
// or a cancelled run is returned, to abort with; anything else means the
// worker is gone: it is marked dead and nil returned, so the caller
// re-hosts.
func (r *run) lost(ctx context.Context, wi int, err error) error {
	if isFatal(err) {
		return err
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	r.markDead(wi, err)
	return nil
}

func (r *run) workerAlive(wi int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.alive[wi]
}

func (r *run) markDead(wi int, err error) {
	r.mu.Lock()
	was := r.alive[wi]
	r.alive[wi] = false
	r.mu.Unlock()
	if was {
		r.cfg.Logf("shard: worker %s lost: %v", r.cfg.Workers[wi].Name(), err)
	}
}

// rehost moves a shard onto a live worker (possibly the one it is already
// on, after the initial placement) and rebuilds its engine there. When no
// live worker remains — or every candidate fails — the shard is abandoned
// and errAbandoned returned; deterministic failures and cancellation
// propagate.
func (r *run) rehost(ctx context.Context, shard int) error {
	for {
		r.mu.Lock()
		if r.hosts[shard] < 0 {
			r.mu.Unlock()
			return errAbandoned
		}
		cand := -1
		for off := 1; off <= len(r.alive); off++ {
			w := (r.hosts[shard] + off) % len(r.alive)
			if r.alive[w] {
				cand = w
				break
			}
		}
		if cand < 0 {
			r.mu.Unlock()
			r.abandon(shard, errors.New("no live workers remain"))
			return errAbandoned
		}
		r.hosts[shard] = cand
		r.mu.Unlock()
		r.cfg.Logf("shard: re-hosting shard %d on worker %s", shard, r.cfg.Workers[cand].Name())
		err := r.reinit(ctx, shard, cand)
		if err == nil {
			return nil
		}
		if aerr := r.lost(ctx, cand, err); aerr != nil {
			return aerr
		}
	}
}

// initRequest builds the init of the addressed shards from the
// authoritative state: the cumulative padding and, per shard, the committed
// combinations of its owned and imported nets (none before the first wave).
func (r *run) initRequest(at Route) request {
	req := &InitRequest{Route: at, Design: r.cfg.Design, Plan: r.plan.ID, Inits: make([]ShardInit, len(at.Shards))}
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, pad := range r.padding {
		if pad > 0 && r.plan.Pos[id] >= 0 { // an undriven net, outside the order, has no timing to pad
			req.Padding = append(req.Padding, PadEntry{Pos: r.plan.Pos[id], Pad: pad})
		}
	}
	for i, shard := range at.Shards {
		in := &req.Inits[i]
		in.Owned = r.asn.Owned[shard]
		for _, nets := range [][]int32{in.Owned, r.asn.imports[shard]} {
			for _, p := range nets {
				if r.committed[p] {
					in.Restore = append(in.Restore, NetComb{Pos: p, Comb: r.combs[p]})
				}
			}
		}
		// The restore supersedes any queued boundary deltas, and a fresh
		// engine starts with every owned net stale.
		r.pending[shard] = nil
		copy(r.due[shard], r.present[shard])
	}
	return req
}

// reinit rebuilds a shard's engine on worker wi: a fresh padding-seeded
// init, the authoritative combinations restored, and a warm-up sweep over
// the waves this pass is already past so the fresh engine's event lists,
// members and statistics catch up with the state the lost engine carried
// (the waves still ahead are due again, by initRequest, and the pass
// reaches them). The warm-up re-evaluations see exactly the inputs the lost
// engine saw, so they commit identical values and report no spurious
// updates.
func (r *run) reinit(ctx context.Context, shard, wi int) error {
	r.mu.Lock()
	r.reassigns++
	warmTo := r.progress
	r.mu.Unlock()
	if err := r.tryWorker(ctx, wi, OpInit, r.initRequest(r.at(shard)), &Reply{}); err != nil {
		return err
	}
	for w := 0; w < warmTo; w++ {
		if !r.present[shard][w] {
			continue
		}
		req := &EvalRequest{Route: r.at(shard), Seq: r.nextSeq(), Wave: w, Boundary: make([][]NetComb, 1)}
		rep := &Reply{}
		if err := r.tryWorker(ctx, wi, OpEval, req, rep); err != nil {
			return err
		}
		r.applyEval(shard, w, &rep.Evals[0])
	}
	return nil
}

// abandon degrades a shard that no worker can host: its owned nets get
// the conservative full-rail combination (the same bound fail-soft
// degradation uses), importers are notified so downstream propagation
// sees the bound, and the merge will synthesize per-net degradation
// records. The report stays sound — pessimistic, never wrong.
func (r *run) abandon(shard int, cause error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hosts[shard] < 0 {
		return
	}
	r.hosts[shard] = -1
	r.cause[shard] = cause
	for _, p := range r.asn.Owned[shard] {
		r.commit(shard, NetComb{Pos: p, Comb: [2]core.Combined{r.frComb, r.frComb}})
	}
	r.passChanged = true
	r.cfg.Logf("shard: abandoning shard %d (%d nets degrade to full-rail): %v",
		shard, len(r.asn.Owned[shard]), cause)
}

// takeBoundary drains the queued boundary updates for a shard into a wire
// list, each net once with its latest combination, ascending. Entries are
// moved, not copied: the caller's request owns them across re-sends, and a
// re-host's restore supersedes them anyway.
func (r *run) takeBoundary(shard int) []NetComb {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.pending[shard]) == 0 {
		return nil
	}
	slices.Sort(r.pending[shard])
	nets := slices.Compact(r.pending[shard])
	out := make([]NetComb, len(nets))
	for i, p := range nets {
		out[i] = NetComb{Pos: p, Comb: r.combs[p]}
	}
	r.pending[shard] = nets[:0]
	return out
}

// applyEval commits a shard's wave result: the cell is clean, its forwarded
// combinations go into the authoritative state and to their readers (all of
// them — "forward" is the engine's exact test, not the convergence one), and
// its changed bit feeds the pass loop.
func (r *run) applyEval(shard, wave int, res *EvalResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.due[shard][wave] = false
	for _, u := range res.Updates {
		r.commit(shard, u)
	}
	r.passChanged = r.passChanged || res.Changed
}

// commit records (r.mu held) that a net owned by shard committed a new
// combination: it is the authoritative one, the cells of its readers are due
// — its own among them when a feedback net reads its wave — and the other
// live shards get it as a boundary import with their next eval.
func (r *run) commit(shard int, u NetComb) {
	r.combs[u.Pos], r.committed[u.Pos] = u.Comb, true
	for _, c := range r.readers[u.Pos] {
		r.due[c.shard][c.wave] = true
		if c.shard != shard && r.hosts[c.shard] >= 0 {
			r.pending[c.shard] = append(r.pending[c.shard], u.Pos)
		}
	}
}

// parallel runs fn(0..n-1) concurrently and returns the first error that
// aborts the run; errAbandoned results are tolerated (the shard was
// degraded, the run goes on).
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, errAbandoned) {
			return err
		}
	}
	return nil
}

// initAll builds every live shard's engine, seeded with the cumulative
// padding (empty on a fresh run, Config.Resume's on resume).
func (r *run) initAll(ctx context.Context) error {
	return r.exchange(ctx, OpInit, -1, r.initRequest, func(int, *Reply, int) {})
}

// applyRoundAll pushes one round of padding growth to every live shard.
func (r *run) applyRoundAll(ctx context.Context, changed []netlist.NetID) error {
	entries := make([]PadEntry, len(changed))
	r.mu.Lock()
	for i, id := range changed {
		entries[i] = PadEntry{Pos: r.plan.Pos[id], Pad: r.padding[id]}
	}
	// Which victims a round leaves stale only its engine knows.
	for s := range r.due {
		copy(r.due[s], r.present[s])
	}
	r.mu.Unlock()
	return r.exchange(ctx, OpRound, -1, func(at Route) request {
		return &RoundRequest{Route: at, Changed: entries}
	}, func(int, *Reply, int) {})
}

// evalWaveAll dispatches one wave to every shard due in it, shipping each
// shard's queued boundary imports with the request.
func (r *run) evalWaveAll(ctx context.Context, wi int) error {
	seq := r.nextSeq()
	return r.exchange(ctx, OpEval, wi, func(at Route) request {
		req := &EvalRequest{Route: at, Seq: seq, Wave: wi, Boundary: make([][]NetComb, len(at.Shards))}
		for i, s := range at.Shards {
			req.Boundary[i] = r.takeBoundary(s)
		}
		return req
	}, func(s int, rep *Reply, i int) { r.applyEval(s, wi, &rep.Evals[i]) })
}

// delayAll gathers every live shard's delta-delay impacts, names and numbers
// their nets from the plan, and flattens them with the engine's own (total)
// comparator, yielding exactly the single-process impact order.
func (r *run) delayAll(ctx context.Context) ([]core.DelayImpact, error) {
	per := make([][][]core.DelayImpact, r.asn.Shards)
	err := r.exchange(ctx, OpDelay, -1, func(at Route) request { return &DelayRequest{at} },
		func(s int, rep *Reply, i int) { per[s] = rep.Impacts[i] })
	var lists [][]core.DelayImpact
	var pos []int32
	for s, nets := range per {
		lists = append(lists, nets...)
		pos = append(pos, r.asn.Owned[s][:len(nets)]...)
	}
	return core.FlattenImpacts(lists, func(l int, im *core.DelayImpact) {
		im.Net, im.ID = r.plan.Order[pos[l]], r.plan.Nets[pos[l]]
	}), err
}

// collectAll gathers every live shard's slice of the final result, by
// shard; an abandoned shard's entry stays nil.
func (r *run) collectAll(ctx context.Context) ([]*core.ShardCollect, error) {
	cols := make([]*core.ShardCollect, r.asn.Shards)
	err := r.exchange(ctx, OpCollect, -1, func(at Route) request { return &CollectRequest{at} },
		func(s int, rep *Reply, i int) { cols[s] = &rep.Collects[i] })
	return cols, err
}

// finish releases the run's engines, best effort, on every worker (one that
// merely timed out still holds them) and logs the dispatch ledger.
func (r *run) finish() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, w := range r.cfg.Workers {
		if err := w.Do(ctx, OpClose, &CloseRequest{r.at()}, nil); err != nil {
			r.cfg.Logf("shard: close on worker %s failed: %v", w.Name(), err)
		}
	}
	r.cfg.Logf("shard: run %s over %d worker(s), dispatches by op: %v", r.cfg.Token, len(r.cfg.Workers), r.ledger)
}

// assemble merges the shard collects into the single-process result
// shapes. Violations and slacks are brought into the canonical gather
// order (global alphabetical net order, each shard's per-net groups kept
// intact); the violations are then sorted with the engine's own comparator
// and the slacks left in that order, both exactly as checkViolations leaves
// them, which matters because the comparator is not total. Abandoned shards
// contribute synthesized full-rail records and StageShard degradation
// diags instead.
func (r *run) assemble(out *Outcome, cols []*core.ShardCollect) {
	r.mu.Lock()
	defer r.mu.Unlock()
	noise := &core.Result{
		Mode: r.cfg.Opts.Mode,
		Nets: make(map[string]*core.NetNoise, len(r.plan.Order)),
	}
	stats := core.Stats{
		Victims:    len(r.plan.Order),
		Iterations: r.passes,
		Converged:  r.converged,
	}
	var vs []core.Violation
	var sls []core.ReceiverSlack
	var diags []core.Diag
	for _, col := range cols {
		if col == nil {
			continue
		}
		stats.AggressorPairs += col.Pairs
		stats.Filtered += col.Filtered
		stats.Propagated += col.Propagated
		vs = append(vs, col.Violations...)
		sls = append(sls, col.Slacks...)
		for _, nn := range col.Nets {
			noise.Nets[nn.Net] = nn
		}
		diags = append(diags, col.Diags...)
	}
	for s := range r.hosts {
		if r.hosts[s] >= 0 {
			continue
		}
		out.AbandonedShards = append(out.AbandonedShards, s)
		for _, p := range r.asn.Owned[s] {
			net := r.plan.Order[p]
			noise.Nets[net] = &core.NetNoise{
				Net:    net,
				Events: [2][]core.Event{{r.frEvent}, {r.frEvent}},
				Comb:   [2]core.Combined{r.frComb, r.frComb},
			}
			diags = append(diags, core.Diag{
				Net:      net,
				Stage:    core.StageShard,
				Err:      fmt.Errorf("shard %d lost: %v", s, r.cause[s]),
				Degraded: true,
			})
		}
	}
	// A net's violations and slacks all come from the shard owning it, in
	// sequence, so a stable sort by net is the canonical gather order.
	stableByNet(vs, func(v *core.Violation) string { return v.Net })
	stableByNet(sls, func(s *core.ReceiverSlack) string { return s.Net })
	core.SortViolations(vs)
	core.SortDiags(diags)
	noise.Violations = vs
	noise.Slacks = sls
	noise.Diags = diags
	stats.DegradedNets = len(diags)
	noise.Stats = stats
	out.Noise = noise
	out.Delay.Diags = diags
	out.Degraded = len(diags) > 0
	out.Reassigns = r.reassigns
	out.Dispatches = r.ledger
}

func stableByNet[T any](xs []T, net func(*T) string) {
	sort.SliceStable(xs, func(i, j int) bool { return net(&xs[i]) < net(&xs[j]) })
}
