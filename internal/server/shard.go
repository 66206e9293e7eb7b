package server

// Distributed analysis support, both directions:
//
//   - snad as worker: /v1/shard/{op} is the HTTP transport of a
//     shard.Host — decode the body, let the host execute the op for every
//     shard the request addresses, encode the answer. Bodies are the shard
//     package's binary frames (application/octet-stream); only a failed
//     request answers JSON, the ErrorBody every endpoint uses, which the
//     client's error taxonomy and humans read. The host's engines are
//     built from the design spec shipped in the init request, so a worker
//     needs no prior session state — a coordinator can aim at any idle
//     snad process. What this file adds is where the designs come from:
//     the shared design cache, one reference per run token.
//
//   - snad as coordinator: the boot fleet (Config.Workers, listed by
//     GET /v1/workers) is probed by a heartbeat, and an iterate job runs
//     the joint noise–delay fixpoint across the healthy ones (shard.Run)
//     or, with none, in this process (shard.RunLocal). Both are the same
//     loop (core.RunIterative) over different engines, so a healthy
//     distributed run returns noise and delay sections byte-identical to
//     the local one; worker loss degrades to re-hosting, then to
//     conservative full-rail results with degradation diagnostics — never
//     to a failed job. With a data directory the job journals its round
//     state as its progress after every round, so a restarted server
//     resumes a mid-fixpoint iterate instead of starting over.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/shard"
)

// workerEntry is one shard worker of the boot fleet and its heartbeat
// state. info is guarded by the server's workerMu; w is immutable.
type workerEntry struct {
	info WorkerInfo
	w    shard.Worker
}

// fleet indexes the boot workers by name, in name order (probe order is
// observable through log lines and LastSeenAt skew, and the order feeds
// the partitioner's deterministic shard→worker mapping). A name listed
// twice is one worker, the last one listed.
func fleet(workers []shard.Worker) []*workerEntry {
	byName := make(map[string]*workerEntry, len(workers))
	var names []string
	for _, w := range workers {
		if byName[w.Name()] == nil {
			names = append(names, w.Name())
		}
		byName[w.Name()] = &workerEntry{info: WorkerInfo{Name: w.Name(), URL: w.Name(), Healthy: true}, w: w}
	}
	slices.Sort(names)
	entries := make([]*workerEntry, len(names))
	for i, name := range names {
		entries[i] = byName[name]
	}
	return entries
}

// heartbeatLoop probes every worker of the fleet each interval. A failed
// probe marks the worker unhealthy (iterate skips it); a later success
// revives it — transient network trouble must not permanently shrink the
// fleet.
func (s *Server) heartbeatLoop() {
	ticker := time.NewTicker(heartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case <-s.hbStop:
			return
		case <-ticker.C:
		}
		for _, e := range s.workers {
			ctx, cancel := context.WithTimeout(context.Background(), heartbeatEvery)
			err := e.w.Ping(ctx)
			cancel()
			was := s.recordProbe(e, err)
			if was && err != nil {
				s.cfg.Logf("worker %q failed heartbeat: %v", e.info.Name, err)
			} else if !was && err == nil {
				s.cfg.Logf("worker %q recovered", e.info.Name)
			}
		}
	}
}

// recordProbe folds one heartbeat outcome into the worker's health state,
// reporting the previous health so the caller can log transitions.
func (s *Server) recordProbe(e *workerEntry, err error) (was bool) {
	s.workerMu.Lock()
	defer s.workerMu.Unlock()
	was = e.info.Healthy
	e.info.Healthy = err == nil
	if err == nil {
		e.info.LastSeenAt = s.cfg.now().UTC().Format(time.RFC3339Nano)
	}
	return was
}

func (s *Server) stopHeartbeat() {
	select {
	case <-s.hbStop:
	default:
		close(s.hbStop)
	}
}

// healthyWorkers snapshots the live fleet in name order.
func (s *Server) healthyWorkers() []shard.Worker {
	s.workerMu.Lock()
	defer s.workerMu.Unlock()
	var out []shard.Worker
	for _, e := range s.workers {
		if e.info.Healthy {
			out = append(out, e.w)
		}
	}
	return out
}

func (s *Server) handleListWorkers(w http.ResponseWriter, r *http.Request) {
	infos := make([]WorkerInfo, len(s.workers))
	s.workerMu.Lock()
	for i, e := range s.workers {
		infos[i] = e.info
	}
	s.workerMu.Unlock()
	s.writeJSON(w, http.StatusOK, infos)
}

// --- snad as worker: the hosted engines' designs ---

// designForToken is the server's shard.EngineSource: on a run token's
// first init it acquires the shipped spec's design from the shared cache,
// so a coordinator's sessions and the shards this process hosts share one
// bound design, and so do two runs over the same sources. The host holds
// it for the token and calls release when the token closes. A build
// failure is not cached (a retried init fails the same way), and the
// cache's error is returned as it is: shardErr finds a budget shed — load,
// not determinism — inside the FatalError the runner wraps it in.
func (s *Server) designForToken(ctx context.Context, spec *shard.DesignSpec) (*bind.Design, core.Options, func(), error) {
	if spec == nil {
		return nil, core.Options{}, nil, fmt.Errorf("init without a design spec (remote workers build their own engines)")
	}
	entry, opts, err := s.acquireDesign(ctx, spec, keysOf(spec).design)
	if err != nil {
		return nil, core.Options{}, nil, err
	}
	return entry.b, opts, func() { s.cache.release(entry) }, nil
}

// handleShardOp executes one coordinator dispatch on the hosted engines.
// Ops pass through the same bounded admission as analyses — a worker past
// its concurrency budget sheds coordinator dispatches with 429, and the
// coordinator's retry/re-host machinery absorbs it. The reply is written
// from one complete buffer, so it carries a Content-Length the client sizes
// its read by.
func (s *Server) handleShardOp(w http.ResponseWriter, r *http.Request) error {
	return s.gated(r, func(ctx context.Context) error {
		// An unknown op or an unreadable frame is shard_fatal: the
		// coordinator's to fix, not to retry.
		op := r.PathValue("op")
		req, err := shard.NewRequest(op)
		if err == nil {
			var body []byte
			if body, err = io.ReadAll(r.Body); err == nil {
				err = shard.Unmarshal(body, req)
			}
		}
		var out []byte
		rep := &shard.Reply{}
		if err == nil {
			err = s.shardHost.Do(ctx, req, rep)
		}
		if err == nil && op != shard.OpClose {
			out, err = shard.Marshal(rep)
		}
		if err != nil {
			return shardErr(err)
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", fmt.Sprint(len(out)))
		w.Write(out)
		return nil
	})
}

// --- snad as coordinator: iterate jobs ---

// runToken names an iterate job's run: the job's ID plus the head of the
// run key of the design it runs over — the sources and the options that
// affect its result. A worker hands a token's design to every init that
// names it, and a journaled round state resumes only the run whose token
// it was saved under; named by the job alone, a retry over a session
// re-created on another design would inherit both.
func runToken(id string, run cacheKey) string { return fmt.Sprintf("%s-%x", id, run[:8]) }

// roundState is core.RoundState as an iterate job's progress carries it.
// Padding names its nets, and Token is the run token the state was
// computed under, which names the design's sources and options: a state
// saved under another token is not resumed.
type roundState struct {
	Token      string             `json:"token"`
	Round      int                `json:"round"`
	Padding    map[string]float64 `json:"padding,omitempty"`
	PrevGrowth float64            `json:"prevGrowth"`
	Stalled    int                `json:"stalled,omitempty"`
}

// iterate runs an iterate job's joint noise–delay fixpoint on a session:
// across the healthy workers when there are any (and the spec does not
// force local), in this process otherwise. With a data directory the round
// state rides the job's journal as its progress: the run resumes from what
// an earlier attempt saved under the same token, and saves its own after
// every round, fail-soft — a retried or SIGKILL'd job resumes
// mid-fixpoint, and the job's terminal record drops the state.
func (s *Server) iterate(ctx context.Context, ss *session, id string, spec *jobs.Spec, progress *jobs.Progress) (*answer, error) {
	token := runToken(id, ss.keys.run)
	var resume *roundState
	if s.store == nil || json.Unmarshal(progress.Last, &resume) != nil {
		resume = nil // memory-only, none saved, or unreadable: start fresh
	}
	cfg := shard.Config{
		B:         ss.b,
		Opts:      ss.opts,
		Token:     token,
		MaxRounds: spec.MaxRounds,
		Resume:    resume.start(ss.b, token),
		// Each dispatch gets the same ceiling a worker enforces on its own
		// requests; a hung worker is declared lost instead of pinning the
		// run forever.
		DispatchTimeout: maxRequestTimeout,
		Logf:            s.cfg.Logf,
	}
	if cfg.Resume.Round > 0 {
		s.cfg.Logf("iterate %s: resuming after round %d", token, cfg.Resume.Round)
	}
	if s.store != nil {
		cfg.AfterRound = func(st core.RoundState) {
			b, err := json.Marshal(&roundState{Token: token, Round: st.Round, Padding: core.PaddingByName(ss.b.Net, st.Padding), PrevGrowth: st.PrevGrowth, Stalled: st.Stalled})
			if err == nil {
				err = progress.Save(b)
			}
			if err != nil {
				s.cfg.Logf("iterate %s: round %d not journaled (continuing): %v", token, st.Round, err)
			}
		}
	}
	run, info := shard.RunLocal, &IterateInfo{}
	if workers := s.healthyWorkers(); !spec.Local && len(workers) > 0 {
		cfg.Workers, cfg.Shards, cfg.Design = workers, spec.Shards, ss.design
		run = shard.Run
		info.Distributed, info.Workers = true, len(workers)
	}
	out, err := run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	info.Rounds, info.Converged = out.Rounds, out.Converged
	info.Diverging, info.DivergeReason = out.Diverging, out.DivergeReason
	info.Reassigns, info.AbandonedShards, info.Resumed = out.Reassigns, out.AbandonedShards, cfg.Resume.Round > 0
	info.Dispatches, info.Shards = out.Dispatches, out.Shards
	a := &answer{noise: out.Noise, iterate: info}
	if spec.Delay {
		a.delay = out.Delay
	}
	return a, nil
}

// start is the state a run under token over b starts from: rs's when it
// was saved under token, a fresh start otherwise.
func (rs *roundState) start(b *bind.Design, token string) core.RoundState {
	if rs == nil || rs.Token != token || rs.Round < 1 {
		return core.RoundState{}
	}
	return core.RoundState{Round: rs.Round, Padding: padByID(b.Net, rs.Padding), PrevGrowth: rs.PrevGrowth, Stalled: rs.Stalled}
}
