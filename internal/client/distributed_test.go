package client

// End-to-end oracle for the distributed iterate path: iterate jobs on a
// coordinator snad and a fleet of worker snads, all real HTTP servers, with
// the production ShardWorker dialer in between. The healthy-fleet run must be
// byte-identical to the single-process (Local) run — the distributed
// engine is an implementation detail, not a different analysis.

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/spef"
	"repro/internal/sta"
	"repro/internal/units"
	"repro/internal/workload"
)

// busCreate serializes a generated coupled bus into a create request.
func busCreate(t *testing.T, name string) *server.CreateSessionRequest {
	t.Helper()
	g, err := workload.Bus(workload.BusSpec{Bits: 8, Segs: 2, WindowWidth: 80 * units.Pico})
	if err != nil {
		t.Fatal(err)
	}
	return createRequest(t, name, g)
}

// hotFabricCreate is internal/shard's hotfabric fixture: the design where
// propagated glitches cross shard boundaries and a padding round widens a
// fanin's window while its peak holds.
func hotFabricCreate(t *testing.T, name string) *server.CreateSessionRequest {
	t.Helper()
	g, err := workload.Fabric(workload.FabricSpec{
		Width: 40, Levels: 10, CouplingDensity: 3, CoupleC: 12 * units.Femto,
		GroundC: 4 * units.Femto, SegRes: 60, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return createRequest(t, name, g)
}

// createRequest serializes a generated design into a create request.
func createRequest(t *testing.T, name string, g *workload.Generated) *server.CreateSessionRequest {
	t.Helper()
	var net, sp, win bytes.Buffer
	if err := netlist.Write(&net, g.Design); err != nil {
		t.Fatal(err)
	}
	if err := spef.Write(&sp, g.Paras); err != nil {
		t.Fatal(err)
	}
	if err := sta.WriteInputTiming(&win, g.Inputs); err != nil {
		t.Fatal(err)
	}
	return &server.CreateSessionRequest{
		Name:    name,
		Netlist: net.String(),
		SPEF:    sp.String(),
		Timing:  win.String(),
		Options: shard.OptionsSpec{Mode: "noise"},
	}
}

// startSnad boots a server coordinating the snad workers at workerURLs
// (none: a plain worker), dialed as cmd/snad dials them, and returns its
// client base URL.
func startSnad(t *testing.T, workerURLs ...string) string {
	t.Helper()
	var cfg server.Config
	for _, u := range workerURLs {
		cfg.Workers = append(cfg.Workers, NewShardWorker(u, u, RetryPolicy{}))
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// iterateJob runs an iterate job of one attempt and returns its result.
func iterateJob(t *testing.T, c *Client, spec jobs.Spec) *server.AnalyzeResponse {
	t.Helper()
	spec.Type, spec.MaxAttempts = "iterate", 1
	snap, err := c.SubmitJob(context.Background(), &spec)
	if err == nil {
		snap, err = c.WaitJob(context.Background(), snap.ID)
	}
	if err != nil || snap.State != string(jobs.StateDone) {
		t.Fatalf("iterate job: %v (%+v)", err, snap)
	}
	var out server.AnalyzeResponse
	if err := json.Unmarshal(snap.Result, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDistributedIterateMatchesLocal(t *testing.T) {
	ctx := context.Background()
	creates := []*server.CreateSessionRequest{busCreate(t, "bus"), hotFabricCreate(t, "hotfabric")}

	// The oracle: a forced single-process run of each design on a server
	// with no workers.
	oracle := New(startSnad(t), RetryPolicy{MaxAttempts: 1})
	locals := make(map[string]*server.AnalyzeResponse)
	for _, cr := range creates {
		if _, err := oracle.CreateSession(ctx, cr); err != nil {
			t.Fatal(err)
		}
		local := iterateJob(t, oracle, jobs.Spec{Session: cr.Name, Delay: true, Local: true})
		if local.Iterate == nil || local.Iterate.Distributed {
			t.Fatalf("%s: local run reported iterate info %+v", cr.Name, local.Iterate)
		}
		locals[cr.Name] = local
	}

	// One coordinator per fleet: two workers (4 shards there means
	// requests of two shards each), then three for the 1–4 shard matrix.
	for _, fleet := range []struct {
		workers int
		shards  []int
	}{{2, []int{4}}, {3, []int{1, 2, 3, 4}}} {
		urls := make([]string, fleet.workers)
		for i := range urls {
			urls[i] = startSnad(t)
		}
		c := New(startSnad(t, urls...), RetryPolicy{MaxAttempts: 1})
		if ws, err := c.Workers(ctx); err != nil || len(ws) != fleet.workers {
			t.Fatalf("coordinating %d workers (%v), want %d", len(ws), err, fleet.workers)
		}
		for _, cr := range creates {
			if _, err := c.CreateSession(ctx, cr); err != nil {
				t.Fatal(err)
			}
			local := locals[cr.Name]
			for _, shards := range fleet.shards {
				dist := iterateJob(t, c, jobs.Spec{Session: cr.Name, Delay: true, Shards: shards})
				it := dist.Iterate
				if it == nil || !it.Distributed {
					t.Fatalf("%s/%d: iterate did not go distributed: %+v", cr.Name, shards, it)
				}
				if it.Workers != fleet.workers || it.Shards != shards {
					t.Fatalf("%s: distributed over %d workers / %d shards, want %d/%d", cr.Name, it.Workers, it.Shards, fleet.workers, shards)
				}
				if len(it.AbandonedShards) != 0 || it.Reassigns != 0 {
					t.Fatalf("%s/%d: healthy fleet abandoned shards %v, rebuilt %d", cr.Name, shards, it.AbandonedShards, it.Reassigns)
				}
				// One round trip per worker per step: a worker hosting two
				// shards is still asked once, so the busiest op's count is
				// bounded by steps × workers, whatever the shard count.
				if n := min(fleet.workers, shards); it.Dispatches[shard.OpInit].Dispatches != n || it.Dispatches[shard.OpCollect].Dispatches != n {
					t.Errorf("%s/%d: %d init and %d collect round trips, want %d each (one per hosting worker)",
						cr.Name, shards, it.Dispatches[shard.OpInit].Dispatches, it.Dispatches[shard.OpCollect].Dispatches, n)
				}
				if it.Rounds != local.Iterate.Rounds || it.Converged != local.Iterate.Converged {
					t.Fatalf("%s/%d: fixpoint diverged from oracle: distributed rounds=%d converged=%v, local rounds=%d converged=%v",
						cr.Name, shards, it.Rounds, it.Converged, local.Iterate.Rounds, local.Iterate.Converged)
				}
				if got, want := mustJSON(t, dist.Noise), mustJSON(t, local.Noise); !bytes.Equal(got, want) {
					t.Errorf("%s/%d: distributed noise section differs from local oracle:\n got: %.600s\nwant: %.600s", cr.Name, shards, got, want)
				}
				if got, want := mustJSON(t, dist.Delay), mustJSON(t, local.Delay); !bytes.Equal(got, want) {
					t.Errorf("%s/%d: distributed delay section differs from local oracle:\n got: %.600s\nwant: %.600s", cr.Name, shards, got, want)
				}
			}
		}
	}
}

// TestShardRunKeepsOneConnection pins the invariant ShardWorker documents: at
// most one request in flight per worker per run, so a 4-shard run on one
// worker dials once — on http.DefaultTransport, whose two idle connections
// per host the parent's four concurrent per-shard requests kept overflowing.
func TestShardRunKeepsOneConnection(t *testing.T) {
	g, err := workload.Fabric(workload.FabricSpec{
		Width: 40, Levels: 10, CouplingDensity: 3, CoupleC: 12 * units.Femto,
		GroundC: 4 * units.Femto, SegRes: 60, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Bind(liberty.Generic())
	if err != nil {
		t.Fatal(err)
	}
	cr := createRequest(t, "hotfabric", g)
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var dialed atomic.Int32
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dialed.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	out, err := shard.Run(context.Background(), shard.Config{
		B: b, Opts: core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions(), FailSoft: true},
		Workers: []shard.Worker{NewShardWorker("w0", ts.URL, RetryPolicy{})}, Shards: 4, Token: "conns",
		Design: &shard.DesignSpec{Netlist: cr.Netlist, SPEF: cr.SPEF, Timing: cr.Timing, Options: shard.OptionsSpec{Mode: "noise"}},
	})
	if err != nil || out.Degraded || out.Reassigns != 0 {
		t.Fatalf("run: %v, outcome %+v", err, out)
	}
	if n := dialed.Load(); n != 1 {
		t.Errorf("a 4-shard run on one worker opened %d connections, want 1", n)
	}
}

func TestDistributedIterateSurvivesDeadWorker(t *testing.T) {
	ctx := context.Background()
	// Two live workers and a dead one that no heartbeat has marked down
	// yet: its httptest server is already closed, so every dispatch to it
	// fails at the transport. The coordinator must re-host its shards onto
	// the survivors and still produce the oracle's exact result.
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close()
	c := New(startSnad(t, startSnad(t), deadURL, startSnad(t)), RetryPolicy{MaxAttempts: 1})
	if _, err := c.CreateSession(ctx, busCreate(t, "bus")); err != nil {
		t.Fatal(err)
	}
	local := iterateJob(t, c, jobs.Spec{Session: "bus", Local: true})
	dist := iterateJob(t, c, jobs.Spec{Session: "bus", Shards: 3})
	it := dist.Iterate
	if it == nil || !it.Distributed {
		t.Fatalf("iterate did not go distributed: %+v", it)
	}
	if len(it.AbandonedShards) != 0 {
		t.Fatalf("dead worker's shards were abandoned (%v), want re-hosted", it.AbandonedShards)
	}
	if got, want := mustJSON(t, dist.Noise), mustJSON(t, local.Noise); !bytes.Equal(got, want) {
		t.Errorf("re-hosted run differs from local oracle:\n got: %s\nwant: %s", got, want)
	}
}
