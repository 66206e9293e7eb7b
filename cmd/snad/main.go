// snad is the static noise analysis daemon: a long-running HTTP/JSON
// service that loads designs into named sessions — each holding the
// persistent incremental analyzer warm — and serves analyze,
// delta-reanalyze, and report queries. The binary is both the server
// (`snad serve`) and a thin CLI over the retrying client for every
// endpoint (`snad create|analyze|reanalyze|report|list|delete|health`).
//
// Usage:
//
//	snad serve   [-listen 127.0.0.1:8347] [-data-dir DIR]
//	             [-mem-budget 512MB] [-max-sessions 8]
//	             [-max-concurrent N] [-queue N] [-job-queue 16]
//	             [-workers url1,url2,...]
//	             [-drain-budget 10s] [-quiet]
//	snad create  -server URL -name S -net design.net [-spef design.spef]
//	             [-win design.win] [-workers N]
//	snad analyze -server URL -name S [-delay] [-timeout 10s]
//	snad reanalyze -server URL -name S -pad net=3e-12,net2=5e-12 [-delay]
//	snad report  -server URL -name S
//	snad list    -server URL
//	snad delete  -server URL -name S
//	snad health  -server URL
//	snad recovery -server URL
//	snad submit  -server URL -name S -type analyze|reanalyze|iterate|sweep
//	             [-delay] [-pad net=3e-12,...] [-shards N] [-local]
//	             [-sweep mode:threshold,...] [-wait] [-json]
//	snad jobs    -server URL [-json]
//	snad job     -server URL -id job-000001 [-wait] [-json]
//	snad cancel  -server URL -id job-000001
//
// submit enqueues an asynchronous job: the 202 is written only after the
// job spec is journaled (with -data-dir), so an acknowledged job survives
// a crash — in-flight jobs are re-enqueued at the next boot and iterate
// jobs resume from their last journaled round. A done job prints what
// its analysis found; an iterate job adds the fixpoint's rounds and
// whether it converged, and exits 5 when it did not. Jobs that panic or
// degrade the engine on every attempt are quarantined as failed poison
// jobs with per-attempt diagnostics instead of retrying forever.
//
// With -data-dir, session lifecycle (creates, reanalyze padding, deletes)
// is journaled to disk before it is acknowledged and replayed on the next
// boot: sessions survive restarts and crashes, corrupt records of either
// journal (DIR/sessions.wal, DIR/jobs/jobs.wal) are quarantined beside it
// with a reason instead of refusing the boot, and `snad recovery` reports
// what the last boot restored and quarantined. The journals compact
// themselves; there is nothing to tune.
//
// With -workers, the server is also a coordinator: the listed snad
// processes are its shard workers (heartbeat-probed), fixed at boot, and
// an iterate job fans the joint noise–delay fixpoint out across them,
// surviving worker loss by re-hosting shards and, when every worker is
// gone, degrading to conservative full-rail results rather than failing.
// Any plain `snad serve` can be a worker — shard engines are built from
// specs the coordinator ships, not from pre-loaded sessions.
//
// The server sheds load instead of queueing it unboundedly: past its
// concurrency cap and bounded queue, requests get 429 with a Retry-After
// hint. With -mem-budget, sessions over identical sources share one
// cached bound design and creates that would exceed the budget shed with
// 503 "budget" instead of growing without bound. Requests tagged with a
// tenant ID (-tenant on client commands, or the X-Snad-Tenant header)
// are scheduled round-robin across tenants, so one bulk tenant cannot
// starve interactive users. The client commands absorb shedding with
// exponential backoff and jitter. SIGTERM/SIGINT starts a graceful
// drain: the listener stops
// accepting, in-flight analyses get -drain-budget to finish, and whatever
// remains is cancelled through the engine's cooperative-cancellation path.
//
// Exit codes for serve:
//
//	0  clean drain: every in-flight request finished within the budget
//	1  forced drain: in-flight work had to be cancelled
//	3  usage error (bad flags)
//	4  startup failure (listen error; an unusable -data-dir, or one in
//	   an earlier version's MANIFEST/generation layout) or server crash
//
// Client commands reuse the sna discipline where it applies: 0 clean,
// 1 violations (analyze/reanalyze), 3 usage, 4 request failure,
// 5 degraded-clean (no violations but degraded nets — incomplete, not
// clean).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/jobs"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/shard"
)

const (
	exitClean      = 0
	exitViolations = 1 // client analyze: violations; serve: forced drain
	exitForced     = 1
	exitUsage      = 3
	exitFail       = 4
	exitDegraded   = 5
)

// faults is the server's fault-injection seam (server.Config.Faults).
// Only this package's tests set it, before they call main or run.
var faults *server.Faults

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "snad: a subcommand is required: serve | create | analyze | reanalyze | report | list | delete | health | recovery | workers | submit | jobs | job | cancel")
		return exitUsage
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "serve":
		return runServe(ctx, rest, stdout, stderr)
	case "create", "analyze", "reanalyze", "report", "list", "delete", "health", "recovery", "workers":
		return runClient(ctx, cmd, rest, stdout, stderr)
	case "submit", "jobs", "job", "cancel":
		return runJobs(ctx, cmd, rest, stdout, stderr)
	}
	fmt.Fprintf(stderr, "snad: unknown subcommand %q\n", cmd)
	return exitUsage
}

// runServe starts the daemon and blocks until a signal (or server crash),
// then performs the graceful drain.
func runServe(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("snad serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen      = fs.String("listen", "127.0.0.1:8347", "listen address")
		maxSessions = fs.Int("max-sessions", 0, "max loaded sessions; LRU-evicted past this (default 8)")
		maxConc     = fs.Int("max-concurrent", 0, "max concurrent engines, requests and jobs together; jobs take at most max(1, N-1) (default GOMAXPROCS)")
		queue       = fs.Int("queue", 0, "max queued requests past the concurrency cap (default 2x)")
		drainBudget = fs.Duration("drain-budget", 10*time.Second, "grace period for in-flight work on shutdown")
		quiet       = fs.Bool("quiet", false, "suppress operational logging")
		dataDir     = fs.String("data-dir", "", "durable session directory; empty runs memory-only")
		workerURLs  = fs.String("workers", "", "comma-separated snad worker base URLs to coordinate over")
		jobQueue    = fs.Int("job-queue", 0, "max queued async jobs; submits past it are shed (default 16)")
		memBudget   = fs.String("mem-budget", "", "byte budget for cached designs, e.g. 512MB or 2GiB (empty = unlimited); past it, creates shed with 503 instead of growing")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	logf := func(format string, a ...any) {
		fmt.Fprintf(stderr, "snad: "+format+"\n", a...)
	}
	if *quiet {
		logf = func(string, ...any) {}
	}
	budget, err := parseBytes(*memBudget)
	if err != nil {
		fmt.Fprintln(stderr, "snad:", err)
		return exitUsage
	}
	// The fleet is dialed here because the server package cannot import
	// the client (the client imports the server's wire types); a worker is
	// named by its URL.
	var workers []shard.Worker
	for _, u := range strings.Split(*workerURLs, ",") {
		if u = strings.TrimSpace(u); u != "" {
			workers = append(workers, client.NewShardWorker(u, u, client.RetryPolicy{}))
		}
	}
	srv, err := server.New(server.Config{
		MaxSessions:   *maxSessions,
		MaxConcurrent: *maxConc,
		QueueDepth:    *queue,
		Logf:          logf,
		DataDir:       *dataDir,
		JobQueueDepth: *jobQueue,
		MemBudget:     budget,
		Workers:       workers,
		Faults:        faults,
	})
	if err != nil {
		// Only a structurally unusable data directory gets here; corrupt
		// durable state is quarantined and the server boots anyway.
		fmt.Fprintln(stderr, "snad:", err)
		return exitFail
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(stderr, "snad:", err)
		return exitFail
	}
	// The bound address line is the startup handshake: scripts and tests
	// read it to learn the port when -listen used :0.
	fmt.Fprintf(stdout, "snad: listening on %s\n", ln.Addr())
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "snad: server failed:", err)
		return exitFail
	case <-ctx.Done():
	}
	logf("shutdown signal received; draining (budget %s)", *drainBudget)
	deadline := time.Now().Add(*drainBudget)
	if !srv.Drain(*drainBudget) {
		httpSrv.Close()
		fmt.Fprintln(stderr, "snad: forced drain: in-flight work was cancelled")
		return exitForced
	}
	// The drain counts a request done when its handler returns, before
	// net/http has flushed the reply: Shutdown lets those replies out,
	// within what is left of the budget, where Close would cut them.
	sctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		httpSrv.Close()
	}
	fmt.Fprintln(stdout, "snad: drained cleanly")
	return exitClean
}

// runClient dispatches the thin CLI wrappers over the retrying client.
func runClient(ctx context.Context, cmd string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("snad "+cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		serverURL = fs.String("server", "http://127.0.0.1:8347", "snad server base URL")
		name      = fs.String("name", "", "session name")
		timeout   = fs.Duration("timeout", 0, "per-request analysis deadline sent to the server")
		tenant    = fs.String("tenant", "", "tenant ID for fair scheduling (X-Snad-Tenant)")

		// create flags
		netPath  = fs.String("net", "", "netlist file (.net or .v)")
		spefPath = fs.String("spef", "", "parasitics file (.spef)")
		winPath  = fs.String("win", "", "input timing file (.win)")
		workers  = fs.Int("workers", 0, "parallel analysis workers (0 = serial)")

		// analyze/reanalyze flags
		delay = fs.Bool("delay", false, "include the crosstalk delta-delay section")
		pad   = fs.String("pad", "", "reanalyze padding: net=seconds[,net=seconds...]")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	needName := cmd == "create" || cmd == "analyze" || cmd == "reanalyze" || cmd == "report" || cmd == "delete"
	if needName && *name == "" {
		fmt.Fprintln(stderr, "snad: -name is required")
		return exitUsage
	}
	c := client.New(*serverURL, client.RetryPolicy{})
	c.SetTenant(*tenant)
	fail := func(err error) int {
		fmt.Fprintln(stderr, "snad:", err)
		return exitFail
	}
	switch cmd {
	case "create":
		if *netPath == "" {
			fmt.Fprintln(stderr, "snad: -net is required")
			return exitUsage
		}
		req := &server.CreateSessionRequest{
			Name:    *name,
			Options: shard.OptionsSpec{Workers: *workers},
		}
		text, err := os.ReadFile(*netPath)
		if err != nil {
			return fail(err)
		}
		if strings.HasSuffix(*netPath, ".v") {
			req.Verilog = string(text)
		} else {
			req.Netlist = string(text)
		}
		for _, f := range []struct {
			path string
			dst  *string
		}{{*spefPath, &req.SPEF}, {*winPath, &req.Timing}} {
			if f.path == "" {
				continue
			}
			text, err := os.ReadFile(f.path)
			if err != nil {
				return fail(err)
			}
			*f.dst = string(text)
		}
		info, err := c.CreateSession(ctx, req)
		if err != nil {
			return clientFail(stderr, err)
		}
		fmt.Fprintf(stdout, "session %s created\n", info.Name)
		return exitClean
	case "analyze":
		resp, err := c.Analyze(ctx, *name, &server.AnalyzeRequest{Delay: *delay}, *timeout)
		if err != nil {
			return clientFail(stderr, err)
		}
		return printAnalysis(stdout, resp)
	case "reanalyze":
		padding, err := parsePadding(*pad)
		if err != nil {
			fmt.Fprintln(stderr, "snad:", err)
			return exitUsage
		}
		resp, err := c.Reanalyze(ctx, *name, &server.ReanalyzeRequest{Padding: padding, Delay: *delay}, *timeout)
		if err != nil {
			return clientFail(stderr, err)
		}
		fmt.Fprintf(stdout, "reanalyzed %s: %d net(s) changed\n", *name, resp.ChangedNets)
		return printAnalysis(stdout, resp)
	case "report":
		resp, err := c.Report(ctx, *name)
		if err != nil {
			return clientFail(stderr, err)
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(resp)
		return exitClean
	case "list":
		infos, err := c.List(ctx)
		if err != nil {
			return clientFail(stderr, err)
		}
		for _, info := range infos {
			state := "idle"
			if !info.Loaded {
				state = "on disk (reloads on access)"
			} else if info.Analyzed {
				state = fmt.Sprintf("%d victims, %d violations, %d degraded", info.Victims, info.Violations, info.DegradedNets)
			}
			if info.Breaker.Open {
				state += " [breaker open]"
			}
			if info.Suspect {
				state += " [suspect]"
			}
			if info.Restored {
				state += " [restored]"
			}
			fmt.Fprintf(stdout, "%s: %s\n", info.Name, state)
		}
		return exitClean
	case "delete":
		if err := c.Delete(ctx, *name); err != nil {
			return clientFail(stderr, err)
		}
		fmt.Fprintf(stdout, "session %s deleted\n", *name)
		return exitClean
	case "health":
		h, err := c.Health(ctx)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "status=%s sessions=%d inflight=%d\n", h.Status, h.Sessions, h.Inflight)
		return exitClean
	case "recovery":
		rec, err := c.Recovery(ctx)
		if err != nil {
			return clientFail(stderr, err)
		}
		report.RecoveryText(stdout, rec)
		return exitClean
	case "workers":
		ws, err := c.Workers(ctx)
		if err != nil {
			return clientFail(stderr, err)
		}
		if len(ws) == 0 {
			fmt.Fprintln(stdout, "no workers registered")
			return exitClean
		}
		for _, w := range ws {
			state := "healthy"
			if !w.Healthy {
				state = "unhealthy"
			}
			seen := w.LastSeenAt
			if seen == "" {
				seen = "not yet probed"
			}
			fmt.Fprintf(stdout, "%s: %s (%s, last seen %s)\n", w.Name, w.URL, state, seen)
		}
		return exitClean
	}
	return exitUsage
}

// clientFail renders a request failure, keeping the server's structured
// error kind visible for scripting.
func clientFail(stderr io.Writer, err error) int {
	if ae, ok := err.(*client.APIError); ok {
		fmt.Fprintf(stderr, "snad: %s: %s\n", ae.Info.Kind, ae.Info.Message)
		for _, d := range ae.Info.Lint {
			fmt.Fprintf(stderr, "snad:   [%s %s] %s: %s\n", d.Severity, d.Rule, d.Object, d.Message)
		}
		return exitFail
	}
	fmt.Fprintln(stderr, "snad:", err)
	return exitFail
}

// printAnalysis renders an analysis summary and maps it onto the sna exit
// discipline.
func printAnalysis(stdout io.Writer, resp *server.AnalyzeResponse) int {
	noise := resp.Noise
	rebuilt := ""
	if resp.Rebuilt {
		rebuilt = " (session rebuilt)"
	}
	fmt.Fprintf(stdout, "session %s: %d victims, %d violations, %d degraded%s\n",
		resp.Session, noise.Stats.Victims, len(noise.Violations), noise.Stats.DegradedNets, rebuilt)
	for _, v := range noise.Violations {
		at := "-"
		if v.At != nil {
			at = strconv.FormatFloat(*v.At, 'g', 4, 64) + "s"
		}
		fmt.Fprintf(stdout, "  VIOLATION %s @ %s (%s): peak %.4gV > limit %.4gV at %s [%s]\n",
			v.Net, v.Receiver, v.State, v.Peak, v.Limit, at, strings.Join(v.Members, "+"))
	}
	for _, d := range noise.Degradations {
		fmt.Fprintf(stdout, "  DEGRADED %s (%s): %s\n", d.Net, d.Stage, d.Error)
	}
	if resp.Delay != nil {
		fmt.Fprintf(stdout, "  delta-delay: %d impacted edges\n", len(resp.Delay.Impacts))
	}
	if len(noise.Violations) > 0 {
		return exitViolations
	}
	if noise.Stats.DegradedNets > 0 || len(noise.Degradations) > 0 {
		return exitDegraded
	}
	return exitClean
}

// parseBytes parses a human byte size: a plain integer, or one with a
// KB/MB/GB (decimal) or KiB/MiB/GiB (binary) suffix, case-insensitive.
// Empty means 0 (unlimited).
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	suffixes := []struct {
		suffix string
		mult   int64
	}{
		{"kib", 1 << 10}, {"mib", 1 << 20}, {"gib", 1 << 30},
		{"kb", 1e3}, {"mb", 1e6}, {"gb", 1e9},
		{"b", 1},
	}
	lower := strings.ToLower(s)
	mult := int64(1)
	num := lower
	for _, sf := range suffixes {
		if strings.HasSuffix(lower, sf.suffix) {
			mult = sf.mult
			num = strings.TrimSpace(strings.TrimSuffix(lower, sf.suffix))
			break
		}
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad byte size %q (want e.g. 1073741824, 512MB, or 2GiB)", s)
	}
	if mult > 1 && n > (1<<62)/mult {
		return 0, fmt.Errorf("byte size %q overflows", s)
	}
	return n * mult, nil
}

// parsePadding parses "net=seconds,net=seconds" into a padding map.
func parsePadding(spec string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		net, val, ok := strings.Cut(item, "=")
		if !ok || net == "" {
			return nil, fmt.Errorf("bad padding %q (want net=seconds)", item)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("bad padding value %q for net %q (want finite seconds >= 0)", val, net)
		}
		out[net] = f
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-pad is required (net=seconds[,net=seconds...])")
	}
	if err := jobs.CheckValues(out, nil); err != nil {
		return nil, err
	}
	return out, nil
}
