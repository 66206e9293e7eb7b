package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/client"
	"repro/internal/jobs"
	"repro/internal/report"
	"repro/internal/server"
)

// runJobs dispatches the async-job subcommands: submit, jobs, job,
// cancel. They live in their own flag set because job flags (-type,
// -sweep, -id, -wait) share no surface with the session commands.
func runJobs(ctx context.Context, cmd string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("snad "+cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		serverURL = fs.String("server", "http://127.0.0.1:8347", "snad server base URL")
		tenant    = fs.String("tenant", "", "tenant ID for fair scheduling (X-Snad-Tenant)")

		// submit flags
		name      = fs.String("name", "", "session the job runs against")
		jobType   = fs.String("type", "analyze", "job type: analyze | reanalyze | iterate | sweep")
		delay     = fs.Bool("delay", false, "include the crosstalk delta-delay section in the result")
		pad       = fs.String("pad", "", "reanalyze padding: net=seconds[,net=seconds...]")
		shards    = fs.Int("shards", 0, "iterate: shard count for a distributed run (0 = server default)")
		local     = fs.Bool("local", false, "iterate: force a single-process run")
		sweepSpec = fs.String("sweep", "", "sweep points: mode[:threshold][,mode[:threshold]...], e.g. noise:0.02,all:0.05")
		wait      = fs.Bool("wait", false, "block until the job reaches a terminal state")

		// job/cancel flags
		id      = fs.String("id", "", "job id (e.g. job-000001)")
		jsonOut = fs.Bool("json", false, "emit the raw job snapshot as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	c := client.New(*serverURL, client.RetryPolicy{})
	c.SetTenant(*tenant)
	switch cmd {
	case "submit":
		if *name == "" {
			fmt.Fprintln(stderr, "snad: -name is required")
			return exitUsage
		}
		spec := &jobs.Spec{
			Session: *name,
			Type:    *jobType,
			Delay:   *delay,
			Shards:  *shards,
			Local:   *local,
		}
		if *pad != "" {
			padding, err := parsePadding(*pad)
			if err != nil {
				fmt.Fprintln(stderr, "snad:", err)
				return exitUsage
			}
			spec.Padding = padding
		}
		if *sweepSpec != "" {
			points, err := parseSweep(*sweepSpec)
			if err != nil {
				fmt.Fprintln(stderr, "snad:", err)
				return exitUsage
			}
			spec.Sweep = points
		}
		snap, err := c.SubmitJob(ctx, spec)
		if err != nil {
			return clientFail(stderr, err)
		}
		fmt.Fprintf(stdout, "job %s accepted: %s on session %s\n", snap.ID, snap.Type, snap.Session)
		if !*wait {
			return exitClean
		}
		return waitAndPrint(ctx, c, snap.ID, *jsonOut, stdout, stderr)
	case "jobs":
		list, err := c.Jobs(ctx)
		if err != nil {
			return clientFail(stderr, err)
		}
		if *jsonOut {
			return printJSON(stdout, server.JobsResponse{Jobs: list})
		}
		report.JobsText(stdout, list)
		return exitClean
	case "job":
		if *id == "" {
			fmt.Fprintln(stderr, "snad: -id is required")
			return exitUsage
		}
		if *wait {
			return waitAndPrint(ctx, c, *id, *jsonOut, stdout, stderr)
		}
		snap, err := c.JobStatus(ctx, *id)
		if err != nil {
			return clientFail(stderr, err)
		}
		return printJob(stdout, snap, *jsonOut)
	case "cancel":
		if *id == "" {
			fmt.Fprintln(stderr, "snad: -id is required")
			return exitUsage
		}
		snap, err := c.CancelJob(ctx, *id)
		if err != nil {
			return clientFail(stderr, err)
		}
		if snap.State == string(jobs.StateCanceled) {
			fmt.Fprintf(stdout, "job %s canceled\n", snap.ID)
		} else {
			fmt.Fprintf(stdout, "job %s cancel requested (still %s)\n", snap.ID, snap.State)
		}
		return exitClean
	}
	return exitUsage
}

// waitAndPrint blocks until the job is terminal and maps its outcome onto
// the exit discipline: a done analysis-family job reuses printAnalysis
// (violations → 1, degraded-clean → 5), any failure or cancellation is a
// request failure.
func waitAndPrint(ctx context.Context, c *client.Client, id string, jsonOut bool, stdout, stderr io.Writer) int {
	snap, err := c.WaitJob(ctx, id)
	if err != nil {
		return clientFail(stderr, err)
	}
	return printJob(stdout, snap, jsonOut)
}

func printJob(stdout io.Writer, snap *report.JobJSON, jsonOut bool) int {
	if jsonOut {
		return printJSON(stdout, snap)
	}
	report.JobText(stdout, snap)
	if snap.State != string(jobs.StateDone) {
		if snap.Terminal() {
			return exitFail
		}
		return exitClean
	}
	// A done job carries its analysis payload; render it with the same
	// summary (and exit discipline) a synchronous request gets.
	if snap.Type == "sweep" {
		var sw server.SweepResult
		if json.Unmarshal(snap.Result, &sw) == nil {
			for _, pt := range sw.Points {
				fmt.Fprintf(stdout, "  sweep %s threshold=%g: %d victims, %d violations, %d degraded\n",
					pt.Mode, pt.Threshold, pt.Noise.Stats.Victims, len(pt.Noise.Violations), pt.Noise.Stats.DegradedNets)
			}
		}
		return exitClean
	}
	var resp server.AnalyzeResponse
	if err := json.Unmarshal(snap.Result, &resp); err != nil || resp.Noise == nil {
		return exitClean
	}
	it := resp.Iterate
	if it != nil {
		mode := "local"
		if it.Distributed {
			trips := 0
			for _, st := range it.Dispatches {
				trips += st.Dispatches
			}
			mode = fmt.Sprintf("distributed over %d worker(s), %d shard(s), %d round trip(s)", it.Workers, it.Shards, trips)
		}
		state := "converged"
		if !it.Converged {
			state = "did not converge"
		}
		if it.Diverging {
			state = "diverging: " + it.DivergeReason
		}
		fmt.Fprintf(stdout, "iterate %s: %d round(s), %s (%s)\n", snap.Session, it.Rounds, state, mode)
		if it.Resumed {
			fmt.Fprintln(stdout, "  resumed from a persisted round checkpoint")
		}
		if it.Reassigns > 0 {
			fmt.Fprintf(stdout, "  %d shard re-hosting(s) after worker loss\n", it.Reassigns)
		}
		if len(it.AbandonedShards) > 0 {
			fmt.Fprintf(stdout, "  shards %v degraded to conservative full-rail results\n", it.AbandonedShards)
		}
	}
	code := printAnalysis(stdout, &resp)
	// A diverging fixpoint is an incomplete answer, not a clean one.
	if code == exitClean && it != nil && !it.Converged {
		code = exitDegraded
	}
	return code
}

func printJSON(stdout io.Writer, v any) int {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	enc.Encode(v)
	return exitClean
}

// parseSweep parses "mode[:threshold][,mode[:threshold]...]" into sweep
// points; an empty mode ("" or "-") keeps the session's.
func parseSweep(spec string) ([]jobs.SweepPoint, error) {
	var out []jobs.SweepPoint
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		mode, val, hasThresh := strings.Cut(item, ":")
		if mode == "-" {
			mode = ""
		}
		pt := jobs.SweepPoint{Mode: mode}
		if hasThresh {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("bad sweep threshold %q in %q", val, item)
			}
			pt.Threshold = f
		}
		out = append(out, pt)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-sweep needs at least one point (mode[:threshold],...)")
	}
	if err := jobs.CheckValues(nil, out); err != nil {
		return nil, err
	}
	return out, nil
}
