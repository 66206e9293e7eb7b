package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/shard"
	"repro/internal/units"
	"repro/internal/workload"
)

// A finished result keeps its slacks in the canonical gather order and sorts
// them on the first read. The order a reader sees must be the one the engine
// produced when it sorted at every finish: the same unstable sort by slack
// then net over the same sequence, so even ties come out as they did.

// eagerSlacks is that order: the gather sequence sorted as finishing did.
func eagerSlacks(s []core.ReceiverSlack) []core.ReceiverSlack {
	s = slices.Clone(s)
	slices.SortFunc(s, func(a, b core.ReceiverSlack) int {
		if a.Slack != b.Slack {
			if a.Slack < b.Slack {
				return -1
			}
			return 1
		}
		return strings.Compare(a.Net, b.Net)
	})
	return s
}

// slackTable is report.SlackTable over rows already in order.
func slackTable(rows []core.ReceiverSlack, checked int) string {
	t := report.NewTable(fmt.Sprintf("tightest noise slacks (%d of %d checked)", len(rows), checked),
		"net", "receiver", "state", "peak", "limit", "slack")
	for _, s := range rows {
		t.AddRow(s.Net, s.Receiver, s.Kind.String(), report.SI(s.Peak, "V"), report.SI(s.Limit, "V"), report.SI(s.Slack, "V"))
	}
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// requireEagerOrder holds TightestSlacks, WorstSlack and report.SlackTable
// of res to the eager sort of its slacks, at every cut of the list.
func requireEagerOrder(t *testing.T, label string, res *core.Result) {
	t.Helper()
	want := eagerSlacks(res.Slacks)
	worst := math.Inf(1)
	if len(want) > 0 {
		worst = want[0].Slack
	}
	if got := res.WorstSlack(); got != worst {
		t.Fatalf("%s: WorstSlack %g, want %g", label, got, worst)
	}
	for _, n := range []int{-1, 0, 1, 7, len(want) / 2, len(want), len(want) + 3} {
		rows := want[:max(min(n, len(want)), 0)]
		if got := res.TightestSlacks(n); !slices.Equal(got, rows) {
			t.Fatalf("%s: TightestSlacks(%d) differs from the eager sort:\n got %+v\nwant %+v", label, n, got, rows)
		}
		var b strings.Builder
		report.SlackTable(&b, res, n)
		if got, want := b.String(), slackTable(rows, len(res.Slacks)); got != want {
			t.Fatalf("%s: SlackTable(%d):\n%s\nwant\n%s", label, n, got, want)
		}
	}
}

// TestSlacksSortedOnReadMatchEagerSort covers the workload fixtures in every
// mode, and the oracle's cases as a one-shot analysis, as the last round of
// a local fixpoint and as the result merged from shards.
func TestSlacksSortedOnReadMatchEagerSort(t *testing.T) {
	ctx := context.Background()
	fixtures := map[string]func() (*workload.Generated, error){
		"bus-hot": func() (*workload.Generated, error) {
			return workload.Bus(workload.BusSpec{Bits: 6, Segs: 2, CoupleC: 30 * units.Femto, GroundC: 1 * units.Femto})
		},
		"fabric": func() (*workload.Generated, error) {
			return workload.Fabric(workload.FabricSpec{Width: 12, Levels: 8, Seed: 3})
		},
		"chain":        func() (*workload.Generated, error) { return workload.Chain(workload.ChainSpec{Depth: 4}) },
		"ladder":       func() (*workload.Generated, error) { return workload.Ladder(workload.LadderSpec{Lines: 8, Steps: 3}) },
		"differential": func() (*workload.Generated, error) { return workload.Differential(workload.DifferentialSpec{Pairs: 3}) },
	}
	ties := false
	for name, mk := range fixtures {
		b, opts := bindCase(t, oracleCase{name: name, mk: mk})
		for _, mode := range []core.Mode{core.ModeAllAggressors, core.ModeTimingWindows, core.ModeNoiseWindows} {
			opts.Mode = mode
			res, err := core.AnalyzeCtx(ctx, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireEagerOrder(t, name+"/"+mode.String(), res)
			ties = ties || hasSlackTie(res.Slacks)
		}
	}
	for _, c := range oracleCases() {
		b, opts := bindCase(t, c)
		res, err := core.AnalyzeCtx(ctx, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireEagerOrder(t, c.name, res)
		ties = ties || hasSlackTie(res.Slacks)
		iter, _ := runLocal(t, c, b, opts, 2, false)
		requireEagerOrder(t, c.name+" iterated", iter.Noise)
		if c.degrade != "" {
			continue // degraded from inside the local engine only
		}
		workers := []shard.Worker{shard.NewInProc("w0", func(context.Context) (*bind.Design, error) { return b, nil }, opts)}
		merged, err := shard.Run(ctx, shard.Config{B: b, Opts: opts, Workers: workers, Shards: 3, Token: c.name})
		if err != nil {
			t.Fatal(err)
		}
		requireEagerOrder(t, c.name+" merged from 3 shards", merged.Noise)
		if !slices.Equal(merged.Noise.TightestSlacks(len(merged.Noise.Slacks)), iter.Noise.TightestSlacks(len(iter.Noise.Slacks))) {
			t.Fatalf("%s: the merged result's slacks read differently from the local fixpoint's", c.name)
		}
	}
	if !ties {
		t.Fatal("no fixture has two slacks of one value: the tie order is untested")
	}
}

// hasSlackTie reports whether two slacks share a value, the case where the
// sort's order rests on the sequence it is given.
func hasSlackTie(s []core.ReceiverSlack) bool {
	seen := make(map[float64]bool, len(s))
	for _, r := range s {
		if seen[r.Slack] {
			return true
		}
		seen[r.Slack] = true
	}
	return false
}

// TestSlacksResortAfterReanalyze reads a session's slacks, reanalyzes it with
// padding that moves them, and reads them again: the second read must be the
// eager sort of the new slacks, not the first read's list.
func TestSlacksResortAfterReanalyze(t *testing.T) {
	ctx := context.Background()
	b, opts := bindCase(t, oracleCases()[1])
	sess, err := core.NewSession(ctx, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireEagerOrder(t, "fresh session", sess.Noise())
	before := slices.Clone(sess.Noise().Slacks)
	pad := make(map[string]float64)
	for name := range sess.Noise().Nets {
		pad[name] = 40 * units.Pico
	}
	res, n, err := sess.Reanalyze(ctx, pad)
	if err != nil || n == 0 {
		t.Fatalf("reanalyze: %d net(s) changed, %v", n, err)
	}
	if slices.Equal(res.Slacks, before) {
		t.Fatal("the padding moved no slack: the test no longer re-sorts")
	}
	requireEagerOrder(t, "reanalyzed session", res)
}

// TestConcurrentFirstSlackReads: many readers racing to the first sort all
// see the eager order (run it under -race).
func TestConcurrentFirstSlackReads(t *testing.T) {
	b, opts := bindCase(t, oracleCases()[1])
	res, err := core.AnalyzeCtx(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := eagerSlacks(res.Slacks)
	table := slackTable(want[:min(20, len(want))], len(want))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got bytes.Buffer
			switch r % 3 {
			case 0:
				if !slices.Equal(res.TightestSlacks(len(want)), want) {
					errs <- fmt.Errorf("reader %d: TightestSlacks differs", r)
				}
			case 1:
				if res.WorstSlack() != want[0].Slack {
					errs <- fmt.Errorf("reader %d: WorstSlack differs", r)
				}
			default:
				report.SlackTable(&got, res, 20)
				if got.String() != table {
					errs <- fmt.Errorf("reader %d: SlackTable differs", r)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
