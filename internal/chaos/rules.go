// Package chaos holds the fault injectors the robustness tests drive: the
// engine's prepare hook (RuntimeFaults, SessionFaults), the journals'
// write path (StoreFaults), job attempts (JobFaults) and the shard
// transport (WorkerFaults, FaultyWorker). Production code carries only the
// function seams these plug into — core.Options.PrepareHook, wal.Hooks,
// jobs.Config.Fault, server.Config.Faults — and only _test.go files import
// this package, which is why it imports nothing but the standard library:
// the internal tests of wal, jobs, shard and server use it.
package chaos

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// faultGrammar is one injector's rule language. Every rule is
// kind:target[:n|*]; the injectors differ in what they call themselves and
// their targets, and in which kinds and targets exist ("*" always does).
type faultGrammar struct {
	what, target, example string
	kinds, targets        []string
	wantTargets           string // how the unknown-target error lists them
}

type faultRule struct {
	kind, target  string
	at, seen      int // fires on the at-th matching call (1-based)
	fired, always bool
}

// faultRules is the armed-rule matcher under StoreFaults, JobFaults and
// WorkerFaults. It is safe for concurrent use, and a nil one never fires.
type faultRules struct {
	mu    sync.Mutex
	rules []faultRule
}

// parse reads a comma-separated spec of rules; an empty one is nil, no faults.
func (g faultGrammar) parse(spec string) (*faultRules, error) {
	var rules []faultRule
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		parts := strings.Split(item, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("chaos: bad %s fault %q (want kind:%s[:n], e.g. %s)", g.what, item, g.target, g.example)
		}
		r := faultRule{kind: parts[0], target: parts[1], at: 1}
		if !slices.Contains(g.kinds, r.kind) {
			return nil, fmt.Errorf("chaos: unknown %s fault kind %q (want %s)", g.what, r.kind, strings.Join(g.kinds, "|"))
		}
		if r.target != "*" && !slices.Contains(g.targets, r.target) {
			return nil, fmt.Errorf("chaos: unknown %s fault %s %q (want %s)", g.what, g.target, r.target, g.wantTargets)
		}
		if len(parts) == 3 && parts[2] == "*" {
			r.always = true
		} else if len(parts) == 3 {
			n, err := strconv.Atoi(parts[2])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("chaos: bad %s fault count %q (want a positive integer or *)", g.what, parts[2])
			}
			r.at = n
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, nil
	}
	return &faultRules{rules: rules}, nil
}

// match counts one call on target against every rule for it, in spec order
// — only those of the given kinds, when any are given — up to the first that
// fires, and returns that rule's kind ("" when none fires).
func (f *faultRules) match(target string, kinds ...string) string {
	if f == nil {
		return ""
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.rules {
		r := &f.rules[i]
		if r.target != "*" && r.target != target || len(kinds) > 0 && !slices.Contains(kinds, r.kind) {
			continue
		}
		r.seen++
		if r.always || !r.fired && r.seen == r.at {
			r.fired = true
			return r.kind
		}
	}
	return ""
}
