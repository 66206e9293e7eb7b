// Package lint is the design-rule static analysis pass that runs over the
// full input database — netlist, cell library, parasitics, and input
// timing — before noise analysis. Static noise analysis is only as
// trustworthy as its inputs: a silently multi-driven net, a dangling
// coupling cap, or a non-monotone immunity table corrupts every window and
// violation downstream. The lint pass refuses such designs with actionable
// diagnostics instead of letting the engines produce wrong reports.
//
// Each check is a Rule with a stable ID (NL001, SPF002, ...). Rules report
// Diagnostics carrying a severity, the offending design-object path, and a
// fix hint. Run applies a Config (per-rule suppression,
// warnings-as-errors) and returns a deterministic, sorted Result that
// cmd/sna renders through internal/report.
package lint

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/spef"
	"repro/internal/sta"
)

// Severity grades a diagnostic. Errors make a design unanalyzable (or the
// analysis meaningless); warnings are suspicious but survivable; infos are
// observations that never affect exit status.
type Severity int

const (
	// Info is a benign observation (e.g. a net analyzed with a lumped
	// model because it has no extracted parasitics).
	Info Severity = iota
	// Warn marks a construct that is probably a mistake but has defined
	// analysis semantics (e.g. a combinational loop handled by fixpoint).
	Warn
	// Error marks a defect that makes analysis results untrustworthy.
	Error
)

// String returns "info", "warn", or "error".
func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warn:
		return "warn"
	}
	return "info"
}

// Diagnostic is one finding of one rule.
type Diagnostic struct {
	// Rule is the stable rule ID, e.g. "NL001".
	Rule string
	// Sev is the effective severity after Config adjustments.
	Sev Severity
	// Object is the design-object path, e.g. "net b3" or
	// "lib cell INV_X1 arc A->Y".
	Object string
	// Msg states the defect.
	Msg string
	// Hint suggests a fix.
	Hint string
}

// Rule is one registered design-rule check.
type Rule interface {
	// ID returns the stable rule identifier (used for suppression and in
	// reports); Title is the one-line rule description for the reference
	// listing.
	ID() string
	Title() string
	// Severity is the rule's default diagnostic severity.
	Severity() Severity
	// Check inspects the input database and reports findings.
	Check(in *Input, rep *Reporter)
}

// Input bundles the databases the pass runs over. Design and Lib are
// required; Paras and Inputs may be nil when the run has no parasitics or
// input-timing constraints.
type Input struct {
	Design *netlist.Design
	Lib    *liberty.Library
	Paras  *spef.Parasitics
	Inputs map[string]*sta.Timing
}

// Config tunes a lint run.
type Config struct {
	// Suppress disables rules by ID.
	Suppress map[string]bool
	// Werror escalates every warning to an error.
	Werror bool
}

// ParseConfig builds a Config from the CLIs' flags: a comma-separated
// list of rule IDs to suppress and the warnings-as-errors switch. IDs are
// validated against the registry so a typo is an error instead of
// silently suppressing nothing.
func ParseConfig(suppress string, werror bool) (Config, error) {
	cfg := Config{Werror: werror}
	for _, id := range strings.Split(suppress, ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		if !slices.ContainsFunc(registry, func(r Rule) bool { return r.ID() == id }) {
			return cfg, fmt.Errorf("unknown lint rule %q in -suppress", id)
		}
		if cfg.Suppress == nil {
			cfg.Suppress = make(map[string]bool)
		}
		cfg.Suppress[id] = true
	}
	return cfg, nil
}

// Result is the outcome of one lint run: all diagnostics, sorted by
// severity (errors first), then rule ID, then object.
type Result struct {
	Diags []Diagnostic

	// bySev is Run's count of Diags per severity; a Result put together
	// by hand has none and counts when asked.
	bySev *[Error + 1]int
}

// Count returns the number of diagnostics at the given severity.
func (r *Result) Count(s Severity) int {
	if r.bySev != nil {
		return r.bySev[s]
	}
	n := 0
	for _, d := range r.Diags {
		if d.Sev == s {
			n++
		}
	}
	return n
}

// Errors, Warnings, and Infos count diagnostics per severity; Total
// counts them all.
func (r *Result) Errors() int   { return r.Count(Error) }
func (r *Result) Warnings() int { return r.Count(Warn) }
func (r *Result) Infos() int    { return r.Count(Info) }
func (r *Result) Total() int    { return len(r.Diags) }

// HasErrors reports whether any error-severity diagnostic was found; this
// is what gates analysis and drives the lint exit code.
func (r *Result) HasErrors() bool { return r.Errors() > 0 }

// Reporter collects diagnostics for one rule during Check, applying the
// run's severity policy.
type Reporter struct {
	rule string
	sev  Severity // the rule's severity
	cfg  *Config
	out  *Result
}

// Report records a finding at the rule's severity.
func (rep *Reporter) Report(object, msg, hint string) {
	rep.ReportAt(rep.sev, object, msg, hint)
}

// ReportAt records a finding at an explicit severity (rules with mixed
// severities, e.g. SPF001's info-level missing-parasitics direction).
// Werror escalation still applies.
func (rep *Reporter) ReportAt(sev Severity, object, msg, hint string) {
	if sev == Warn && rep.cfg.Werror {
		sev = Error
	}
	if d := rep.out.Diags; len(d) == cap(d) {
		// Doubling: a bus without parasitics is tens of thousands of
		// findings, and append's 1.25x steps copy them five times over.
		rep.out.Diags = slices.Grow(d, max(16, len(d)))
	}
	rep.out.Diags = append(rep.out.Diags, Diagnostic{
		Rule:   rep.rule,
		Sev:    sev,
		Object: object,
		Msg:    msg,
		Hint:   hint,
	})
}

// registry holds the built-in rules in registration (ID) order.
var registry []Rule

// Register adds a rule to the registry. Built-in rules register from init;
// duplicates panic because rule IDs must be stable and unique.
func Register(r Rule) {
	for _, have := range registry {
		if have.ID() == r.ID() {
			panic(fmt.Sprintf("lint: duplicate rule %s", r.ID()))
		}
	}
	registry = append(registry, r)
	sort.Slice(registry, func(i, j int) bool { return registry[i].ID() < registry[j].ID() })
}

// Rules returns the registered rules sorted by ID.
func Rules() []Rule {
	return append([]Rule(nil), registry...)
}

// Run executes every registered, non-suppressed rule over the input and
// returns the sorted result. Rules only read the input, so they run
// concurrently, each into its own reporter; the per-rule findings are
// joined in rule-ID order, which is the order a serial run appends them
// in. A rule that panics does so on the caller's goroutine.
func Run(in *Input, cfg Config) *Result {
	var rules []Rule
	for _, rule := range Rules() {
		if !cfg.Suppress[rule.ID()] {
			rules = append(rules, rule)
		}
	}
	parts := make([]Result, len(rules))
	panics := make([]any, len(rules))
	var wg sync.WaitGroup
	for i, rule := range rules {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			rule.Check(in, &Reporter{rule: rule.ID(), sev: rule.Severity(), cfg: &cfg, out: &parts[i]})
		}()
	}
	wg.Wait()
	total := 0
	for i := range parts {
		if panics[i] != nil {
			panic(panics[i])
		}
		total += len(parts[i].Diags)
	}
	res := &Result{Diags: make([]Diagnostic, 0, total), bySev: new([Error + 1]int)}
	for i := range parts {
		res.Diags = append(res.Diags, parts[i].Diags...)
	}
	for i := range res.Diags {
		res.bySev[res.Diags[i].Sev]++
	}
	slices.SortStableFunc(res.Diags, func(a, b Diagnostic) int {
		return cmp.Or(
			cmp.Compare(b.Sev, a.Sev), // errors first
			strings.Compare(a.Rule, b.Rule),
			strings.Compare(a.Object, b.Object),
			strings.Compare(a.Msg, b.Msg))
	})
	return res
}

// rule is the common implementation embedded by the built-in checks.
type rule struct {
	id    string
	title string
	sev   Severity
	check func(in *Input, rep *Reporter)
}

func (r *rule) ID() string                     { return r.id }
func (r *rule) Title() string                  { return r.title }
func (r *rule) Severity() Severity             { return r.sev }
func (r *rule) Check(in *Input, rep *Reporter) { r.check(in, rep) }
