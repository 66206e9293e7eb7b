package chaos

import (
	"fmt"
	"strings"
	"time"
)

// RuntimeFaults injects failures into the analysis engine itself, as
// opposed to workload.Defects, which corrupt the *input* databases. They
// drive the fail-soft machinery: a fault fires from inside core's
// per-victim preparation (via Options.PrepareHook), so the engine's
// isolation and degradation reporting can be exercised on otherwise
// healthy designs.
//
// Each list selects victim nets by exact name; the single entry "*"
// matches every net.
type RuntimeFaults struct {
	// Panic makes preparation of the named nets panic, exercising the
	// engine's recover-and-degrade path.
	Panic []string
	// Error makes preparation of the named nets return a plain error.
	Error []string
	// Sleep delays preparation of the named nets by SleepFor, for
	// deadline and cancellation tests.
	Sleep []string
	// SleepFor is the per-net delay for Sleep faults (default 10ms).
	SleepFor time.Duration
}

// Any reports whether at least one fault is configured.
func (f RuntimeFaults) Any() bool {
	return len(f.Panic) > 0 || len(f.Error) > 0 || len(f.Sleep) > 0
}

func matches(list []string, net string) bool {
	for _, n := range list {
		if n == "*" || n == net {
			return true
		}
	}
	return false
}

// Fire runs the faults selected for net: it sleeps, panics or errors
// when net is selected and returns nil otherwise.
func (f RuntimeFaults) Fire(net string) error {
	if matches(f.Sleep, net) {
		sleepFor := f.SleepFor
		if sleepFor <= 0 {
			sleepFor = 10 * time.Millisecond
		}
		time.Sleep(sleepFor)
	}
	if matches(f.Panic, net) {
		panic(fmt.Sprintf("chaos: injected panic on net %s", net))
	}
	if matches(f.Error, net) {
		return fmt.Errorf("chaos: injected error on net %s", net)
	}
	return nil
}

// Hook returns Fire as a function suitable for core's Options.PrepareHook.
// With no faults it returns nil, so the engine takes its zero-overhead
// path.
func (f RuntimeFaults) Hook() func(net string) error {
	if !f.Any() {
		return nil
	}
	return f.Fire
}

// ParseRuntimeFaults parses a comma-separated fault spec of
// kind:net entries, e.g. "panic:b1,error:b2,sleep:*". Kinds are panic,
// error, and sleep; the net "*" selects every net.
func ParseRuntimeFaults(spec string) (RuntimeFaults, error) {
	var f RuntimeFaults
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		kind, net, ok := strings.Cut(item, ":")
		if !ok || net == "" {
			return RuntimeFaults{}, fmt.Errorf("chaos: bad fault %q (want kind:net, e.g. panic:b1)", item)
		}
		switch kind {
		case "panic":
			f.Panic = append(f.Panic, net)
		case "error":
			f.Error = append(f.Error, net)
		case "sleep":
			f.Sleep = append(f.Sleep, net)
		default:
			return RuntimeFaults{}, fmt.Errorf("chaos: unknown fault kind %q (want panic|error|sleep)", kind)
		}
	}
	return f, nil
}

// SessionFaults selects runtime faults by session name, for a server's
// per-session prepare hook. A key is a session name, or a name prefix
// ending in "*"; an exact name wins over a prefix, and a longer prefix
// over a shorter one.
type SessionFaults map[string]RuntimeFaults

// ParseSessionFaults parses semicolon-separated name=spec entries, e.g.
// "slow*=sleep:*;flaky=panic:b1", each spec as ParseRuntimeFaults reads it.
func ParseSessionFaults(spec string) (SessionFaults, error) {
	s := SessionFaults{}
	for _, item := range strings.Split(spec, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, faults, ok := strings.Cut(item, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("chaos: bad session fault %q (want name=spec, e.g. slow*=sleep:*)", item)
		}
		f, err := ParseRuntimeFaults(faults)
		if err != nil {
			return nil, err
		}
		s[name] = f
	}
	return s, nil
}

// Prepare runs the faults selected for session on net.
func (s SessionFaults) Prepare(session, net string) error {
	if f, ok := s[session]; ok {
		return f.Fire(net)
	}
	for i := len(session); i >= 0; i-- {
		if f, ok := s[session[:i]+"*"]; ok {
			return f.Fire(net)
		}
	}
	return nil
}
