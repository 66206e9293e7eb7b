package chaos

import (
	"strings"
	"testing"
	"time"
)

func TestParseRuntimeFaults(t *testing.T) {
	f, err := ParseRuntimeFaults("panic:b1, error:b2,sleep:*")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Panic) != 1 || f.Panic[0] != "b1" {
		t.Fatalf("Panic = %v", f.Panic)
	}
	if len(f.Error) != 1 || f.Error[0] != "b2" {
		t.Fatalf("Error = %v", f.Error)
	}
	if len(f.Sleep) != 1 || f.Sleep[0] != "*" {
		t.Fatalf("Sleep = %v", f.Sleep)
	}
	if !f.Any() {
		t.Fatal("Any = false")
	}
}

func TestParseRuntimeFaultsErrors(t *testing.T) {
	for _, spec := range []string{"panic", "panic:", "boom:b1"} {
		if _, err := ParseRuntimeFaults(spec); err == nil {
			t.Errorf("ParseRuntimeFaults(%q) succeeded, want error", spec)
		}
	}
	f, err := ParseRuntimeFaults("")
	if err != nil || f.Any() {
		t.Fatalf("empty spec: %v %v", f, err)
	}
	if f.Hook() != nil {
		t.Fatal("empty faults should yield nil hook")
	}
}

func TestRuntimeFaultHook(t *testing.T) {
	f := RuntimeFaults{Panic: []string{"p"}, Error: []string{"e"}}
	hook := f.Hook()
	if err := hook("healthy"); err != nil {
		t.Fatalf("healthy net: %v", err)
	}
	if err := hook("e"); err == nil || !strings.Contains(err.Error(), "net e") {
		t.Fatalf("error fault: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic fault did not panic")
			}
		}()
		hook("p") //nolint:errcheck // panics before returning
	}()
}

func TestRuntimeFaultHookWildcardAndSleep(t *testing.T) {
	f := RuntimeFaults{Sleep: []string{"*"}, SleepFor: 5 * time.Millisecond}
	hook := f.Hook()
	start := time.Now()
	if err := hook("anything"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Fatalf("sleep fault returned after %s", elapsed)
	}
}

// TestSessionFaults pins how a session name selects its faults: an exact
// name, then the longest matching "prefix*", and nothing otherwise.
func TestSessionFaults(t *testing.T) {
	s, err := ParseSessionFaults("slow*=error:*; slow-0=panic:b1;flaky=error:b1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prepare("slow-1", "b2"); err == nil {
		t.Error("slow-1 matched no prefix")
	}
	if err := s.Prepare("slow-0", "b2"); err != nil {
		t.Errorf("slow-0 took the prefix over its exact name: %v", err)
	}
	if err := s.Prepare("flaky", "b1"); err == nil {
		t.Error("flaky: no fault on b1")
	}
	if err := s.Prepare("fast", "b1"); err != nil {
		t.Errorf("an unnamed session failed: %v", err)
	}
	for _, spec := range []string{"slow", "=sleep:*", "slow=boom:b1"} {
		if _, err := ParseSessionFaults(spec); err == nil {
			t.Errorf("ParseSessionFaults(%q) succeeded, want error", spec)
		}
	}
}
