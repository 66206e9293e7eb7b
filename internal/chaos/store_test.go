package chaos

import (
	"errors"
	"testing"
)

func TestParseStoreFaultsErrors(t *testing.T) {
	for _, spec := range []string{
		"torn",              // no op
		"torn:append:1:2",   // too many fields
		"melt:append",       // unknown kind
		"torn:fsync",        // unknown op
		"torn:append:0",     // count must be positive
		"torn:append:-1",    //
		"torn:append:later", //
	} {
		if _, err := ParseStoreFaults(spec); err == nil {
			t.Errorf("ParseStoreFaults(%q) accepted", spec)
		}
	}
	if f, err := ParseStoreFaults(""); err != nil || f != nil {
		t.Fatalf("empty spec = (%v, %v), want (nil, nil)", f, err)
	}
	if f, err := ParseStoreFaults(" , "); err != nil || f != nil {
		t.Fatalf("blank spec = (%v, %v), want (nil, nil)", f, err)
	}
}

func TestStoreFaultsNilReceiver(t *testing.T) {
	var f *StoreFaults
	if n, err := f.BeforeWrite("append", 100); n != 100 || err != nil {
		t.Fatalf("nil BeforeWrite = (%d, %v)", n, err)
	}
	if err := f.BeforeSync("append"); err != nil {
		t.Fatal(err)
	}
	if err := f.BeforeRename("write"); err != nil {
		t.Fatal(err)
	}
}

// TestStoreFaultsCounting pins the rule semantics: a kind:op:n rule fires
// exactly once, on the n-th matching call, and only for its op.
func TestStoreFaultsCounting(t *testing.T) {
	f, err := ParseStoreFaults("torn:append:2")
	if err != nil {
		t.Fatal(err)
	}
	// A "write" op never matches an "append" rule.
	if n, err := f.BeforeWrite("write", 10); n != 10 || err != nil {
		t.Fatalf("write op matched append rule: (%d, %v)", n, err)
	}
	if n, err := f.BeforeWrite("append", 10); n != 10 || err != nil {
		t.Fatalf("first append should pass: (%d, %v)", n, err)
	}
	n, err := f.BeforeWrite("append", 10)
	if err == nil {
		t.Fatal("second append should tear")
	}
	var inj *InjectedFault
	if !errors.As(err, &inj) || inj.Kind != "torn" {
		t.Fatalf("error = %v, want InjectedFault torn", err)
	}
	if n >= 10 {
		t.Fatalf("torn write kept %d of 10 bytes, want a strict prefix", n)
	}
	// The rule is consumed.
	if n, err := f.BeforeWrite("append", 10); n != 10 || err != nil {
		t.Fatalf("third append should pass: (%d, %v)", n, err)
	}
}

// TestStoreFaultsAlwaysAndWildcard pins "*" counts and "*" ops.
func TestStoreFaultsAlwaysAndWildcard(t *testing.T) {
	f, err := ParseStoreFaults("enospc:*:*")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for _, op := range []string{"append", "write"} {
			if n, err := f.BeforeWrite(op, 10); err == nil || n != 0 {
				t.Fatalf("always-enospc call %d op %s = (%d, %v)", i, op, n, err)
			}
		}
	}
}

func TestStoreFaultsKinds(t *testing.T) {
	f, err := ParseStoreFaults("syncerr:append,crashrename:write")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.BeforeSync("write"); err != nil {
		t.Fatalf("sync rule leaked onto write op: %v", err)
	}
	if err := f.BeforeSync("append"); err == nil {
		t.Fatal("syncerr:append never fired")
	}
	if err := f.BeforeRename("write"); err == nil {
		t.Fatal("crashrename:write never fired")
	}
	if err := f.BeforeRename("write"); err != nil {
		t.Fatalf("one-shot crashrename fired twice: %v", err)
	}
}
