package chaos

import "fmt"

// StoreFaults injects failures into the durable session store's write
// path, the way RuntimeFaults injects them into the analysis engine. The
// store calls the hook methods at its syscall boundaries; a matching rule
// fires once (or, with count "*", every time) and simulates the disk
// failing underneath the daemon:
//
//	torn        the write persists only a prefix of the frame and then
//	            "crashes" (returns an error) — the on-disk state is
//	            exactly what a power cut mid-append leaves behind
//	enospc      the write fails before any byte lands (no space)
//	syncerr     fsync fails after the write (data may or may not be
//	            durable — the store must treat the operation as failed)
//	crashrename the temp file is fully written and synced but the rename
//	            never happens — a crash between temp and rename
//
// Operations the rules select on: "append" (journal frame append),
// "write" (atomic snapshot/manifest write), or "*" for both.
//
// The struct is safe for concurrent use; the store may be called from
// many request goroutines.
type StoreFaults faultRules

var storeFaultGrammar = faultGrammar{
	what: "store", target: "op", example: "torn:append:2",
	kinds:   []string{"torn", "enospc", "syncerr", "crashrename"},
	targets: []string{"append", "write"}, wantTargets: "append|write|*",
}

// InjectedFault marks a simulated storage failure: the store must treat
// the operation as failed, and a chaos test then reopens the directory
// as if the process had died at that instant.
type InjectedFault struct {
	Kind string
	Op   string
}

func (e *InjectedFault) Error() string {
	return fmt.Sprintf("chaos: injected %s fault on store %s", e.Kind, e.Op)
}

// ParseStoreFaults parses a comma-separated spec of kind:op[:n] rules,
// e.g. "torn:append:2,crashrename:write,enospc:*". Kinds are torn,
// enospc, syncerr, crashrename; ops are append, write, or *; n selects
// the n-th matching operation (default 1), and n "*" fires every time.
// An empty spec returns nil (no faults).
func ParseStoreFaults(spec string) (*StoreFaults, error) {
	r, err := storeFaultGrammar.parse(spec)
	return (*StoreFaults)(r), err
}

// BeforeWrite fires before the bytes of an append or atomic write land.
// It returns how many bytes to actually write (len(data) normally, a
// strict prefix for a torn write) and an error for faults that fail the
// operation. A torn write returns both: the prefix lands AND the
// operation errors, reproducing a crash mid-write.
func (f *StoreFaults) BeforeWrite(op string, size int) (int, error) {
	switch (*faultRules)(f).match(op, "torn", "enospc") {
	case "torn":
		return size / 2, &InjectedFault{Kind: "torn", Op: op}
	case "enospc":
		return 0, &InjectedFault{Kind: "enospc", Op: op}
	}
	return size, nil
}

// BeforeSync fires before fsync of a journal or freshly written file.
func (f *StoreFaults) BeforeSync(op string) error {
	if (*faultRules)(f).match(op, "syncerr") != "" {
		return &InjectedFault{Kind: "syncerr", Op: op}
	}
	return nil
}

// BeforeRename fires between an atomic write's temp file landing and its
// rename into place; an error leaves the temp file stranded exactly as a
// crash would.
func (f *StoreFaults) BeforeRename(op string) error {
	if (*faultRules)(f).match(op, "crashrename") != "" {
		return &InjectedFault{Kind: "crashrename", Op: op}
	}
	return nil
}
