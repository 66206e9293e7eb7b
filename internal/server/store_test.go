package server

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/wal"
)

// openTestStore opens a store on dir with an optional fault spec,
// failing the test on the structurally-unusable-directory path.
func openTestStore(t *testing.T, dir, faultSpec string) (*Store, *report.RecoveryJSON) {
	t.Helper()
	st, rep, err := OpenStore(dir, storeHooks(t, faultSpec), nil, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, rep
}

// compact forces a journal rewrite, which production code leaves to the
// log's size rule; it reports whether the rewrite committed.
func compact(st *Store) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.compactLocked(true)
}

func storeCreate(t *testing.T, st *Store, name string) {
	t.Helper()
	if err := st.Create(&CreateSessionRequest{Name: name, Netlist: "module " + name + "\n"}, specKeys{}); err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
}

func wantNames(t *testing.T, st *Store, want ...string) {
	t.Helper()
	got := st.Names()
	if len(got) != len(want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
}

// TestStoreRoundtrip: acknowledged lifecycle events survive a close and
// reopen — creates come back with their payload and padding, deletes
// stay deleted.
func TestStoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir, "")
	storeCreate(t, st, "a")
	storeCreate(t, st, "b")
	storeCreate(t, st, "c")
	if err := st.Padding("b", map[string]float64{"n1": 3e-12, "n2": 5e-12}); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("c"); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, rep := openTestStore(t, dir, "")
	wantNames(t, st2, "a", "b")
	if len(rep.Quarantined) != 0 {
		t.Fatalf("clean reopen quarantined %v", rep.Quarantined)
	}
	sp := st2.Spec("b")
	if sp == nil || sp.Create.Netlist != "module b\n" {
		t.Fatalf("spec b = %+v", sp)
	}
	if sp.Padding["n1"] != 3e-12 || sp.Padding["n2"] != 5e-12 {
		t.Fatalf("padding = %v", sp.Padding)
	}
	if st2.Spec("c") != nil {
		t.Fatal("deleted session resurrected")
	}
}

// TestStoreCompaction: rewriting the journal from live state shrinks it
// without changing the recovered state — padding and tombstones
// included — and leaves one journal file and no debris.
func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir, "")
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		storeCreate(t, st, name)
	}
	if err := st.Padding("b", map[string]float64{"n1": 3e-12}); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("d"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalName)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !compact(st) {
		t.Fatal("compaction failed")
	}
	after, err := os.Stat(path)
	if err != nil || after.Size() >= before.Size() {
		t.Fatalf("journal is %d bytes after compaction, %d before (%v)", after.Size(), before.Size(), err)
	}
	storeCreate(t, st, "f") // the rewritten journal takes appends
	st.Close()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 { // sessions.wal and quarantine/
		t.Fatalf("data dir after compaction holds %v", entries)
	}

	st2, rep := openTestStore(t, dir, "")
	wantNames(t, st2, "a", "b", "c", "e", "f")
	if sp := st2.Spec("b"); sp == nil || sp.Padding["n1"] != 3e-12 {
		t.Fatalf("padding lost in compaction: %+v", sp)
	}
	if rep.Records != 5 || rep.Compacted {
		t.Fatalf("clean reopen of a compacted journal: %d record(s), compacted=%v; want 5 and no boot rewrite", rep.Records, rep.Compacted)
	}
}

// TestStoreFailedAppendKeepsTailReplayable is the regression test for the
// torn-tail repair: an append that fails mid-frame must not hide later,
// successfully acknowledged records from replay.
func TestStoreFailedAppendKeepsTailReplayable(t *testing.T) {
	for _, spec := range []string{"torn:append:2", "enospc:append:2", "syncerr:append:2"} {
		t.Run(spec, func(t *testing.T) {
			dir := t.TempDir()
			st, _ := openTestStore(t, dir, spec)
			storeCreate(t, st, "a")
			if err := st.Create(&CreateSessionRequest{Name: "b", Netlist: "module b\n"}, specKeys{}); err == nil {
				t.Fatal("injected fault did not fail the create")
			}
			// The failed create must not be acknowledged in memory either.
			if st.Spec("b") != nil {
				t.Fatal("failed create landed in the spec index")
			}
			// Later creates append after the repaired tail.
			storeCreate(t, st, "c")
			// Crash (no Close): reopen replays.
			st2, _ := openTestStore(t, dir, "")
			wantNames(t, st2, "a", "c")
		})
	}
}

// TestStoreCrashBetweenTempAndRename: a stranded compaction temp file
// (the crash-between-temp-and-rename window) is swept on boot, and the
// state recovers from the journal.
func TestStoreCrashBetweenTempAndRename(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir, "crashrename:write:1")
	storeCreate(t, st, "a")
	// The compaction fails after its temp file is fully on disk; the
	// journal it was replacing stays authoritative and appendable.
	if compact(st) {
		t.Fatal("crashrename did not fail the compaction")
	}
	storeCreate(t, st, "b")
	tmp := filepath.Join(dir, journalName+".tmp")
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("crashrename did not strand a temp file: %v", err)
	}
	// Crash; reopen without faults.
	st2, _ := openTestStore(t, dir, "")
	wantNames(t, st2, "a", "b")
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stranded temp file survived the boot sweep: %v", err)
	}
}

// TestStoreJournalCorruptionQuarantined: a CRC mismatch in the middle of
// the journal (bit rot, not a crash) quarantines the unreadable region
// with a reason instead of refusing the boot; records before it replay.
func TestStoreJournalCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir, "")
	storeCreate(t, st, "a")
	storeCreate(t, st, "b")
	st.Close()

	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside the second frame: the first frame's
	// length names the boundary.
	n1 := binary.LittleEndian.Uint32(data[0:4])
	off := int(wal.FrameHeaderLen+n1) + wal.FrameHeaderLen + 2
	if off >= len(data) {
		t.Fatalf("journal layout: %d bytes, second payload at %d", len(data), off)
	}
	data[off] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, rep := openTestStore(t, dir, "")
	wantNames(t, st2, "a")
	if len(rep.Quarantined) == 0 {
		t.Fatal("corruption was not quarantined")
	}
	found := false
	for _, q := range rep.Quarantined {
		if q.Source == "journal" && strings.Contains(q.Reason, "CRC") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no CRC quarantine entry: %+v", rep.Quarantined)
	}
	// The boot compaction rewrote the journal from the healthy state: the
	// next boot is clean.
	if !rep.Compacted {
		t.Fatal("boot did not compact after a quarantine")
	}
	st2.Close()
	st3, rep3 := openTestStore(t, dir, "")
	wantNames(t, st3, "a")
	if len(rep3.Quarantined) != 0 {
		t.Fatalf("quarantined garbage resurfaced: %+v", rep3.Quarantined)
	}
}

// TestStoreRefusesLegacyLayout: a directory written by the
// MANIFEST/generation/snapshot store must fail the open with a message
// naming the layout — never boot empty over acknowledged sessions — and
// the refusal must leave the directory untouched.
func TestStoreRefusesLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"MANIFEST", "journal-000003.wal"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("legacy"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := OpenStore(dir, wal.Hooks{}, nil, t.Logf)
	if err == nil || !strings.Contains(err.Error(), "MANIFEST") || !strings.Contains(err.Error(), dir) {
		t.Fatalf("legacy layout: err = %v, want a refusal naming the layout and the directory", err)
	}
	if _, err := New(Config{DataDir: dir}); err == nil {
		t.Fatal("server.New booted over a legacy data directory")
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 2 {
		t.Fatalf("refused open modified the directory: %v", entries)
	}
}

// TestStoreQuarantineSpec: quarantining an unreplayable spec tombstones
// it durably and leaves the bytes + reason in quarantine/.
func TestStoreQuarantineSpec(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir, "")
	storeCreate(t, st, "bad")
	entry := st.QuarantineSpec("bad", "sources no longer build")
	if entry == nil || entry.Session != "bad" {
		t.Fatalf("entry = %+v", entry)
	}
	if st.Spec("bad") != nil {
		t.Fatal("quarantined spec still listed")
	}
	st.Close()
	st2, _ := openTestStore(t, dir, "")
	if st2.Spec("bad") != nil {
		t.Fatal("quarantined spec resurrected on reboot")
	}
	for _, name := range []string{entry.File, entry.File + ".reason.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("quarantined spec evidence missing: %v", err)
		}
	}
	if !strings.HasSuffix(entry.File, ".spec") {
		t.Fatalf("quarantined spec stored as %s", entry.File)
	}
}
