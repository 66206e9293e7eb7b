package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
)

// toy is the smallest owner a Log can have: a string map whose records
// are "k=v" (set) and "-k" (delete). Anything else is refused, which is
// how the tests plant CRC-valid records that must be quarantined.
type toy struct {
	log   *Log
	state map[string]string
}

func (o *toy) apply(payload []byte, _ time.Time) error {
	s := string(payload)
	if k, ok := strings.CutPrefix(s, "-"); ok {
		delete(o.state, k)
		return nil
	}
	k, v, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("toy: unreplayable record %q", s)
	}
	o.state[k] = v
	return nil
}

func (o *toy) snapshot(emit func([]byte) error) error {
	keys := make([]string, 0, len(o.state))
	for k := range o.state {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if err := emit([]byte(k + "=" + o.state[k])); err != nil {
			return err
		}
	}
	return nil
}

// openToy opens dir's journal the way both real owners do: replay, then
// rewrite if the log says one is due.
func openToy(t testing.TB, dir string, hooks Hooks) (*toy, *Replay) {
	t.Helper()
	o := &toy{state: make(map[string]string)}
	l, rep, err := OpenLog(filepath.Join(dir, "toy.wal"), "toy", hooks, t.Logf, o.apply)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	o.log = l
	if l.Due() {
		if err := l.Rewrite(o.snapshot); err != nil {
			t.Logf("boot rewrite: %v", err)
		}
	}
	return o, rep
}

// randomOp returns one toy record over a small key space, so sets
// overwrite and deletes hit.
func randomOp(rng *rand.Rand) string {
	k := fmt.Sprintf("k%d", rng.Intn(6))
	if rng.Intn(4) == 0 {
		return "-" + k
	}
	return fmt.Sprintf("%s=v%d", k, rng.Intn(1000))
}

// buildJournal runs a seeded op sequence with rewrites in between and
// returns the journal's bytes and the state they must replay to.
func buildJournal(t *testing.T, seed int64) ([]byte, map[string]string) {
	t.Helper()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(seed))
	o, _ := openToy(t, dir, Hooks{})
	for i := 0; i < 40; i++ {
		op := randomOp(rng)
		if err := o.log.Append([]byte(op)); err != nil {
			t.Fatal(err)
		}
		if err := o.apply([]byte(op), time.Time{}); err != nil {
			t.Fatal(err)
		}
		if i == 12 || i == 31 {
			if err := o.log.Rewrite(o.snapshot); err != nil {
				t.Fatal(err)
			}
		}
	}
	o.log.Close()
	data, err := os.ReadFile(filepath.Join(dir, "toy.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return data, o.state
}

// prefixStates parses data's frames independently of OpenLog and returns
// each frame's end offset and the state after it (states[0] is empty,
// before any frame).
func prefixStates(t *testing.T, data []byte) (ends []int, states []map[string]string) {
	t.Helper()
	o := &toy{state: make(map[string]string)}
	states = append(states, map[string]string{})
	r := bytes.NewReader(data)
	for r.Len() > 0 {
		frame, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("reference parse: %v", err)
		}
		if body := frame[envelopeLen:]; len(body) > 0 {
			if err := o.apply(body, time.Time{}); err != nil {
				t.Fatal(err)
			}
		}
		ends = append(ends, len(data)-r.Len())
		states = append(states, maps.Clone(o.state))
	}
	return ends, states
}

// dirListing fingerprints a journal directory: every file's name and
// size, quarantine included.
func dirListing(t *testing.T, dir string) string {
	t.Helper()
	var sb strings.Builder
	err := filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			fmt.Fprintf(&sb, "%s:%d\n", strings.TrimPrefix(path, dir), fi.Size())
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// reopenChangesNothing is the idempotence half of the crash properties:
// a second open of an already-recovered directory finds the same state,
// nothing to quarantine, nothing to truncate.
func reopenChangesNothing(t *testing.T, dir string, want map[string]string, label string) {
	t.Helper()
	before := dirListing(t, dir)
	o, rep := openToy(t, dir, Hooks{})
	o.log.Close()
	if !maps.Equal(o.state, want) {
		t.Fatalf("%s: second open state = %v, want %v", label, o.state, want)
	}
	if rep.TornTail || len(rep.Quarantined) != 0 {
		t.Fatalf("%s: second open repaired again: %+v", label, rep)
	}
	if after := dirListing(t, dir); after != before {
		t.Fatalf("%s: second open changed the directory:\n%s\nwas:\n%s", label, after, before)
	}
}

// TestLogCrashAtEveryOffset: whatever byte a crash cuts the journal at,
// reopening yields exactly the state after the longest prefix of fully
// written records, and reopening again changes nothing.
func TestLogCrashAtEveryOffset(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		data, final := buildJournal(t, seed)
		ends, states := prefixStates(t, data)
		if !maps.Equal(states[len(states)-1], final) {
			t.Fatalf("seed %d: whole journal replays to %v, owner held %v", seed, states[len(states)-1], final)
		}
		whole := 0
		for cut := 0; cut <= len(data); cut++ {
			for whole < len(ends) && ends[whole] <= cut {
				whole++
			}
			label := fmt.Sprintf("seed %d cut %d/%d", seed, cut, len(data))
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "toy.wal"), data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			o, rep := openToy(t, dir, Hooks{})
			o.log.Close()
			if !maps.Equal(o.state, states[whole]) {
				t.Fatalf("%s: state = %v, want the %d-frame prefix %v", label, o.state, whole, states[whole])
			}
			atBoundary := cut == 0 || (whole > 0 && ends[whole-1] == cut)
			if rep.TornTail == atBoundary || len(rep.Quarantined) != 0 {
				t.Fatalf("%s: replay = %+v (cut on a frame boundary: %v)", label, rep, atBoundary)
			}
			reopenChangesNothing(t, dir, states[whole], label)
		}
	}
}

// TestLogBitFlips: a flipped bit anywhere never fails or panics the
// open; the state is the prefix before the damaged frame and what was
// skipped is either quarantined or dropped as torn.
func TestLogBitFlips(t *testing.T) {
	data, _ := buildJournal(t, 3)
	ends, states := prefixStates(t, data)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 150; i++ {
		bit := rng.Intn(len(data) * 8)
		damaged := 0
		for ends[damaged] <= bit/8 {
			damaged++
		}
		label := fmt.Sprintf("bit %d (frame %d)", bit, damaged)
		flipped := bytes.Clone(data)
		flipped[bit/8] ^= 1 << (bit % 8)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "toy.wal"), flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		o, rep := openToy(t, dir, Hooks{})
		o.log.Close()
		if !maps.Equal(o.state, states[damaged]) {
			t.Fatalf("%s: state = %v, want the prefix %v", label, o.state, states[damaged])
		}
		if !rep.TornTail && len(rep.Quarantined) == 0 {
			t.Fatalf("%s: damage neither quarantined nor dropped as torn: %+v", label, rep)
		}
		for _, q := range rep.Quarantined {
			for _, name := range []string{q.File, q.File + ".reason.json"} {
				if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
					t.Fatalf("%s: quarantine evidence missing: %v", label, err)
				}
			}
		}
		reopenChangesNothing(t, dir, states[damaged], label)
	}
}

// TestLogStoreFaultMatrix drives every chaos.StoreFaults kind × op
// through appends with forced rewrites in between, then "crashes" (no
// Close) and reopens clean: a failed append is not in the replayed state,
// every acknowledged one — including those after a failure — is, and a
// failed rewrite loses nothing (it must not restart the sequence space
// under records that are still in the old file).
func TestLogStoreFaultMatrix(t *testing.T) {
	specs := []string{}
	for _, kind := range []string{"torn", "enospc", "syncerr"} {
		for _, n := range []string{"1", "4", "*"} {
			specs = append(specs, kind+":append:"+n, kind+":write:"+n)
		}
	}
	specs = append(specs, "crashrename:write:1", "crashrename:write:2", "crashrename:write:*", "torn:*:3", "syncerr:*:*")
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			faults, err := chaos.ParseStoreFaults(spec)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			o, _ := openToy(t, dir, Hooks{BeforeWrite: faults.BeforeWrite, BeforeSync: faults.BeforeSync, BeforeRename: faults.BeforeRename})
			rng := rand.New(rand.NewSource(7))
			failedAppends, failedRewrites := 0, 0
			for i := 0; i < 30; i++ {
				op := randomOp(rng)
				if err := o.log.Append([]byte(op)); err != nil {
					failedAppends++
				} else if err := o.apply([]byte(op), time.Time{}); err != nil {
					t.Fatal(err)
				}
				if i%7 == 6 {
					if err := o.log.Rewrite(o.snapshot); err != nil {
						failedRewrites++
					}
				}
			}
			if failedAppends+failedRewrites == 0 {
				t.Fatalf("fault %s never fired", spec)
			}
			re, rep := openToy(t, dir, Hooks{})
			defer re.log.Close()
			if !maps.Equal(re.state, o.state) {
				t.Fatalf("after %d failed append(s), %d failed rewrite(s): replayed %v, acknowledged %v", failedAppends, failedRewrites, re.state, o.state)
			}
			if len(rep.Quarantined) != 0 {
				t.Fatalf("replay quarantined records of a journal only ever appended to: %+v", rep.Quarantined)
			}
		})
	}
}

// TestLogQuarantinesRefusedRecord: a CRC-valid record the owner refuses
// is preserved with a sidecar, replay continues past it, and the boot
// rewrite keeps it from resurfacing — while evidence from an earlier
// boot is never overwritten.
func TestLogQuarantinesRefusedRecord(t *testing.T) {
	dir := t.TempDir()
	for boot := 1; boot <= 2; boot++ {
		o, _ := openToy(t, dir, Hooks{})
		o.state = map[string]string{}
		if err := o.log.Rewrite(o.snapshot); err != nil { // empty journal: the bad record is frame 0 again
			t.Fatal(err)
		}
		for _, rec := range []string{"poison", "a=1"} {
			if err := o.log.Append([]byte(rec)); err != nil {
				t.Fatal(err)
			}
		}
		o.log.Close()

		o, rep := openToy(t, dir, Hooks{})
		o.log.Close()
		if len(rep.Quarantined) != 1 || !strings.Contains(rep.Quarantined[0].Reason, "poison") || rep.Quarantined[0].Source != "toy" {
			t.Fatalf("boot %d: quarantine = %+v", boot, rep.Quarantined)
		}
		if o.state["a"] != "1" || rep.Records != 1 {
			t.Fatalf("boot %d: replay stopped at the refused record: %v, %+v", boot, o.state, rep)
		}
		reopenChangesNothing(t, dir, o.state, fmt.Sprintf("boot %d", boot))
		recs, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*.rec"))
		sidecars, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*.reason.json"))
		if len(recs) != boot || len(sidecars) != boot {
			t.Fatalf("boot %d: %d record file(s), %d sidecar(s); earlier evidence overwritten?", boot, len(recs), len(sidecars))
		}
	}
}

// TestLogRewriteRule: the journal is due for a rewrite once the bytes
// appended since the last one exceed what that one produced (past the
// floor), and the rule survives a reopen because the rewrite's end
// marker is in the file.
func TestLogRewriteRule(t *testing.T) {
	dir := t.TempDir()
	o, _ := openToy(t, dir, Hooks{})
	big := strings.Repeat("x", minRewrite/2-64) // two records stay under the floor, frames included
	add := func(k string) {
		t.Helper()
		rec := k + "=" + big
		if err := o.log.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
		o.apply([]byte(rec), time.Time{})
	}
	add("a")
	add("b")
	if o.log.Due() {
		t.Fatal("due below the floor")
	}
	add("c")
	if !o.log.Due() {
		t.Fatal("1.5x the floor appended over an empty base: not due")
	}
	if err := o.log.Rewrite(o.snapshot); err != nil {
		t.Fatal(err)
	}
	add("a") // base is 3 records; one more is well under it
	o.log.Close()

	o, _ = openToy(t, dir, Hooks{})
	if o.log.Due() || o.log.base < 3*int64(len(big)) || o.log.grown > int64(len(big))+64 {
		t.Fatalf("after reopen: due=%v base=%d grown=%d", o.log.Due(), o.log.base, o.log.grown)
	}
	for _, k := range []string{"a", "b", "c"} {
		add(k)
	}
	if !o.log.Due() {
		t.Fatalf("appended %d over a base of %d: not due", o.log.grown, o.log.base)
	}
	o.log.Close()
}

// A header that claims more bytes than the file holds is a torn tail,
// decided without allocating the claim.
func TestScanBoundsFrameLengthByFileSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint32(buf, 900<<20)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	scan, err := Scan(path)
	runtime.ReadMemStats(&after)
	if err != nil || !scan.Torn || scan.Corrupt != "" || len(scan.Frames) != 0 || scan.GoodOffset != 0 {
		t.Fatalf("scan = %+v, %v; want a torn tail at offset 0", scan, err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Fatalf("scanning a 16-byte file allocated %d bytes", d)
	}
}

// FuzzLogOpen: whatever bytes the journal file holds, open never panics
// and never errors, and a second open finds nothing left to repair.
func FuzzLogOpen(f *testing.F) {
	var good []byte
	for i, rec := range []string{"a=1", "b=2", "", "-a", "poison"} {
		good = append(good, frameRecord(uint64(i+1), time.Unix(0, 0), []byte(rec))...)
	}
	f.Add(good)
	f.Add(good[:len(good)-5])
	f.Add(append(bytes.Clone(good), good...)) // sequence numbers repeat
	f.Add(Frame([]byte("short")))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "toy.wal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		o, _ := openToy(t, dir, Hooks{})
		o.log.Close()
		reopenChangesNothing(t, dir, o.state, "fuzz")
	})
}
