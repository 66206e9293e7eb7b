package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("a"), []byte(`{"seq":1}`), {}, bytes.Repeat([]byte{0xab}, 4096)}
	var buf bytes.Buffer
	for _, p := range payloads {
		buf.Write(Frame(p))
	}
	r := bytes.NewReader(buf.Bytes())
	for i, want := range payloads {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %q, want %q", i, got, want)
		}
	}
	if _, err := ReadFrame(r); err == nil || err.Error() != "EOF" {
		t.Fatalf("want io.EOF at clean end, got %v", err)
	}
}

func TestReadFrameTornAndCorrupt(t *testing.T) {
	full := Frame([]byte("payload"))

	// Torn header and torn payload both classify as Torn.
	for _, cut := range []int{3, FrameHeaderLen + 2} {
		var fe *FrameError
		_, err := ReadFrame(bytes.NewReader(full[:cut]))
		if !errors.As(err, &fe) || !fe.Torn {
			t.Fatalf("cut at %d: want torn FrameError, got %v", cut, err)
		}
	}

	// A flipped payload byte is corruption, not a torn tail.
	bad := append([]byte(nil), full...)
	bad[FrameHeaderLen] ^= 0xff
	var fe *FrameError
	_, err := ReadFrame(bytes.NewReader(bad))
	if !errors.As(err, &fe) || fe.Torn {
		t.Fatalf("want non-torn FrameError for CRC mismatch, got %v", err)
	}
}

func TestWriterAppendAndScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	w, err := OpenWriter(path, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	scan, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Frames) != 3 || scan.Torn || scan.Corrupt != "" {
		t.Fatalf("scan = %+v", scan)
	}
	fi, _ := os.Stat(path)
	if scan.GoodOffset != fi.Size() {
		t.Fatalf("GoodOffset %d != file size %d", scan.GoodOffset, fi.Size())
	}
}

// A failed append (torn write) must truncate its partial frame so the
// next append stays replayable — the core journal-before-acknowledge
// guarantee.
func TestWriterTornAppendRepairsTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	fail := true
	w, err := OpenWriter(path, Hooks{
		BeforeWrite: func(op string, size int) (int, error) {
			if fail {
				fail = false
				return size / 2, fmt.Errorf("injected torn write")
			}
			return size, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("first")); err == nil {
		t.Fatal("injected torn append unexpectedly succeeded")
	}
	if err := w.Append([]byte("second")); err != nil {
		t.Fatalf("append after tail repair: %v", err)
	}
	w.Close()
	scan, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Frames) != 1 || string(scan.Frames[0]) != "second" || scan.Torn {
		t.Fatalf("scan after repair = %+v", scan)
	}
}

func TestScanTornTailKeepsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	good := Frame([]byte("keep"))
	torn := Frame([]byte("lost"))[:FrameHeaderLen+2]
	if err := os.WriteFile(path, append(append([]byte(nil), good...), torn...), 0o644); err != nil {
		t.Fatal(err)
	}
	scan, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Frames) != 1 || string(scan.Frames[0]) != "keep" || !scan.Torn {
		t.Fatalf("scan = %+v", scan)
	}
	if scan.GoodOffset != int64(len(good)) {
		t.Fatalf("GoodOffset %d, want %d", scan.GoodOffset, len(good))
	}
}

func TestScanMissingFileIsEmpty(t *testing.T) {
	scan, err := Scan(filepath.Join(t.TempDir(), "absent.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Frames) != 0 || scan.Torn || scan.Corrupt != "" {
		t.Fatalf("scan = %+v", scan)
	}
}

// TestReplaceAtomicRenameFaultStrandsTemp: a fault before the rename
// leaves the target as it was and the temp file where a crash would, and
// the next replace overwrites it.
func TestReplaceAtomicRenameFaultStrandsTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	write := func(hooks Hooks) error {
		return replaceAtomic(path, hooks, func(tmp *os.File) error { return hooks.write(tmp, "write", []byte("data")) })
	}
	err := write(Hooks{
		BeforeRename: func(op string) error { return fmt.Errorf("injected crash before rename") },
	})
	if err == nil {
		t.Fatal("injected rename fault unexpectedly succeeded")
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("target exists after failed rename: %v", serr)
	}
	if _, serr := os.Stat(path + ".tmp"); serr != nil {
		t.Fatalf("temp file not stranded (the crash signature): %v", serr)
	}
	if err := write(Hooks{}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "data" {
		t.Fatalf("read back %q, %v", got, err)
	}
}

// ReadFrame reads one frame from r, which may hold any number of bytes.
func ReadFrame(r io.Reader) ([]byte, error) { return readFrame(r, math.MaxInt64) }

// scanned is a journal read to its end, with every payload that read
// back intact, in file order.
type scanned struct {
	*ScanResult
	Frames [][]byte
}

// Scan reads every readable frame of the journal at path.
func Scan(path string) (*scanned, error) {
	s := &scanned{ScanResult: &ScanResult{}}
	err := s.visit(path, func(payload []byte) { s.Frames = append(s.Frames, payload) })
	return s, err
}
