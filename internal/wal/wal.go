// Package wal is the write-ahead-log machinery of snad's durable
// subsystems, in two layers. This file is the framing layer: CRC-framed
// fsynced appends, torn-tail repair, fail-soft scans, and the
// temp+fsync+rename+dirsync atomic-replace discipline. log.go builds the
// journaled log on it — replay, sequence numbers, quarantine, tail
// repair and compaction — which the session store (internal/server) and
// the job journal (internal/jobs) both own one of, so neither carries a
// recovery implementation of its own.
//
// A journal is an append-only sequence of framed payloads. Every frame
// is
//
//	[4 bytes little-endian payload length][4 bytes IEEE CRC32 of payload][payload]
//
// so a reader can detect exactly where a crash mid-append (torn write)
// or later corruption (bit rot, truncation) left the file: a frame
// whose header or payload runs past EOF is a torn tail, and a frame
// whose CRC does not match is corruption. The distinction matters for
// recovery policy — a torn tail is the expected signature of a crash
// and is silently discarded after replaying everything before it, while
// a CRC mismatch in the middle of the file is quarantined with a
// reason.
//
// Payloads are owner-defined (both Log owners use JSON record objects —
// a few bytes over a binary encoding, but on-disk journals stay
// inspectable with nothing but strings(1), worth it at lifecycle-event
// rates).
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

const (
	// FrameHeaderLen is the fixed per-frame overhead.
	FrameHeaderLen = 8
	// MaxFramePayload bounds one record. Session create payloads carry
	// whole design databases inline, so the bound is generous; its real
	// job is rejecting the absurd lengths a corrupted header decodes to
	// before a reader tries to allocate them.
	MaxFramePayload = 1 << 30
)

// Frame wraps a payload in the length+CRC header.
func Frame(payload []byte) []byte {
	buf := make([]byte, FrameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[FrameHeaderLen:], payload)
	return buf
}

// FrameError classifies why reading a frame failed.
type FrameError struct {
	// Torn reports the read ran past EOF: a crash mid-append.
	Torn   bool
	Reason string
}

func (e *FrameError) Error() string { return e.Reason }

// readFrame reads one frame from r, known to hold left more bytes. io.EOF
// means a clean end exactly at a frame boundary; a *FrameError reports a
// torn tail or corruption. A frame that claims more than left is a torn
// tail, decided before anything is allocated for it — one flipped bit in a
// length field must not cost a budgeted server a gigabyte at boot.
func readFrame(r io.Reader, left int64) ([]byte, error) {
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, &FrameError{Torn: true, Reason: fmt.Sprintf("torn frame header: %v", err)}
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > MaxFramePayload {
		return nil, &FrameError{Reason: fmt.Sprintf("frame length %d exceeds limit %d (corrupt header)", n, MaxFramePayload)}
	}
	if int64(n) > left-FrameHeaderLen {
		return nil, &FrameError{Torn: true, Reason: fmt.Sprintf("torn frame payload (%d bytes claimed, %d left)", n, left-FrameHeaderLen)}
	}
	payload := make([]byte, n)
	if m, err := io.ReadFull(r, payload); err != nil {
		return nil, &FrameError{Torn: true, Reason: fmt.Sprintf("torn frame payload (%d of %d bytes): %v", m, n, err)}
	}
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, &FrameError{Reason: fmt.Sprintf("frame CRC mismatch: stored %08x, computed %08x", want, got)}
	}
	return payload, nil
}

// Hooks is the write-path fault-injection seam. Only tests set it (the
// chaos package's StoreFaults supplies all three); production journals
// leave it zero.
type Hooks struct {
	// BeforeWrite may truncate the write to its returned length (torn
	// write) and/or fail it. op is "append" or "write".
	BeforeWrite func(op string, size int) (int, error)
	// BeforeSync may fail the fsync that follows a write.
	BeforeSync func(op string) error
	// BeforeRename may fail between an atomic write's temp file and its
	// rename, stranding the temp file exactly as a crash would.
	BeforeRename func(op string) error
}

// Writer appends framed payloads to an open journal file, fsyncing each
// append so an acknowledged record survives a crash. It tracks the end
// offset of the last good frame: a failed append (torn write, fsync
// error) leaves a partial frame at the tail, and appending after one
// would hide every later record from replay — which stops at the first
// unreadable frame — so the writer truncates back to the good offset
// before the next append. If even the truncate fails, the journal is
// broken and refuses all further appends rather than acknowledging
// records a replay would never see.
type Writer struct {
	f     *os.File
	hooks Hooks
	// off is the file offset after the last fully synced frame.
	off int64
	// broken refuses appends after an unrepairable tail.
	broken error
}

// OpenWriter opens (creating if needed) the journal at path for
// appending.
func OpenWriter(path string, hooks Hooks) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{f: f, hooks: hooks, off: fi.Size()}, nil
}

// Append frames, writes, and fsyncs one payload. On failure the partial
// frame is truncated away so the tail stays replayable; the caller
// surfaces the error and the record is never acknowledged.
func (j *Writer) Append(payload []byte) error { return j.appendFrame(Frame(payload)) }

// appendFrame is Append for a caller that built the frame itself (the
// Log frames its envelope and the owner's payload in one buffer).
func (j *Writer) appendFrame(buf []byte) error {
	if j.broken != nil {
		return fmt.Errorf("journal is broken (previous append left an unrepairable tail: %w)", j.broken)
	}
	if err := j.writeFrame(buf); err != nil {
		j.repairTail()
		return err
	}
	j.off += int64(len(buf))
	return nil
}

func (j *Writer) writeFrame(buf []byte) error {
	if err := j.hooks.write(j.f, "append", buf); err != nil {
		return fmt.Errorf("appending journal record: %w", err)
	}
	if j.hooks.BeforeSync != nil {
		if err := j.hooks.BeforeSync("append"); err != nil {
			return fmt.Errorf("syncing journal: %w", err)
		}
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("syncing journal: %w", err)
	}
	return nil
}

// write writes buf to f through the BeforeWrite hook, which may cut the
// write short (a torn write lands its prefix) and/or fail it.
func (h Hooks) write(f *os.File, op string, buf []byte) error {
	keep := len(buf)
	var ferr error
	if h.BeforeWrite != nil {
		keep, ferr = h.BeforeWrite(op, len(buf))
		keep = min(keep, len(buf))
	}
	if keep > 0 {
		if _, err := f.Write(buf[:keep]); err != nil {
			return err
		}
	}
	return ferr
}

// repairTail truncates a failed append's partial frame so later records
// stay reachable by replay.
func (j *Writer) repairTail() {
	if err := j.f.Truncate(j.off); err != nil {
		j.broken = err
		return
	}
	// Make the truncate durable; an unsynced truncate could resurrect the
	// partial frame after a crash, but everything before off is still
	// intact, so replay would at worst rediscover the torn tail.
	j.f.Sync()
}

// Close releases the journal file (appends are already fsynced).
func (j *Writer) Close() error { return j.f.Close() }

// ScanResult is the result of reading one journal file to its end (or
// to the first unreadable byte).
type ScanResult struct {
	// Torn reports the file ended in a partial frame (crash mid-append).
	Torn bool
	// Corrupt is the frame-level reason reading stopped before EOF for a
	// non-torn cause (CRC mismatch, absurd length); empty otherwise.
	Corrupt string
	// GoodOffset is the file offset after the last intact frame —
	// truncating to it removes a torn or corrupt tail without losing any
	// readable record.
	GoodOffset int64
}

// visit reads every readable frame of the journal at path, handing each
// intact payload to fn, so a caller that folds frames into state holds
// one at a time. A missing file is an empty journal. Reading never fails
// the caller's boot: every abnormality is reported in scan for the
// recovery layer to quarantine; the returned error is reserved for the
// file being unopenable. The file's size bounds every frame length
// before its payload is allocated.
func (scan *ScanResult) visit(path string, fn func(payload []byte)) error {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	r := bufio.NewReaderSize(f, 64<<10)
	for {
		payload, err := readFrame(r, fi.Size()-scan.GoodOffset)
		if err != nil {
			var fe *FrameError
			switch {
			case errors.Is(err, io.EOF):
			case errors.As(err, &fe) && fe.Torn:
				scan.Torn = true
			default:
				scan.Corrupt = err.Error()
			}
			return nil
		}
		scan.GoodOffset += int64(FrameHeaderLen + len(payload))
		fn(payload)
	}
}

// replaceAtomic lands what fill writes to the temp file, in as many pieces
// as it has (through hooks.write), at path through the
// temp+fsync+rename+dirsync discipline, with the fault hooks at each
// stage. A crash at any instant leaves either the old file or the new
// one, never a hybrid; a failure at any stage leaves the temp file where a
// crash would, and the next attempt overwrites it.
func replaceAtomic(path string, hooks Hooks, fill func(tmp *os.File) error) error {
	f, err := os.OpenFile(path+".tmp", os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	if hooks.BeforeSync != nil {
		if err := hooks.BeforeSync("write"); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if hooks.BeforeRename != nil {
		if err := hooks.BeforeRename("write"); err != nil {
			return err
		}
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory so a rename or unlink inside it is
// durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
