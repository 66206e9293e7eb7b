package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/report"
)

// Log is a journaled log: one append-only file of sequenced, time-stamped
// records that an owner folds into its in-memory state. The owner brings
// a record schema, an apply function and a snapshot emitter; replay,
// sequence numbers, quarantine, tail repair, durable appends and
// compaction are done here, once (OpenLog, Append, Rewrite). Corrupt
// content never fails an open; only a file that cannot be read,
// truncated or opened for append does.
//
// Every frame's payload is a 16-byte envelope — sequence number, then
// Unix nanoseconds, both little-endian — followed by the owner's bytes.
// A frame with no owner bytes is the marker a rewrite ends on: what
// precedes it is the base the next rewrite is measured against.
//
// A Log is not safe for concurrent use; its owner calls it under the
// lock that guards the state the log persists.
type Log struct {
	path   string
	source string
	hooks  Hooks
	logf   func(format string, args ...any)

	// w is nil once closed, or when the file a rewrite left behind could
	// not be reopened.
	w   *Writer
	seq uint64
	// base is the bytes the last rewrite produced and grown the bytes
	// appended since; dirty records that replay left something only a
	// rewrite clears (a quarantined record still in the file, a repaired
	// tail).
	base, grown int64
	dirty       bool
	// quarantined numbers quarantine files within this process; names are
	// claimed with O_EXCL, so evidence from earlier boots is never
	// overwritten.
	quarantined int
	// failed latches the first failed append or rewrite; atomic because
	// health probes read it without the owner's lock.
	failed atomic.Bool
}

const (
	envelopeLen = 16
	// minRewrite keeps a small journal from being rewritten on every few
	// appends; replaying this much is milliseconds.
	minRewrite = 1 << 20
)

// Replay summarizes what opening a Log found.
type Replay struct {
	// Records counts the records the owner applied.
	Records int
	// TornTail reports the file ended in a partial frame — a crash
	// mid-append; the partial frame was dropped.
	TornTail bool
	// Quarantined lists what could not be replayed and was preserved under
	// quarantine/ instead; File is relative to the journal's directory.
	Quarantined []report.QuarantineJSON
}

// OpenLog replays the journal at path (a missing file is an empty one)
// through apply, repairs its tail and opens it for appending. source
// names the journal in quarantine file names, sidecars and log lines.
// apply receives each intact, in-sequence record's payload and append
// time in file order; an error from it quarantines that record with a
// reason sidecar and replay goes on. A corrupt tail is preserved in
// quarantine, a torn one (the crash signature) is dropped, and the file
// is truncated to its last intact frame before the writer opens, so
// nothing is ever appended after an unreadable frame.
func OpenLog(path, source string, hooks Hooks, logf func(string, ...any), apply func(payload []byte, at time.Time) error) (*Log, *Replay, error) {
	l := &Log{path: path, source: source, hooks: hooks, logf: logf}
	if err := os.MkdirAll(filepath.Join(filepath.Dir(path), "quarantine"), 0o755); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", source, err)
	}
	// A rewrite that died before its rename left only this behind; the
	// journal it was replacing is whole. Absent is the normal case.
	_ = os.Remove(path + ".tmp")

	rep := &Replay{}
	var scan ScanResult
	err := scan.visit(path, func(frame []byte) {
		bad := func(seq uint64, reason string) {
			rep.Quarantined = append(rep.Quarantined, l.Quarantine(".rec", bytes.NewReader(frame), report.QuarantineJSON{Seq: seq, Reason: reason}))
		}
		if len(frame) < envelopeLen {
			bad(0, fmt.Sprintf("record of %d bytes is shorter than its envelope", len(frame)))
			return
		}
		seq := binary.LittleEndian.Uint64(frame)
		if seq <= l.seq {
			bad(seq, fmt.Sprintf("out-of-order record: seq %d after %d", seq, l.seq))
			return
		}
		l.seq = seq
		if len(frame) == envelopeLen {
			l.base, l.grown = scan.GoodOffset, 0
			return
		}
		l.grown += int64(FrameHeaderLen + len(frame))
		at := time.Unix(0, int64(binary.LittleEndian.Uint64(frame[8:]))).UTC()
		if err := apply(frame[envelopeLen:], at); err != nil {
			bad(seq, err.Error())
			return
		}
		rep.Records++
	})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: scanning journal: %w", source, err)
	}
	switch {
	case scan.Corrupt != "":
		rep.Quarantined = append(rep.Quarantined, l.quarantineTail(scan.GoodOffset, scan.Corrupt))
	case scan.Torn:
		rep.TornTail = true
		logf("%s: journal ends in a torn frame at offset %d (crash mid-append); dropped", source, scan.GoodOffset)
	}
	l.dirty = rep.TornTail || len(rep.Quarantined) > 0

	w, err := OpenWriter(path, hooks)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: opening journal: %w", source, err)
	}
	if w.off > scan.GoodOffset {
		w.off = scan.GoodOffset
		if w.repairTail(); w.broken != nil {
			w.Close()
			return nil, nil, fmt.Errorf("%s: truncating journal tail: %w", source, w.broken)
		}
	}
	if w.off == 0 {
		// Possibly just created: make the directory entry durable before
		// the first acknowledged append depends on it.
		if err := SyncDir(filepath.Dir(path)); err != nil {
			w.Close()
			return nil, nil, fmt.Errorf("%s: %w", source, err)
		}
	}
	l.w = w
	return l, rep, nil
}

// frameRecord builds one whole frame — header, envelope, payload — in a
// single buffer.
func frameRecord(seq uint64, at time.Time, payload []byte) []byte {
	buf := make([]byte, FrameHeaderLen+envelopeLen+len(payload))
	body := buf[FrameHeaderLen:]
	binary.LittleEndian.PutUint64(body, seq)
	binary.LittleEndian.PutUint64(body[8:], uint64(at.UnixNano()))
	copy(body[envelopeLen:], payload)
	binary.LittleEndian.PutUint32(buf, uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(body))
	return buf
}

// Append makes one record durable: when it returns nil the record is
// framed, written and fsynced, and a replay will apply it. The owner
// applies the record's effect to its state only after that, so a failed
// append leaves memory matching the file. Sequence numbers are not
// reused: replay treats a repeat as corruption, so a failed append's
// number stays burned.
func (l *Log) Append(payload []byte) error {
	if l.w == nil {
		return errors.New("journal is closed")
	}
	if len(payload) == 0 {
		return errors.New("journal record has no payload")
	}
	l.seq++
	buf := frameRecord(l.seq, time.Now(), payload)
	if err := l.w.appendFrame(buf); err != nil {
		l.failed.Store(true)
		return err
	}
	l.grown += int64(len(buf))
	return nil
}

// Degraded reports whether any append or rewrite has failed since the
// log was opened: the disk under it needs an operator's look even if
// later writes succeeded. Safe to call concurrently with the owner.
func (l *Log) Degraded() bool { return l.failed.Load() }

// Due reports whether the journal should be rewritten: the bytes
// appended since the last rewrite exceed the bytes that rewrite produced
// (so write amplification stays under 2x whatever the record sizes), or
// replay left something behind that only a rewrite clears.
func (l *Log) Due() bool { return l.dirty || l.grown > max(l.base, minRewrite) }

// Rewrite replaces the journal with the records snapshot emits, one at a
// time — only the record being written is in memory. On success the new
// file and a new sequence space are live. On failure nothing is lost:
// the journal is whichever whole file the rename left at its path, and
// appends continue in the old sequence space, which is past every number
// in either file.
func (l *Log) Rewrite(snapshot func(emit func(payload []byte) error) error) error {
	if l.w == nil {
		return errors.New("journal is closed")
	}
	var seq uint64
	var size int64
	now := time.Now()
	err := replaceAtomic(l.path, l.hooks, func(tmp *os.File) error {
		write := func(payload []byte) error {
			seq++
			buf := frameRecord(seq, now, payload)
			size += int64(len(buf))
			return l.hooks.write(tmp, "write", buf)
		}
		if err := snapshot(write); err != nil {
			return err
		}
		return write(nil) // the end marker
	})

	// Reopen by path either way: a commit can fail after its rename (the
	// directory fsync), and appending to the unlinked old file would lose
	// every later record.
	old := l.w
	old.Close()
	l.w = nil
	w, werr := OpenWriter(l.path, l.hooks)
	if werr != nil {
		l.failed.Store(true)
		return fmt.Errorf("reopening journal after rewrite: %w", errors.Join(err, werr))
	}
	l.w = w
	if err != nil {
		l.failed.Store(true)
		w.broken = old.broken
		return fmt.Errorf("rewriting journal: %w", err)
	}
	l.seq, l.base, l.grown, l.dirty = seq, size, 0, false
	return nil
}

// Close releases the journal file (appends are already fsynced).
func (l *Log) Close() error {
	if l.w == nil {
		return nil
	}
	err := l.w.Close()
	l.w = nil
	return err
}

// Quarantine preserves body in a new file under quarantine/ beside a
// .reason.json sidecar holding q, and returns q with File and Source
// filled in. Failures are logged, not returned: quarantine is evidence,
// and losing it must not stop a boot.
func (l *Log) Quarantine(ext string, body io.Reader, q report.QuarantineJSON) report.QuarantineJSON {
	q.Source = l.source
	var f *os.File
	var err error
	for {
		l.quarantined++
		q.File = filepath.Join("quarantine", fmt.Sprintf("%s-%06d%s", l.source, l.quarantined, ext))
		f, err = os.OpenFile(filepath.Join(filepath.Dir(l.path), q.File), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if !errors.Is(err, os.ErrExist) {
			break
		}
	}
	l.logf("%s: QUARANTINED %s: %s", l.source, q.File, q.Reason)
	if err == nil {
		_, err = io.Copy(f, body)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		var meta []byte
		if meta, err = json.Marshal(q); err == nil {
			err = os.WriteFile(f.Name()+".reason.json", meta, 0o644)
		}
	}
	if err != nil {
		l.logf("%s: writing quarantine file %s: %v", l.source, q.File, err)
	}
	return q
}

// quarantineTail preserves the unreadable bytes past off before the
// journal is truncated under them.
func (l *Log) quarantineTail(off int64, reason string) report.QuarantineJSON {
	q := report.QuarantineJSON{Reason: fmt.Sprintf("unreadable journal tail at offset %d: %s", off, reason)}
	f, err := os.Open(l.path)
	if err != nil {
		l.logf("%s: reading corrupt tail: %v", l.source, err)
		return l.Quarantine(".tail", bytes.NewReader(nil), q)
	}
	defer f.Close()
	return l.Quarantine(".tail", io.NewSectionReader(f, off, 1<<62), q)
}
