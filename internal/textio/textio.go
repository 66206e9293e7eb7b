// Package textio provides the helpers the text loaders share: a reader
// that yields zero-copy line views from bounded reads (SPEF, liberty,
// .net), allocation-free field splitting, and the string view of a byte
// slice that lets a loader name things to the netlist builder without a
// string per token. Loaders that batch line views into sections for
// parallel parsing keep their backing chunks alive through the views, so
// no lifetime bookkeeping is needed beyond dropping them.
package textio

import (
	"bytes"
	"io"
	"unicode/utf8"
	"unsafe"
)

// View returns b's bytes as a string without copying them. The string is
// good only while the bytes are: hand it to code that reads it or copies
// what it keeps (the netlist builder, a map lookup), never to code that
// stores it, and not past the next read into b's buffer.
func View(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// LineReader yields '\n'-terminated line views from chunked reads,
// never materializing the whole input. The views alias chunk arrays and
// stay valid as long as the caller references them.
type LineReader struct {
	r   io.Reader
	buf []byte
	pos int
	n   int
	eof bool
}

const lineChunk = 1 << 20

// NewLineReader wraps r. Chunks are read on demand in 1MB units.
func NewLineReader(r io.Reader) *LineReader {
	return &LineReader{r: r}
}

// Next returns the next line without its terminator (one trailing '\r'
// stripped, matching bufio.ScanLines), or ok=false at end of input.
func (lr *LineReader) Next() ([]byte, bool, error) {
	var span []byte // accumulates a line that crosses chunk boundaries
	for {
		if lr.pos < lr.n {
			if i := bytes.IndexByte(lr.buf[lr.pos:lr.n], '\n'); i >= 0 {
				line := lr.buf[lr.pos : lr.pos+i]
				lr.pos += i + 1
				if span != nil {
					line = append(span, line...)
				}
				return trimCR(line), true, nil
			}
			span = append(span, lr.buf[lr.pos:lr.n]...)
			lr.pos = lr.n
		}
		if lr.eof {
			if len(span) > 0 {
				return trimCR(span), true, nil
			}
			return nil, false, nil
		}
		// Top up the current chunk in place (line views into its scanned
		// prefix stay valid); allocate a fresh one only when it is full.
		if lr.buf == nil || lr.n == len(lr.buf) {
			lr.buf = make([]byte, lineChunk)
			lr.pos, lr.n = 0, 0
		}
		for !lr.eof {
			m, err := lr.r.Read(lr.buf[lr.n:])
			lr.n += m
			if err == io.EOF {
				lr.eof = true
			} else if err != nil {
				return nil, false, err
			}
			if m > 0 {
				break
			}
		}
	}
}

func trimCR(line []byte) []byte {
	if len(line) > 0 && line[len(line)-1] == '\r' {
		return line[:len(line)-1]
	}
	return line
}

// FirstField returns the first whitespace-delimited token of a trimmed
// line (the whole line when it has a single token).
func FirstField(line []byte) []byte {
	for i, c := range line {
		if asciiSpace(c) {
			return line[:i]
		}
	}
	return line
}

// SplitFields is bytes.Fields into a reusable slice, in one pass over an
// ASCII line, with a fallback to full Unicode space handling when a
// non-ASCII byte appears.
func SplitFields(line []byte, dst [][]byte) [][]byte {
	base, st := len(dst), -1
	for i, c := range line {
		switch {
		case c >= utf8.RuneSelf:
			return append(dst[:base], bytes.Fields(line)...)
		case asciiSpace(c):
			if st >= 0 {
				dst, st = append(dst, line[st:i]), -1
			}
		case st < 0:
			st = i
		}
	}
	if st >= 0 {
		dst = append(dst, line[st:])
	}
	return dst
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f'
}
