package report

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/interval"
)

// The write path of the JSON export. WriteJSON and WriteDelayJSON walk the
// engine's result directly and append the indented text into reused
// buffers, so a 20 MB report costs one pass over the result instead of a
// pointer-per-float tree, its compact marshal, and an indented copy of that.
// An array of at least two chunks (chunkLen elements each) is encoded by
// GOMAXPROCS goroutines into a ring of two chunk buffers per goroutine,
// which the calling goroutine writes in order as they fill; anything
// smaller is appended into one bounded buffer flushed between records. The
// bytes are exactly what encoding/json's Encoder with SetIndent("", "  ")
// produces over BuildJSON/BuildDelayJSON, whichever path an array takes;
// AppendJSON and AppendDelayJSON are the same walk in compact mode, always
// serial, json.Marshal's bytes, for snad's replies. A reply to a session
// that re-analyzed a few nets re-encodes only those: AppendJSON may be
// handed the previous body with its Spans, where each net element lies in
// it and which version of the net's record it encodes, and copies every
// element whose record kept its version (core.Result.Versions) instead of
// encoding it again. The copy is the same bytes because an element's bytes
// are a function of its record alone. The schema types in json.go stay the
// specification (and the decode side); encode_test.go pins both modes and
// both paths on every fixture and by fuzzing the scalar rules, and
// versions_test.go holds the copied elements to a fresh encode.

// flushAt bounds the serial path's buffer: it is handed to the writer at
// the first record boundary past this size.
const flushAt = 32 << 10

// chunkLen is how many array elements one parallel work item encodes.
const chunkLen = 64

// encoder appends indented JSON when ws is 1, compact JSON (no writer,
// never spilling) when it is 0; ws scales the whitespace instead of
// branching on it, so the indented path costs no more than it did alone.
// first is true only directly after open, which is all the state the
// comma rule needs: closing a value makes its parent non-empty. err is the
// first failure (a write error or a float JSON cannot carry); once set,
// spill stops writing. A writing encoder with workers > 1 encodes arrays of
// at least two chunks of chunk elements in parallel (see parallel), reusing
// ring's buffers from one array to the next.
type encoder struct {
	w     io.Writer
	buf   []byte
	depth int
	first bool
	ws    int
	err   error

	workers, chunk int
	ring           []piece
}

const newlineIndent = "\n                                "

// newline starts a new line indented to the current depth, when indenting.
func (e *encoder) newline() {
	e.buf = append(e.buf, newlineIndent[:e.ws*(1+2*e.depth)]...)
}

// sep starts the next member or element: a comma unless it is the first,
// then a new line.
func (e *encoder) sep() {
	if !e.first {
		e.buf = append(e.buf, ',')
	}
	e.first = false
	e.newline()
}

// key starts an object member and returns e so the value chains onto it.
// Names are schema constants that need no escaping.
func (e *encoder) key(name string) *encoder {
	e.sep()
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, `": `...)
	e.buf = e.buf[:len(e.buf)-1+e.ws] // compact drops the space
	return e
}

func (e *encoder) open(c byte) {
	e.buf = append(e.buf, c)
	e.depth++
	e.first = true
}

func (e *encoder) close(c byte) {
	e.depth--
	if !e.first {
		e.newline()
	}
	e.first = false
	e.buf = append(e.buf, c)
}

func (e *encoder) null() { e.buf = append(e.buf, "null"...) }

func (e *encoder) int(v int) { e.buf = strconv.AppendInt(e.buf, int64(v), 10) }

func (e *encoder) bool(v bool) { e.buf = strconv.AppendBool(e.buf, v) }

// float applies encoding/json's number rule: the shortest 'f' form, or 'e'
// below 1e-6 and from 1e21 with a one-digit negative exponent unpadded.
// Like encoding/json it refuses NaN and ±Inf; nullable fields go through
// floatOrNull instead.
func (e *encoder) float(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("report: unsupported JSON value %v", v)
		}
		e.null()
		return
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, v, format, -1, 64)
	if n := len(e.buf); format == 'e' && n >= 4 && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
		e.buf[n-2] = e.buf[n-1]
		e.buf = e.buf[:n-1]
	}
}

// floatOrNull encodes the engine's "no meaningful value" sentinels (NaN
// instants, infinite window bounds) as null.
func (e *encoder) floatOrNull(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		e.null()
		return
	}
	e.float(v)
}

const hexDigits = "0123456789abcdef"

// str quotes s with encoding/json's HTML-safe escaping: control bytes,
// quote, backslash, <, > and & are escaped, invalid UTF-8 becomes \ufffd,
// and U+2028/U+2029 are escaped for JSONP's sake.
func (e *encoder) str(s string) {
	b := append(e.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b', '\t', '\n', '\f', '\r': // 8, 9, 10, 12, 13
				b = append(b, '\\', "btn.fr"[c-'\b'])
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	e.buf = append(b, '"')
}

// spill hands the buffer to the writer once it is past flushAt. A failed
// write is recorded in err, which stops every array loop.
func (e *encoder) spill() {
	if e.w != nil && e.err == nil && len(e.buf) >= flushAt {
		_, e.err = e.w.Write(e.buf)
		e.buf = e.buf[:0]
	}
}

// finish terminates the document the way json.Encoder does, with a newline,
// writes what is left, and returns the first error of the whole encode.
func (e *encoder) finish() error {
	if e.err == nil {
		_, e.err = e.w.Write(append(e.buf, '\n'))
	}
	return e.err
}

// array encodes a top-level slice member as one object per element, on
// the parallel path when the encoder has workers and the array at least two
// chunks; elem encodes element i's members into the encoder it is given,
// which is e or a worker's.
func (e *encoder) array(name string, n int, elem func(e *encoder, i int)) {
	if e.workers < 2 || n < 2*e.chunk {
		e.serialArray(name, n, elem)
		return
	}
	e.key(name).open('[')
	e.parallel(n, elem)
	e.close(']')
}

// serialArray is array on the calling goroutine, spilling after each
// element; an empty slice is null, as the schema's nil slices marshal. It
// stops at the first error instead of encoding on. Nested arrays use it
// directly: its elem does not escape, so their closures cost nothing.
func (e *encoder) serialArray(name string, n int, elem func(e *encoder, i int)) {
	if n == 0 {
		e.key(name).null()
		return
	}
	e.key(name).open('[')
	for i := 0; i < n && e.err == nil; i++ {
		e.element(i, elem)
		e.spill()
	}
	e.close(']')
}

func (e *encoder) element(i int, elem func(e *encoder, i int)) {
	e.sep()
	e.open('{')
	elem(e, i)
	e.close('}')
}

// piece is one chunk of a parallel array: its text, or why it stopped.
type piece struct {
	buf []byte
	err error
}

// parallel encodes the n elements of the array e has just opened, chunk by
// chunk, on e.workers goroutines, and writes the chunks in index order from
// the calling goroutine while later ones are still being encoded. A worker
// takes a free buffer from the ring before it takes the next chunk index:
// the other way round, the lowest unwritten chunk's worker could wait for a
// buffer that only later chunks, which wait to be written behind it, hold.
// So at most len(ring) chunks are taken and unwritten, and chunk c's slot
// ready[c%len(ring)] is always empty when it is sent. The first failure in
// document order — an encode error (a NaN) or a write error — ends the
// writing and stops the workers; none outlives the call.
func (e *encoder) parallel(n int, elem func(e *encoder, i int)) {
	if e.err != nil {
		return
	}
	if _, e.err = e.w.Write(e.buf); e.err != nil {
		return
	}
	e.buf = e.buf[:0]
	if e.ring == nil {
		e.ring = make([]piece, 2*e.workers)
	}
	chunks := (n + e.chunk - 1) / e.chunk
	free := make(chan *piece, len(e.ring))
	ready := make([]chan *piece, len(e.ring))
	for i := range e.ring {
		free <- &e.ring[i]
		ready[i] = make(chan *piece, 1)
	}
	stop := make(chan struct{})
	var next atomic.Int64
	var wg sync.WaitGroup
	for range e.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			we := &encoder{depth: e.depth, ws: e.ws}
			for {
				var p *piece
				select {
				case p = <-free:
				case <-stop:
					return
				}
				c := int(next.Add(1) - 1)
				if c >= chunks {
					return
				}
				we.buf, we.first, we.err = p.buf[:0], c == 0, nil
				for i := c * e.chunk; i < min(n, (c+1)*e.chunk) && we.err == nil; i++ {
					we.element(i, elem)
				}
				p.buf, p.err = we.buf, we.err
				ready[c%len(ready)] <- p
			}
		}()
	}
	for c := 0; c < chunks && e.err == nil; c++ {
		p := <-ready[c%len(ready)]
		if e.err = p.err; e.err == nil {
			_, e.err = e.w.Write(p.buf)
			free <- p
		}
	}
	close(stop)
	wg.Wait()
	e.first = false
}

func (e *encoder) strings(name string, ss []string) {
	if len(ss) == 0 {
		return // omitempty
	}
	e.key(name).open('[')
	for _, s := range ss {
		e.sep()
		e.str(s)
	}
	e.close(']')
}

func (e *encoder) window(w interval.Window) {
	if w.IsEmpty() {
		e.null()
		return
	}
	e.open('{')
	e.key("lo").floatOrNull(w.Lo)
	e.key("hi").floatOrNull(w.Hi)
	e.close('}')
}

func (e *encoder) combined(name string, c *core.Combined) {
	e.key(name).open('{')
	e.key("peakV").float(c.Peak)
	e.key("widthS").float(c.Width)
	e.key("atS").floatOrNull(c.At)
	e.key("window").window(c.Window)
	e.strings("members", c.Members)
	e.close('}')
}

func (e *encoder) events(name string, events []core.Event) {
	if len(events) == 0 {
		return // omitempty
	}
	e.serialArray(name, len(events), func(e *encoder, i int) {
		ev := &events[i]
		e.key("source").str(ev.Source)
		e.key("peakV").float(ev.Peak)
		e.key("widthS").float(ev.Width)
		e.key("window").window(ev.Window)
	})
}

func (e *encoder) degradations(diags []core.Diag) {
	if len(diags) == 0 {
		return // omitempty
	}
	e.array("degradations", len(diags), func(e *encoder, i int) {
		d := &diags[i]
		msg := ""
		if d.Err != nil {
			msg = d.Err.Error()
		}
		e.key("net").str(d.Net)
		e.key("stage").str(d.Stage)
		e.key("error").str(msg)
		e.key("degraded").bool(d.Degraded)
	})
}

func newEncoder(w io.Writer) *encoder {
	return &encoder{w: w, buf: make([]byte, 0, flushAt+flushAt/4), ws: 1, workers: runtime.GOMAXPROCS(0), chunk: chunkLen}
}

// WriteJSON serializes a full analysis result in the ResultJSON schema,
// nets sorted by name, encoding its long arrays on every CPU. It returns
// the first error in document order: a write error, or a value JSON cannot
// carry. Nothing is written after a failed write, the writer may then hold
// a truncated document, and no goroutine of the call outlives it.
func WriteJSON(w io.Writer, res *core.Result) error {
	return newEncoder(w).result(res, nil, nil).finish()
}

// WriteDelayJSON serializes a delta-delay result in the DelayResultJSON
// schema, with WriteJSON's error behaviour.
func WriteDelayJSON(w io.Writer, res *core.DelayResult) error {
	return newEncoder(w).delay(res).finish()
}

// AppendJSON appends json.Marshal(BuildJSON(res))'s bytes to dst, or fails
// where json.Marshal does. When spans is not nil it describes where the
// nets of an earlier call's encoding lie in prev, the body that call's
// output began; the nets of the same result whose records have not been
// written since are copied from there. Either way spans is then rewritten
// to describe this encoding, with offsets counted from dst's start, so it
// holds for any body that begins with the returned bytes; after a failure
// it describes nothing.
func AppendJSON(dst []byte, res *core.Result, prev []byte, spans *Spans) ([]byte, error) {
	e := (&encoder{buf: dst}).result(res, prev, spans)
	return e.buf, e.err
}

// AppendDelayJSON is AppendJSON for a delta-delay result.
func AppendDelayJSON(dst []byte, res *core.DelayResult) ([]byte, error) {
	e := (&encoder{buf: dst}).delay(res)
	return e.buf, e.err
}

// AppendString appends s as json.Marshal quotes it.
func AppendString(dst []byte, s string) []byte {
	e := &encoder{buf: dst}
	e.str(s)
	return e.buf
}

// AppendFloat appends v as json.Marshal writes it, refusing NaN and ±Inf.
func AppendFloat(dst []byte, v float64) ([]byte, error) {
	e := &encoder{buf: dst}
	e.float(v)
	return e.buf, e.err
}

// Spans is where a compact encoding put each net element, in ByName's
// order, and the version of the record it encodes, for AppendJSON to copy
// the unchanged ones into the next encoding. result is the encoded
// result's identity, 0 while the spans describe nothing. The zero value is
// ready to use.
type Spans struct {
	result uint64
	at     []span
}

// span is one net element's members, prev[lo:hi], and the version of the
// record they were encoded from.
type span struct {
	lo, hi int
	ver    uint64
}

// copying wraps the element encoder of the n nets of result id, whose
// record versions ver gives, for a compact and serial encode: an element
// whose span in prev encodes the version its record still has is copied,
// any other is encoded, and either way its span is rewritten. Until the
// caller marks the encode complete, s describes nothing.
func (s *Spans) copying(id uint64, n int, ver func(i int) uint64, prev []byte, elem func(e *encoder, i int)) func(e *encoder, i int) {
	same := id != 0 && s.result == id && len(s.at) == n
	s.result = 0
	if !same {
		s.at = slices.Grow(s.at[:0], n)[:n]
	}
	return func(e *encoder, i int) {
		sp, v := &s.at[i], ver(i)
		lo := len(e.buf)
		if same && v != 0 && sp.ver == v && sp.hi <= len(prev) {
			e.buf = append(e.buf, prev[sp.lo:sp.hi]...)
			e.first = false
		} else {
			elem(e, i)
		}
		*sp = span{lo: lo, hi: len(e.buf), ver: v}
	}
}

func (e *encoder) result(res *core.Result, prev []byte, spans *Spans) *encoder {
	e.open('{')
	e.key("mode").str(res.Mode.String())
	e.key("stats").open('{')
	st := res.Stats // untagged in the schema: Go field names
	e.key("Victims").int(st.Victims)
	e.key("AggressorPairs").int(st.AggressorPairs)
	e.key("Filtered").int(st.Filtered)
	e.key("Propagated").int(st.Propagated)
	e.key("Iterations").int(st.Iterations)
	e.key("Converged").bool(st.Converged)
	e.key("DegradedNets").int(st.DegradedNets)
	e.close('}')
	e.array("violations", len(res.Violations), func(e *encoder, i int) {
		v := &res.Violations[i]
		e.key("net").str(v.Net)
		e.key("receiver").str(v.Receiver)
		e.key("state").str(v.Kind.String())
		e.key("peakV").float(v.Peak)
		e.key("limitV").float(v.Limit)
		e.key("slackV").float(v.Slack)
		e.key("atS").floatOrNull(v.At)
		e.strings("members", v.Members)
	})
	e.degradations(res.Diags)
	n, at := res.ByName()
	nets := func(e *encoder, i int) {
		nn := at(i)
		e.key("net").str(nn.Net)
		e.combined("low", &nn.Comb[core.KindLow])
		e.combined("high", &nn.Comb[core.KindHigh])
		// Events only for nets with any noise, to keep exports of big
		// clean designs small.
		if nn.WorstPeak() > 0 {
			e.events("lowEvents", nn.Events[core.KindLow])
			e.events("highEvents", nn.Events[core.KindHigh])
		}
	}
	if spans == nil {
		e.array("nets", n, nets)
	} else {
		id, ver := res.Versions()
		e.array("nets", n, spans.copying(id, n, ver, prev, nets))
		if e.err == nil {
			spans.result = id
		}
	}
	e.close('}')
	return e
}

func (e *encoder) delay(res *core.DelayResult) *encoder {
	e.open('{')
	e.key("mode").str(res.Mode.String())
	e.array("impacts", len(res.Impacts), func(e *encoder, i int) {
		im := &res.Impacts[i]
		edge := "fall"
		if im.Rise {
			edge = "rise"
		}
		e.key("net").str(im.Net)
		e.key("edge").str(edge)
		if !im.VictimWindow.IsEmpty() { // omitempty
			e.key("victimWindow").open('[')
			for i := 0; i < im.VictimWindow.Len(); i++ {
				e.sep()
				e.window(im.VictimWindow.At(i))
			}
			e.close(']')
		}
		e.key("noisePeakV").float(im.NoisePeak)
		e.key("deltaS").float(im.Delta)
		e.key("atS").floatOrNull(im.At)
		e.strings("members", im.Members)
	})
	e.degradations(res.Diags)
	e.close('}')
	return e
}
