// Package vlog reads and writes the structural gate-level Verilog subset
// that synthesis netlists use — one module of cell instances with named
// port connections:
//
//	module top (a, b, y);
//	  input a, b;
//	  output y;
//	  wire n1;
//	  NAND2_X1 u0 (.A(a), .B(b), .Y(n1));
//	  INV_X1   u1 (.A(n1), .Y(y));
//	endmodule
//
// Pin directions come from the cell library, so Parse takes the
// liberty.Library the netlist is implemented in. Unsupported Verilog
// (behavioral code, buses/vectors, parameters, assigns, multiple modules)
// is rejected with a positioned error rather than misread.
//
// The reader is one streaming pass: a scanner turns a bounded read window
// into tokens (views of the window, never copied) and the parser hands
// each name straight to the netlist builder, which hashes it once and
// copies it if it is new. Nothing is kept per token or per statement, so
// a 30 000-name port list costs what its names cost.
package vlog

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/textio"
)

// Parse reads one structural module against the given library.
func Parse(r io.Reader, lib *liberty.Library) (*netlist.Design, error) {
	p := &parser{lib: lib, sc: scanner{r: r, buf: make([]byte, 64<<10), line: 1, tokLine: 1}}
	err := p.module()
	// Verilog is tokenized before it is parsed: a lexical error anywhere
	// in the input, after endmodule too, comes before any parse error.
	for p.sc.next() != nil {
	}
	if p.sc.err != nil {
		return nil, p.sc.err
	}
	if err != nil {
		return nil, err
	}
	p.d.Compact()
	return p.d, nil
}

// --- scanning ----------------------------------------------------------

// scanner yields the tokens of the input: identifiers, the single
// characters "(),;.", and escaped names with the backslash stripped.
// Comments and white space are skipped.
type scanner struct {
	r       io.Reader
	buf     []byte // the read window; buf[pos:n] is unread
	pos, n  int
	line    int // line of buf[pos]
	tokLine int // line of the last token returned, 1 before the first
	eof     bool
	err     error // the first lexical or read error; no token follows it
}

// Byte classes. A byte of 0x80 and up starts a rune that may be a Unicode
// space and is decoded; every other byte decides by itself.
const (
	cIdent = iota
	cSpace
	cNewline
	cPunct
	cSlash
	cEscape
	cRune
)

var class = func() (t [256]uint8) {
	for _, c := range " \t\r\v\f" {
		t[c] = cSpace
	}
	for _, c := range "(),;." {
		t[c] = cPunct
	}
	t['\n'], t['/'], t['\\'] = cNewline, cSlash, cEscape
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = cRune
	}
	return t
}()

// fill reads more input behind the unread bytes, which it first moves to
// the front of the window: views of earlier tokens die here, and so does
// any slice of the window a caller holds. A window that one token fills
// is doubled. It reports whether bytes arrived.
func (s *scanner) fill() bool {
	if s.eof || s.err != nil {
		return false
	}
	if s.pos > 0 {
		s.n = copy(s.buf, s.buf[s.pos:s.n])
		s.pos = 0
	} else if s.n == len(s.buf) {
		s.buf = append(s.buf, make([]byte, len(s.buf))...)
	}
	for {
		m, err := s.r.Read(s.buf[s.n:])
		s.n += m
		if err == io.EOF {
			s.eof = true
		} else if err != nil {
			s.err = fmt.Errorf("vlog: %w", err)
			return false
		}
		if m > 0 || s.eof {
			return m > 0
		}
	}
}

// runeAt decodes the rune i bytes past the cursor, reading more input if
// the window ends before or inside it. The size is 0 at end of input and
// after a read error.
func (s *scanner) runeAt(i int) (rune, int) {
	for {
		w := s.buf[s.pos+i : s.n]
		if len(w) > 0 && (w[0] < utf8.RuneSelf || utf8.FullRune(w) || s.eof) {
			return utf8.DecodeRune(w)
		}
		if !s.fill() && (s.err != nil || s.pos+i == s.n) {
			return 0, 0
		}
	}
}

// next returns the next token, a view of the window that is good until
// the following call, or nil at end of input and after an error.
func (s *scanner) next() []byte {
	for s.err == nil && (s.pos < s.n || s.fill()) {
		var tok []byte
		switch class[s.buf[s.pos]] {
		case cNewline:
			s.line++
			s.pos++
		case cSpace:
			s.pos++
		case cPunct:
			s.pos++
			tok = s.buf[s.pos-1 : s.pos]
		case cSlash:
			s.comment()
		case cEscape:
			tok = s.escaped()
		default:
			tok = s.ident()
		}
		if tok != nil {
			s.tokLine = s.line
			return tok
		}
	}
	return nil
}

// comment skips the comment at the cursor. A '/' that opens none and a
// block comment that never closes are errors.
func (s *scanner) comment() {
	switch c, _ := s.runeAt(1); {
	case s.err != nil:
	case c == '/':
		for {
			if k := bytes.IndexByte(s.buf[s.pos:s.n], '\n'); k >= 0 {
				s.pos += k // the newline itself is next's to count
				return
			}
			if s.pos = s.n; !s.fill() {
				return
			}
		}
	case c == '*':
		s.pos += 2
		for star := false; ; {
			for s.pos < s.n {
				c := s.buf[s.pos]
				s.pos++
				if c == '\n' {
					s.line++
				} else if c == '/' && star {
					return
				}
				star = c == '*'
			}
			if !s.fill() {
				if s.err == nil {
					s.err = fmt.Errorf("vlog: line %d: unterminated block comment", s.line)
				}
				return
			}
		}
	default:
		s.err = fmt.Errorf("vlog: line %d: stray '/'", s.line)
	}
}

// ident returns the identifier at the cursor: everything up to white
// space, punctuation, '/' or '\\'. A non-ASCII space rune is no
// identifier: ident skips it and returns nil.
func (s *scanner) ident() []byte {
	for i := 0; ; {
		w := s.buf[s.pos:s.n]
		for i < len(w) && class[w[i]] == cIdent {
			i++
		}
		size := 0
		if i == len(w) || class[w[i]] == cRune { // else an ASCII byte ends the name
			var r rune
			r, size = s.runeAt(i)
			if size > 0 && (r < utf8.RuneSelf && class[r] == cIdent || r >= utf8.RuneSelf && !unicode.IsSpace(r)) {
				i += size
				continue
			}
		}
		if i == 0 {
			s.pos += size
			return nil
		}
		s.pos += i
		return s.buf[s.pos-i : s.pos]
	}
}

// escaped returns the escaped identifier at the cursor: the runes after
// the backslash up to white space, which it consumes. An empty one is no
// token. A newline that ends the name is counted before the token's line
// is taken, as the reference tokenizer does.
func (s *scanner) escaped() []byte {
	for i := 1; ; {
		r, size := s.runeAt(i)
		if size > 0 && !unicode.IsSpace(r) {
			i += size
			continue
		}
		if size > 0 && r == '\n' {
			s.line++
		}
		name := s.buf[s.pos+1 : s.pos+i]
		s.pos += i + size
		if len(name) == 0 {
			return nil
		}
		return name
	}
}

// --- parsing -----------------------------------------------------------

type parser struct {
	sc  scanner
	lib *liberty.Library
	d   *netlist.Design

	// net is the net name of the connection being read, copied because
	// the ")" after it is read before the connection is made.
	net []byte
	// cell and pins are the previous instance's cell and the pins its
	// connections named, in order: netlists repeat one cell, pins in one
	// order, for lines on end, and a match skips the library's maps.
	cell *liberty.Cell
	pins []*liberty.Pin
}

func errorf(line int, format string, args ...any) error {
	return fmt.Errorf("vlog: line %d: "+format, append([]any{line}, args...)...)
}

func (p *parser) next() ([]byte, error) {
	if t := p.sc.next(); t != nil {
		return t, nil
	}
	return nil, errorf(p.sc.tokLine, "unexpected end of input")
}

func (p *parser) expect(text string) error {
	t, err := p.next()
	if err == nil && string(t) != text {
		err = errorf(p.sc.tokLine, "expected %q, found %q", text, t)
	}
	return err
}

// module consumes "module NAME ( ports ) ; statements endmodule".
func (p *parser) module() error {
	if err := p.expect("module"); err != nil {
		return err
	}
	name, err := p.next()
	if err != nil {
		return err
	}
	p.d = netlist.New(string(name))
	if err := p.expect("("); err != nil {
		return err
	}
	// The header's port names, each must have been declared by the time
	// endmodule is read. A space ends each: no token contains one.
	var header []byte
	for {
		t, err := p.next()
		if err != nil {
			return err
		}
		if string(t) == ")" {
			break
		}
		if string(t) != "," {
			header = append(append(header, t...), ' ')
		}
	}
	if err := p.expect(";"); err != nil {
		return err
	}
	for {
		t := p.sc.next()
		if t == nil {
			return errorf(p.sc.tokLine, "missing endmodule")
		}
		switch string(t) {
		case "endmodule":
			for len(header) > 0 {
				end := bytes.IndexByte(header, ' ')
				if p.d.FindPort(textio.View(header[:end])) < 0 {
					return errorf(p.sc.tokLine, "port %q in header but never declared", header[:end])
				}
				header = header[end+1:]
			}
			return nil
		case "input":
			err = p.names(func(name string) error { _, err := p.d.AddPort(name, netlist.In); return err })
		case "output":
			err = p.names(func(name string) error { _, err := p.d.AddPort(name, netlist.Out); return err })
		case "wire":
			err = p.names(func(name string) error { p.d.Net(name); return nil })
		default:
			err = p.instance(t)
		}
		if err != nil {
			return err
		}
	}
}

// names consumes "a, b, c ;" and declares each name. The whole list is
// read before a failed declaration is reported, so a syntax error later
// in the statement comes first.
func (p *parser) names(declare func(name string) error) error {
	line := p.sc.tokLine
	var failed error
	for {
		t, err := p.next()
		if err != nil {
			return err
		}
		switch string(t) {
		case ";":
			return failed
		case ",":
		case "(", ")", ".":
			return errorf(p.sc.tokLine, "unexpected %q in declaration", t)
		default:
			if failed == nil {
				if err := declare(textio.View(t)); err != nil {
					failed = errorf(line, "%w", err)
				}
			}
		}
	}
}

// instance consumes "CELL name ( .PIN(net), ... ) ;" after its first token.
func (p *parser) instance(cellTok []byte) error {
	if p.cell == nil || p.cell.Name != string(cellTok) {
		p.cell, p.pins = p.lib.Cell(textio.View(cellTok)), p.pins[:0]
		if p.cell == nil {
			return errorf(p.sc.tokLine, "unknown cell %q (behavioral Verilog is not supported)", cellTok)
		}
	}
	name, err := p.next()
	if err != nil {
		return err
	}
	inst, err := p.d.AddInst(textio.View(name), p.cell.Name)
	if err != nil {
		return errorf(p.sc.tokLine, "%w", err)
	}
	if err := p.expect("("); err != nil {
		return err
	}
	for k := 0; ; {
		t, err := p.next()
		if err != nil {
			return err
		}
		if string(t) == ")" {
			break
		}
		if string(t) == "," {
			continue
		}
		if string(t) != "." {
			return errorf(p.sc.tokLine, "positional connections are not supported (found %q)", t)
		}
		if t, err = p.next(); err != nil {
			return err
		}
		if k == len(p.pins) || p.pins[k].Name != string(t) {
			pin := p.cell.Pin(textio.View(t))
			if pin == nil {
				return errorf(p.sc.tokLine, "cell %s has no pin %q", p.cell.Name, t)
			}
			p.pins = append(p.pins[:k], pin)
		}
		pin := p.pins[k]
		k++
		if err := p.expect("("); err != nil {
			return err
		}
		if t, err = p.next(); err != nil {
			return err
		}
		p.net = append(p.net[:0], t...)
		line := p.sc.tokLine
		if err := p.expect(")"); err != nil {
			return err
		}
		dir := netlist.In
		if pin.Dir == liberty.Output {
			dir = netlist.Out
		}
		if err := p.d.ConnectPin(inst, pin.Name, textio.View(p.net), dir); err != nil {
			return errorf(line, "%w", err)
		}
	}
	return p.expect(";")
}

// Write renders the design as one structural module.
func Write(w io.Writer, d *netlist.Design) error {
	bw := bufio.NewWriter(w)
	ports := d.Ports()
	names := make([]string, len(ports))
	for i, p := range ports {
		names[i] = d.PortName(p)
	}
	fmt.Fprintf(bw, "module %s (%s);\n", d.Name, strings.Join(names, ", "))
	var ins, outs []string
	for _, p := range ports {
		if d.Port(p).Dir == netlist.In {
			ins = append(ins, d.PortName(p))
		} else {
			outs = append(outs, d.PortName(p))
		}
	}
	if len(ins) > 0 {
		fmt.Fprintf(bw, "  input %s;\n", strings.Join(ins, ", "))
	}
	if len(outs) > 0 {
		fmt.Fprintf(bw, "  output %s;\n", strings.Join(outs, ", "))
	}
	var wires []string
	for _, n := range d.Nets() {
		if d.FindPort(d.NetName(n)) < 0 {
			wires = append(wires, d.NetName(n))
		}
	}
	if len(wires) > 0 {
		fmt.Fprintf(bw, "  wire %s;\n", strings.Join(wires, ", "))
	}
	for _, inst := range d.Insts() {
		var conns []string
		for _, pins := range [][]netlist.ConnID{d.Inputs(inst), d.Outputs(inst)} {
			for _, c := range pins {
				conns = append(conns, fmt.Sprintf(".%s(%s)", d.Pin(c), d.NetName(d.Conn(c).Net)))
			}
		}
		fmt.Fprintf(bw, "  %s %s (%s);\n", d.CellName(inst), d.InstName(inst), strings.Join(conns, ", "))
	}
	fmt.Fprintln(bw, "endmodule")
	return bw.Flush()
}
