// Package spef reads and writes a practical subset of the Standard
// Parasitic Exchange Format (IEEE 1481): per-net distributed RC sections
// with cross-coupling capacitors between nets. This is the parasitic data
// model crosstalk analysis runs on.
//
// Supported constructs:
//
//	*SPEF, *DESIGN, *T_UNIT, *C_UNIT, *R_UNIT  (header; units are scaled)
//	*NAME_MAP with *<index> references expanded wherever nodes appear
//	*D_NET <net> <totalCap>
//	*CONN  with *P (port) and *I (instance pin) entries
//	*CAP   with grounded (node cap) and coupling (node other cap) entries
//	*RES
//	*END
//
// Node names are <net>:<index> as produced by extractors; the special node
// equal to the bare net name refers to the net's root (driver) node.
package spef

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/textio"
)

// ConnDir is the direction recorded for a *CONN entry.
type ConnDir int

const (
	// DirIn marks a load (input pin of a cell, or design output port).
	DirIn ConnDir = iota
	// DirOut marks a driver (output pin of a cell, or design input port).
	DirOut
)

// String renders the SPEF direction token.
func (d ConnDir) String() string {
	if d == DirOut {
		return "O"
	}
	return "I"
}

// Conn is one *CONN entry: where the net attaches to the logical design.
type Conn struct {
	// Pin is "inst:pin" for instance connections or the port name.
	Pin    string
	IsPort bool
	Dir    ConnDir
	// Node is the RC node the connection lands on; defaults to the pin
	// name itself.
	Node string
}

// CapEntry is a *CAP line. Other == "" means a grounded capacitor; a
// non-empty Other names a node on another net and makes this a coupling
// capacitor.
type CapEntry struct {
	Node  string
	Other string
	F     float64
}

// ResEntry is a *RES line.
type ResEntry struct {
	A, B string
	Ohms float64
}

// Net is the parasitic description of one net.
type Net struct {
	Name     string
	TotalCap float64
	Conns    []Conn
	Caps     []CapEntry
	Ress     []ResEntry
}

// GroundCap sums the grounded capacitance entries.
func (n *Net) GroundCap() float64 {
	var sum float64
	for _, c := range n.Caps {
		if c.Other == "" {
			sum += c.F
		}
	}
	return sum
}

// CouplingCap sums the coupling capacitance entries.
func (n *Net) CouplingCap() float64 {
	var sum float64
	for _, c := range n.Caps {
		if c.Other != "" {
			sum += c.F
		}
	}
	return sum
}

// CouplingByNet returns total coupling capacitance grouped by the other
// net's name (the prefix of the other node before ':').
func (n *Net) CouplingByNet() map[string]float64 {
	out := make(map[string]float64)
	for _, c := range n.Caps {
		if c.Other == "" {
			continue
		}
		out[NetOfNode(c.Other)] += c.F
	}
	return out
}

// NetOfNode extracts the net name from a <net>:<index> node name; a bare
// name maps to itself.
func NetOfNode(node string) string {
	if i := strings.IndexByte(node, ':'); i >= 0 {
		return node[:i]
	}
	return node
}

// Parasitics is a parsed SPEF file.
type Parasitics struct {
	Design string
	nets   map[string]*Net

	mu     sync.Mutex // guards sorted among concurrent readers
	sorted []*Net     // what Nets returns; nil until asked for, and after AddNet
}

// NewParasitics returns an empty database.
func NewParasitics(design string) *Parasitics {
	return &Parasitics{Design: design, nets: make(map[string]*Net)}
}

// AddNet inserts a net, rejecting duplicates.
func (p *Parasitics) AddNet(n *Net) error {
	if _, dup := p.nets[n.Name]; dup {
		return fmt.Errorf("spef: duplicate net %q", n.Name)
	}
	p.nets[n.Name] = n
	p.sorted = nil
	return nil
}

// Net returns the named net's parasitics or nil.
func (p *Parasitics) Net(name string) *Net { return p.nets[name] }

// Nets returns all nets sorted by name. The slice is sorted once and
// shared; callers must not modify it.
func (p *Parasitics) Nets() []*Net {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sorted == nil {
		p.sorted = make([]*Net, 0, len(p.nets))
		for _, n := range p.nets {
			p.sorted = append(p.sorted, n)
		}
		slices.SortFunc(p.sorted, func(a, b *Net) int { return strings.Compare(a.Name, b.Name) })
	}
	return p.sorted
}

// NumNets returns the number of nets with parasitics.
func (p *Parasitics) NumNets() int { return len(p.nets) }

// Parse reads the SPEF subset.
//
// The reader is streaming and parallel: lines are scanned from chunked
// reads (never materializing the file), *D_NET…*END sections are batched
// and parsed by a worker pool against a snapshot of the header state,
// and the parsed nets are committed serially in file order — so the
// resulting database and any error (position and text) are identical to
// a sequential parse. Sections containing global directives (*DESIGN,
// unit lines) and top-level lines between sections fall back to the
// serial machine, preserving exact semantics on pathological inputs.
func Parse(r io.Reader) (*Parasitics, error) {
	p := NewParasitics("")
	m := newMachine(p)
	m.onNet = func(n *Net, endLine int) error {
		if err := p.AddNet(n); err != nil {
			return fmt.Errorf("spef: line %d: %v", endLine, err)
		}
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	const batchBlocks = 256

	lr := textio.NewLineReader(r)
	var (
		batch      []blockRec
		block      blockRec
		collecting bool
		lineNo     = 0
		blockLines = 8
	)
	// flush parses the pending batch in parallel and commits the nets in
	// file order.
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		results := make([]blockResult, len(batch))
		nw := workers
		if nw > len(batch) {
			nw = len(batch)
		}
		if nw <= 1 {
			wm := newBlockMachine(m)
			for i := range batch {
				results[i] = wm.parseBlock(batch[i])
			}
		} else {
			var wg sync.WaitGroup
			for w := 0; w < nw; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					wm := newBlockMachine(m)
					for i := w; i < len(batch); i += nw {
						results[i] = wm.parseBlock(batch[i])
					}
				}(w)
			}
			wg.Wait()
		}
		batch = batch[:0]
		for _, res := range results {
			for _, nl := range res.nets {
				if err := m.onNet(nl.net, nl.endLine); err != nil {
					return err
				}
			}
			if res.err != nil {
				return res.err
			}
		}
		return nil
	}

	for {
		line, ok, err := lr.Next()
		if err != nil {
			return nil, fmt.Errorf("spef: line %d: %w", lineNo+1, err)
		}
		if !ok {
			break
		}
		lineNo++
		trim := bytes.TrimSpace(line)
		if len(trim) == 0 || bytes.HasPrefix(trim, []byte("//")) {
			continue
		}
		if collecting {
			block.lines = append(block.lines, trim)
			block.nos = append(block.nos, lineNo)
			kw := textio.FirstField(trim)
			switch string(kw) {
			case "*T_UNIT", "*C_UNIT", "*R_UNIT", "*DESIGN":
				// Global directive inside a section: this block must run
				// on the live serial state.
				block.global = true
			case "*END":
				collecting, blockLines = false, len(block.lines)
				if block.global {
					if err := flush(); err != nil {
						return nil, err
					}
					if err := m.runBlock(block); err != nil {
						return nil, err
					}
				} else {
					batch = append(batch, block)
					if len(batch) >= batchBlocks {
						if err := flush(); err != nil {
							return nil, err
						}
					}
				}
				block = blockRec{}
			}
			continue
		}
		if string(textio.FirstField(trim)) == "*D_NET" {
			collecting = true
			// Sections of one file are much of a size: the last one's line
			// count sizes this one's slices.
			block = blockRec{lines: append(make([][]byte, 0, blockLines), trim), nos: append(make([]int, 0, blockLines), lineNo)}
			continue
		}
		// Any other top-level line runs serially against live state; the
		// batch is committed first so errors keep file order.
		if err := flush(); err != nil {
			return nil, err
		}
		if err := m.step(trim, lineNo); err != nil {
			return nil, err
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if collecting {
		// Input ended inside a section: replay it serially so the
		// unterminated-net error comes out exactly as before.
		if err := m.runBlock(block); err != nil {
			return nil, err
		}
	}
	if m.cur != nil {
		return nil, fmt.Errorf("spef: line %d: net %q not terminated with *END", lineNo, m.cur.Name)
	}
	return p, nil
}

// blockRec is one collected *D_NET…*END section: trimmed line views and
// their absolute line numbers. The views alias reader chunks that stay
// referenced until the block is parsed.
type blockRec struct {
	lines  [][]byte
	nos    []int
	global bool // contains a global directive; must run serially
}

type netAndLine struct {
	net     *Net
	endLine int
}

type blockResult struct {
	nets []netAndLine
	err  error
}

// newBlockMachine returns a machine for the sections of one batch: it reads
// a snapshot of live's header state, and shares the name map read-only (map
// mutations inside a section always error before writing).
func newBlockMachine(live *machine) *machine {
	wm := &machine{p: new(Parasitics), cScale: live.cScale, rScale: live.rScale, nameMap: live.nameMap}
	wm.onNet = func(n *Net, endLine int) error {
		wm.done = append(wm.done, netAndLine{net: n, endLine: endLine})
		return nil
	}
	return wm
}

// parseBlock runs one section, sizing the net's slices from the section
// lines the block already collected.
func (m *machine) parseBlock(b blockRec) blockResult {
	m.cur, m.section, m.sized = nil, "", [3]int{}
	sec := -1
	for _, line := range b.lines {
		switch string(textio.FirstField(line)) {
		case "*CONN":
			sec = 0
		case "*CAP":
			sec = 1
		case "*RES":
			sec = 2
		case "*END", "*D_NET":
			sec = -1
		default:
			if sec >= 0 {
				m.sized[sec]++
			}
		}
	}
	err := m.runBlock(b)
	res := blockResult{nets: m.done, err: err}
	m.done = nil
	return res
}

// machine is the sequential SPEF line interpreter. One instance tracks
// the live global state; per-block worker instances run with snapshots.
type machine struct {
	p       *Parasitics
	cur     *Net
	section string
	cScale  float64
	rScale  float64
	nameMap map[string]string
	onNet   func(n *Net, endLine int) error
	fields  [][]byte // reusable scratch
	// Per section (parseBlock): the nets it finished, and how many *CONN,
	// *CAP and *RES lines the one being read has.
	done  []netAndLine
	sized [3]int
	// The node names minted for the current net: a node is named in *CONN,
	// in *CAP and twice in *RES, and gets one string. index takes over
	// from scanning names on a net with many nodes.
	names []string
	index map[string]string
}

// scanNames is the count of a net's node names up to which finding one is a
// scan.
const scanNames = 16

// node returns the expanded name of a node token, the same string for
// every mention of the node within one net (name-map references excepted).
func (m *machine) node(tok []byte) string {
	if len(tok) > 0 && tok[0] == '*' {
		return m.expand(tok)
	}
	if len(m.names) <= scanNames {
		for _, nm := range m.names {
			if nm == string(tok) {
				return nm
			}
		}
	} else if nm, ok := m.index[string(tok)]; ok {
		return nm
	}
	nm := string(tok)
	m.names = append(m.names, nm)
	if len(m.names) == scanNames+1 {
		if m.index == nil {
			m.index = make(map[string]string)
		}
		clear(m.index)
		for _, old := range m.names {
			m.index[old] = old
		}
	} else if len(m.names) > scanNames {
		m.index[nm] = nm
	}
	return nm
}

func newMachine(p *Parasitics) *machine {
	return &machine{p: p, cScale: 1, rScale: 1, nameMap: make(map[string]string)}
}

func (m *machine) runBlock(b blockRec) error {
	for i, line := range b.lines {
		if err := m.step(line, b.nos[i]); err != nil {
			return err
		}
	}
	return nil
}

// expand resolves *<index> name-map references anywhere in a node path,
// including the prefix of an "*1:3"-style pin node.
func (m *machine) expand(tok []byte) string {
	if len(tok) == 0 || tok[0] != '*' {
		return string(tok)
	}
	key := tok[1:]
	suffix := []byte(nil)
	if i := bytes.IndexByte(key, ':'); i >= 0 {
		key, suffix = key[:i], key[i:]
	}
	if mapped, ok := m.nameMap[string(key)]; ok {
		return mapped + string(suffix)
	}
	return string(tok)
}

// step interprets one trimmed, non-blank, non-comment line.
func (m *machine) step(line []byte, lineNo int) error {
	f := textio.SplitFields(line, m.fields[:0])
	m.fields = f
	fail := func(format string, args ...any) error {
		return fmt.Errorf("spef: line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}
	switch string(f[0]) {
	case "*SPEF":
		// Version string; ignored.
	case "*DESIGN":
		if len(f) < 2 {
			return fail("*DESIGN wants a name")
		}
		m.p.Design = strings.Trim(string(f[1]), `"`)
	case "*NAME_MAP":
		m.section = "*NAME_MAP"
	case "*T_UNIT", "*C_UNIT", "*R_UNIT":
		if len(f) != 3 {
			return fail("%s wants VALUE UNIT", f[0])
		}
		v, err := strconv.ParseFloat(string(f[1]), 64)
		if err != nil {
			return fail("bad unit value: %v", err)
		}
		scale, err := unitScale(string(f[2]))
		if err != nil {
			return fail("%v", err)
		}
		switch string(f[0]) {
		case "*C_UNIT":
			m.cScale = v * scale
		case "*R_UNIT":
			m.rScale = v * scale
		}
	case "*D_NET":
		if len(f) != 3 {
			return fail("*D_NET wants NET TOTALCAP")
		}
		name := m.expand(f[1])
		if m.cur != nil {
			return fail("*D_NET %q inside unterminated net %q", name, m.cur.Name)
		}
		tc, err := strconv.ParseFloat(string(f[2]), 64)
		if err != nil {
			return fail("bad total cap: %v", err)
		}
		if tc < 0 {
			return fail("negative total cap %g on net %q", tc, name)
		}
		m.cur = &Net{Name: name, TotalCap: tc * m.cScale}
		if n := m.sized[0]; n > 0 {
			m.cur.Conns = make([]Conn, 0, n)
		}
		if n := m.sized[1]; n > 0 {
			m.cur.Caps = make([]CapEntry, 0, n)
		}
		if n := m.sized[2]; n > 0 {
			m.cur.Ress = make([]ResEntry, 0, n)
		}
		m.section, m.names = "", m.names[:0]
	case "*CONN", "*CAP", "*RES":
		if m.cur == nil {
			return fail("%s outside *D_NET", f[0])
		}
		m.section = string(f[0])
	case "*END":
		if m.cur == nil {
			return fail("*END outside *D_NET")
		}
		n := m.cur
		m.cur, m.section = nil, ""
		if err := m.onNet(n, lineNo); err != nil {
			return err
		}
	case "*P", "*I":
		if m.cur == nil || m.section != "*CONN" {
			return fail("%s outside *CONN", f[0])
		}
		if len(f) != 3 {
			return fail("%s wants PIN DIR", f[0])
		}
		dir, err := parseConnDir(string(f[2]))
		if err != nil {
			return fail("%v", err)
		}
		pin := m.node(f[1])
		m.cur.Conns = append(m.cur.Conns, Conn{
			Pin:    pin,
			IsPort: f[0][1] == 'P',
			Dir:    dir,
			Node:   pin,
		})
	default:
		switch m.section {
		case "*NAME_MAP":
			// Entries look like "*12 actual/name".
			if m.cur != nil {
				return fail("*NAME_MAP entry inside *D_NET")
			}
			if len(f) != 2 || f[0][0] != '*' {
				return fail("bad *NAME_MAP entry %q", line)
			}
			m.nameMap[string(f[0][1:])] = string(f[1])
		case "*CAP":
			switch len(f) {
			case 3: // idx node cap
				v, err := strconv.ParseFloat(string(f[2]), 64)
				if err != nil {
					return fail("bad cap: %v", err)
				}
				if v < 0 {
					return fail("negative cap %g at node %q", v, f[1])
				}
				m.cur.Caps = append(m.cur.Caps, CapEntry{Node: m.node(f[1]), F: v * m.cScale})
			case 4: // idx node other cap
				v, err := strconv.ParseFloat(string(f[3]), 64)
				if err != nil {
					return fail("bad coupling cap: %v", err)
				}
				if v < 0 {
					return fail("negative coupling cap %g at node %q", v, f[1])
				}
				m.cur.Caps = append(m.cur.Caps, CapEntry{Node: m.node(f[1]), Other: m.expand(f[2]), F: v * m.cScale})
			default:
				return fail("bad *CAP entry")
			}
		case "*RES":
			if len(f) != 4 {
				return fail("bad *RES entry")
			}
			v, err := strconv.ParseFloat(string(f[3]), 64)
			if err != nil {
				return fail("bad resistance: %v", err)
			}
			if v < 0 {
				return fail("negative resistance %g between %q and %q", v, f[1], f[2])
			}
			m.cur.Ress = append(m.cur.Ress, ResEntry{A: m.node(f[1]), B: m.node(f[2]), Ohms: v * m.rScale})
		default:
			return fail("unexpected line %q", line)
		}
	}
	return nil
}

func parseConnDir(s string) (ConnDir, error) {
	switch s {
	case "I":
		return DirIn, nil
	case "O":
		return DirOut, nil
	}
	return DirIn, fmt.Errorf("bad direction %q (want I|O)", s)
}

func unitScale(u string) (float64, error) {
	switch strings.ToUpper(u) {
	case "S", "OHM", "F":
		return 1, nil
	case "MS":
		return 1e-3, nil
	case "US":
		return 1e-6, nil
	case "NS":
		return 1e-9, nil
	case "PS":
		return 1e-12, nil
	case "KOHM":
		return 1e3, nil
	case "PF":
		return 1e-12, nil
	case "FF":
		return 1e-15, nil
	}
	return 0, fmt.Errorf("unknown unit %q", u)
}

// Write renders the database in the SPEF subset with base SI units.
func Write(w io.Writer, p *Parasitics) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, `*SPEF "IEEE 1481-1998 subset"`)
	fmt.Fprintf(bw, "*DESIGN \"%s\"\n", p.Design)
	fmt.Fprintln(bw, "*T_UNIT 1 S")
	fmt.Fprintln(bw, "*C_UNIT 1 F")
	fmt.Fprintln(bw, "*R_UNIT 1 OHM")
	for _, n := range p.Nets() {
		fmt.Fprintf(bw, "*D_NET %s %g\n", n.Name, n.TotalCap)
		if len(n.Conns) > 0 {
			fmt.Fprintln(bw, "*CONN")
			for _, c := range n.Conns {
				tag := "*I"
				if c.IsPort {
					tag = "*P"
				}
				fmt.Fprintf(bw, "%s %s %s\n", tag, c.Pin, c.Dir)
			}
		}
		if len(n.Caps) > 0 {
			fmt.Fprintln(bw, "*CAP")
			for i, c := range n.Caps {
				if c.Other == "" {
					fmt.Fprintf(bw, "%d %s %g\n", i+1, c.Node, c.F)
				} else {
					fmt.Fprintf(bw, "%d %s %s %g\n", i+1, c.Node, c.Other, c.F)
				}
			}
		}
		if len(n.Ress) > 0 {
			fmt.Fprintln(bw, "*RES")
			for i, r := range n.Ress {
				fmt.Fprintf(bw, "%d %s %s %g\n", i+1, r.A, r.B, r.Ohms)
			}
		}
		fmt.Fprintln(bw, "*END")
	}
	return bw.Flush()
}
