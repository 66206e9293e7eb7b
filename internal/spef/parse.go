package spef

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/textio"
)

// Parse reads the SPEF subset. It streams: lines are scanned from chunked
// reads (never materializing the file) and interpreted in place, each
// section's strings views of its lines until *END stores it, so a parse
// allocates a few tables per segment of openNets nets and nothing per
// section, line or name.
func Parse(r io.Reader) (*Parasitics, error) {
	p := NewParasitics("")
	m := &machine{p: p, cScale: 1, rScale: 1, nameMap: make(map[string]string)}
	lr := textio.NewLineReader(r)
	lineNo := 0
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
		if err := m.step(trim, lineNo); err != nil {
			return nil, err
		}
	}
	if m.open {
		return nil, fmt.Errorf("spef: line %d: net %q not terminated with *END", lineNo, m.cur.Name)
	}
	if last := len(p.segs) - 1; last >= 0 && p.segs[last].open {
		p.segs[last].seal()
	}
	p.sets = sets{} // it holds views of the input
	return p, nil
}

// machine is the SPEF line interpreter.
type machine struct {
	p       *Parasitics
	section string
	cScale  float64
	rScale  float64
	nameMap map[string]string
	fields  [][]byte // reusable scratch
	// The section being read: its strings are views of its lines and of
	// exp, the name-map expansions made in it. Both are reused from section
	// to section.
	cur  Net
	open bool
	exp  []byte
}

// expand resolves *<index> name-map references anywhere in a node path,
// including the prefix of an "*1:3"-style pin node. The result is a view
// of tok or of exp.
func (m *machine) expand(tok []byte) string {
	if len(tok) == 0 || tok[0] != '*' {
		return textio.View(tok)
	}
	key := tok[1:]
	suffix := []byte(nil)
	if i := bytes.IndexByte(key, ':'); i >= 0 {
		key, suffix = key[:i], key[i:]
	}
	if mapped, ok := m.nameMap[string(key)]; ok {
		start := len(m.exp)
		m.exp = append(append(m.exp, mapped...), suffix...)
		return textio.View(m.exp[start:])
	}
	return textio.View(tok)
}

// number parses a float from a line view.
func number(tok []byte) (float64, error) { return strconv.ParseFloat(textio.View(tok), 64) }

// step interprets one trimmed, non-blank, non-comment line.
func (m *machine) step(line []byte, lineNo int) error {
	f := textio.SplitFields(line, m.fields[:0])
	m.fields = f
	fail := func(format string, args ...any) error {
		return fmt.Errorf("spef: line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}
	cur := &m.cur
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
		v, err := number(f[1])
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
		if m.open {
			return fail("*D_NET %q inside unterminated net %q", name, cur.Name)
		}
		tc, err := number(f[2])
		if err != nil {
			return fail("bad total cap: %v", err)
		}
		if tc < 0 {
			return fail("negative total cap %g on net %q", tc, name)
		}
		*cur = Net{Name: name, TotalCap: tc * m.cScale, Conns: cur.Conns[:0], Caps: cur.Caps[:0], Ress: cur.Ress[:0]}
		m.open, m.section = true, ""
	case "*CONN", "*CAP", "*RES":
		if !m.open {
			return fail("%s outside *D_NET", f[0])
		}
		for _, sec := range [...]string{"*CONN", "*CAP", "*RES"} {
			if sec == string(f[0]) {
				m.section = sec // a constant: string(f[0]) would allocate
			}
		}
	case "*END":
		if !m.open {
			return fail("*END outside *D_NET")
		}
		m.open, m.section = false, ""
		if err := m.p.store(cur); err != nil {
			return fail("%v", err)
		}
		m.exp = m.exp[:0]
	case "*P", "*I":
		if !m.open || m.section != "*CONN" {
			return fail("%s outside *CONN", f[0])
		}
		if len(f) != 3 {
			return fail("%s wants PIN DIR", f[0])
		}
		dir, err := parseConnDir(string(f[2]))
		if err != nil {
			return fail("%v", err)
		}
		pin := m.expand(f[1])
		cur.Conns = append(cur.Conns, Conn{Pin: pin, IsPort: f[0][1] == 'P', Dir: dir, Node: pin})
	default:
		switch m.section {
		case "*NAME_MAP":
			// Entries look like "*12 actual/name".
			if m.open {
				return fail("*NAME_MAP entry inside *D_NET")
			}
			if len(f) != 2 || f[0][0] != '*' {
				return fail("bad *NAME_MAP entry %q", line)
			}
			m.nameMap[string(f[0][1:])] = string(f[1])
		case "*CAP":
			switch len(f) {
			case 3: // idx node cap
				v, err := number(f[2])
				if err != nil {
					return fail("bad cap: %v", err)
				}
				if v < 0 {
					return fail("negative cap %g at node %q", v, f[1])
				}
				cur.Caps = append(cur.Caps, CapEntry{Node: m.expand(f[1]), F: v * m.cScale})
			case 4: // idx node other cap
				v, err := number(f[3])
				if err != nil {
					return fail("bad coupling cap: %v", err)
				}
				if v < 0 {
					return fail("negative coupling cap %g at node %q", v, f[1])
				}
				cur.Caps = append(cur.Caps, CapEntry{Node: m.expand(f[1]), Other: m.expand(f[2]), F: v * m.cScale})
			default:
				return fail("bad *CAP entry")
			}
		case "*RES":
			if len(f) != 4 {
				return fail("bad *RES entry")
			}
			v, err := number(f[3])
			if err != nil {
				return fail("bad resistance: %v", err)
			}
			if v < 0 {
				return fail("negative resistance %g between %q and %q", v, f[1], f[2])
			}
			cur.Ress = append(cur.Ress, ResEntry{A: m.expand(f[1]), B: m.expand(f[2]), Ohms: v * m.rScale})
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
