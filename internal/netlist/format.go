package netlist

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/textio"
)

// The .net text format is a minimal line-oriented netlist interchange
// format used by cmd/netgen and cmd/sna:
//
//	# comment
//	design NAME
//	port NAME in|out
//	inst NAME CELLNAME
//	conn INST PIN NET in|out
//
// Lines may appear in any order except that `design` must come first and
// `conn` must follow its `inst`. Blank lines and #-comments are ignored.

// Parse reads a design in .net format.
func Parse(r io.Reader) (*Design, error) {
	var (
		lr     = textio.NewLineReader(r)
		d      *Design
		inst   InstID = -1 // the last inst line's: its conn lines follow it
		f      [][]byte
		lineNo int
	)
	fail := func(format string, args ...any) error {
		return fmt.Errorf("netlist: line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}
	for {
		line, ok, err := lr.Next()
		if err != nil {
			return nil, fmt.Errorf("netlist: %w", err)
		}
		if !ok {
			break
		}
		lineNo++
		f = textio.SplitFields(line, f[:0])
		if len(f) == 0 || f[0][0] == '#' {
			continue
		}
		kw := textio.View(f[0])
		if d == nil && (kw == "port" || kw == "inst" || kw == "conn") {
			return nil, fail("%s before design", kw)
		}
		switch kw {
		case "design":
			if len(f) != 2 {
				return nil, fail("design wants 1 argument")
			}
			if d != nil {
				return nil, fail("duplicate design line")
			}
			d = New(string(f[1]))
		case "port":
			if len(f) != 3 {
				return nil, fail("port wants NAME in|out")
			}
			dir, err := parseDir(f[2])
			if err != nil {
				return nil, fail("%v", err)
			}
			if _, err := d.AddPort(textio.View(f[1]), dir); err != nil {
				return nil, fail("%v", err)
			}
		case "inst":
			if len(f) != 3 {
				return nil, fail("inst wants NAME CELL")
			}
			if inst, err = d.AddInst(textio.View(f[1]), textio.View(f[2])); err != nil {
				return nil, fail("%v", err)
			}
		case "conn":
			if len(f) != 5 {
				return nil, fail("conn wants INST PIN NET in|out")
			}
			dir, err := parseDir(f[4])
			if err != nil {
				return nil, fail("%v", err)
			}
			if inst >= 0 && d.InstName(inst) == string(f[1]) {
				err = d.ConnectPin(inst, textio.View(f[2]), textio.View(f[3]), dir)
			} else {
				err = d.Connect(textio.View(f[1]), textio.View(f[2]), textio.View(f[3]), dir)
			}
			if err != nil {
				return nil, fail("%v", err)
			}
		default:
			return nil, fail("unknown keyword %q", f[0])
		}
	}
	if d == nil {
		return nil, fmt.Errorf("netlist: no design line")
	}
	d.Compact()
	return d, nil
}

func parseDir(s []byte) (Dir, error) {
	switch string(s) {
	case "in":
		return In, nil
	case "out":
		return Out, nil
	}
	return In, fmt.Errorf("bad direction %q (want in|out)", s)
}

// Write renders the design in .net format, deterministically sorted.
func Write(w io.Writer, d *Design) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "design %s\n", d.Name)
	for _, p := range d.Ports() {
		fmt.Fprintf(bw, "port %s %s\n", d.PortName(p), d.Port(p).Dir)
	}
	for _, i := range d.Insts() {
		name := d.InstName(i)
		fmt.Fprintf(bw, "inst %s %s\n", name, d.CellName(i))
		for _, pins := range [][]ConnID{d.Inputs(i), d.Outputs(i)} {
			for _, c := range pins {
				fmt.Fprintf(bw, "conn %s %s %s %s\n", name, d.Pin(c), d.NetName(d.Conn(c).Net), d.Conn(c).Dir)
			}
		}
	}
	return bw.Flush()
}
