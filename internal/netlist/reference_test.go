package netlist

// This file preserves the previous bufio.Scanner + strings.Fields reader
// of the .net format as a test-only reference implementation: Parse must
// build the same design, IDs and connection order included, and reject
// the same inputs with the same error text (TestParseMatchesReference,
// FuzzParse).

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

func parseReference(r io.Reader) (*Design, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var d *Design
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		fail := func(format string, args ...any) error {
			return fmt.Errorf("netlist: line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		switch f[0] {
		case "design":
			if len(f) != 2 {
				return nil, fail("design wants 1 argument")
			}
			if d != nil {
				return nil, fail("duplicate design line")
			}
			d = New(f[1])
		case "port":
			if d == nil {
				return nil, fail("port before design")
			}
			if len(f) != 3 {
				return nil, fail("port wants NAME in|out")
			}
			dir, err := parseDir([]byte(f[2]))
			if err != nil {
				return nil, fail("%v", err)
			}
			if _, err := d.AddPort(f[1], dir); err != nil {
				return nil, fail("%v", err)
			}
		case "inst":
			if d == nil {
				return nil, fail("inst before design")
			}
			if len(f) != 3 {
				return nil, fail("inst wants NAME CELL")
			}
			if _, err := d.AddInst(f[1], f[2]); err != nil {
				return nil, fail("%v", err)
			}
		case "conn":
			if d == nil {
				return nil, fail("conn before design")
			}
			if len(f) != 5 {
				return nil, fail("conn wants INST PIN NET in|out")
			}
			dir, err := parseDir([]byte(f[4]))
			if err != nil {
				return nil, fail("%v", err)
			}
			if err := d.Connect(f[1], f[2], f[3], dir); err != nil {
				return nil, fail("%v", err)
			}
		default:
			return nil, fail("unknown keyword %q", f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netlist: %w", err)
	}
	if d == nil {
		return nil, fmt.Errorf("netlist: no design line")
	}
	return d, nil
}
