package vlog

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"testing/iotest"
	"unicode/utf8"

	"repro/internal/liberty"
)

// FuzzParse hammers the structural-Verilog reader with mutated inputs.
// The contract under fuzz: never panic, never hang, and every rejection
// is a positioned error (contains "line N") — a netlist that fails to
// load must tell the user where. Accepted inputs must survive a Write
// round trip. On valid UTF-8 the reader must also agree with the
// reference parser: the same verdict, the same error text on a reject,
// the same design (IDs and connection order included) on an accept.
func FuzzParse(f *testing.F) {
	seed, err := os.ReadFile("../../testdata/bus4.v")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(seed))
	f.Add("module top (a, y);\n  input a;\n  output y;\n  INV_X1 u0 (.A(a), .Y(y));\nendmodule\n")
	f.Add("module t (p);\n  input p;\n") // missing endmodule
	f.Add("module t (p);\nendmodule\n")  // undeclared header port
	f.Add("module t ();\n  wire \\esc[0] ;\nendmodule\n")
	f.Add("/* block\ncomment */ module t ();\nendmodule // eol\n")
	f.Add("module t ();\n  NAND2_X1 u0 (a, b);\nendmodule\n")      // positional conns
	f.Add("module;\n00")                                           // the header's tokens run past its ';'
	f.Add("module t (a);\n  input a, a, (;\nendmodule\n")          // syntax error after a duplicate
	f.Add("module t ();\nendmodule\n/")                            // lexical error after endmodule
	f.Add("module t (\\a\u00a0b );\n  input \\a ;\u2028endmodule") // Unicode space ends names
	f.Fuzz(func(t *testing.T, src string) {
		lib := liberty.Generic()
		d, err := Parse(strings.NewReader(src), lib)
		// The reference's rune tokenizer rewrites a byte that is not
		// UTF-8 to U+FFFD; the byte scanner keeps names as they are
		// spelled. Only valid UTF-8 is comparable.
		if utf8.ValidString(src) {
			want, wantErr := parseReference(strings.NewReader(src), lib)
			switch {
			case (err == nil) != (wantErr == nil), err != nil && err.Error() != wantErr.Error():
				t.Fatalf("Parse: %v\nreference: %v", err, wantErr)
			case err == nil:
				designsEqual(t, d, want)
			}
		}
		// One byte per read moves the window under every token.
		frag, fragErr := Parse(iotest.OneByteReader(strings.NewReader(src)), lib)
		if (err == nil) != (fragErr == nil) || err != nil && err.Error() != fragErr.Error() {
			t.Fatalf("Parse: %v\nfragmented reads: %v", err, fragErr)
		}
		if err != nil {
			if !strings.Contains(err.Error(), "line ") {
				t.Fatalf("error without a line number: %v", err)
			}
			return
		}
		designsEqual(t, frag, d)
		var buf bytes.Buffer
		if err := Write(&buf, d); err != nil {
			t.Fatalf("write after successful parse: %v", err)
		}
	})
}
