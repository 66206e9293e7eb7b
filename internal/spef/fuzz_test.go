package spef

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// FuzzParse hammers the SPEF reader with mutated inputs. The contract
// under fuzz: never panic, never hang, and every rejection is a
// positioned error (contains "line N") so users can find the problem in
// multi-megabyte extractor output. The reader must agree with the
// reference parser on every input: the same verdict, the same error text
// on a reject, the same database on an accept. Accepted inputs must
// survive a Write round trip, since the workload generator and the snad
// service both re-serialize parsed parasitics.
func FuzzParse(f *testing.F) {
	seed, err := os.ReadFile("../../testdata/bus4.spef")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(seed))
	f.Add("*SPEF \"v\"\n*DESIGN \"d\"\n*D_NET n 1e-15\n*CONN\n*P n O\n*CAP\n1 n:1 1e-15\n*END\n")
	f.Add("*NAME_MAP\n*1 very/long/name\n*D_NET *1 2e-15\n*CAP\n1 *1:1 *1:2 1e-15\n*END\n")
	f.Add("*D_NET a 1\n") // unterminated
	f.Add("*C_UNIT 1 PF\n*R_UNIT 1 KOHM\n*T_UNIT 1 NS\n")
	f.Add("*CAP\n")        // section outside net
	f.Add("1 a b c d e\n") // junk
	// Extractor-style scaled units on a coupled pair.
	f.Add("*C_UNIT 1 FF\n*R_UNIT 1 KOHM\n*D_NET a 4\n*CONN\n*I d:Y O\n*CAP\n1 a:1 1\n2 a:1 b:1 2\n*RES\n1 d:Y a:1 0.5\n*END\n" +
		"*D_NET b 3\n*CONN\n*P b O\n*CAP\n1 b:1 a:1 2\n*RES\n1 b b:1 0.25\n*END\n")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(strings.NewReader(src))
		want, wantErr := parseReference(strings.NewReader(src))
		switch {
		case (err == nil) != (wantErr == nil), err != nil && err.Error() != wantErr.Error():
			t.Fatalf("Parse: %v\nreference: %v", err, wantErr)
		case err == nil:
			parasiticsEqual(t, p, want)
		}
		if err != nil {
			if !strings.Contains(err.Error(), "line ") {
				t.Fatalf("error without a line number: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, p); err != nil {
			t.Fatalf("write after successful parse: %v", err)
		}
	})
}
