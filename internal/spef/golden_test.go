package spef

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
	"testing/iotest"
)

// parasiticsEqual fails unless the two databases render identically and
// agree net by net, entry by entry, in file order.
func parasiticsEqual(t *testing.T, got, want *Parasitics) {
	t.Helper()
	if got.Design != want.Design {
		t.Fatalf("design %q != %q", got.Design, want.Design)
	}
	if got.NumNets() != want.NumNets() {
		t.Fatalf("net count %d != %d", got.NumNets(), want.NumNets())
	}
	var gw, ww bytes.Buffer
	if err := Write(&gw, got); err != nil {
		t.Fatal(err)
	}
	if err := Write(&ww, want); err != nil {
		t.Fatal(err)
	}
	if gw.String() != ww.String() {
		t.Fatalf("spef text differs:\n--- got ---\n%s\n--- want ---\n%s", gw.String(), ww.String())
	}
	wantNets := want.Nets()
	for i, gn := range got.Nets() {
		wn := wantNets[i]
		if gn.Name != wn.Name || gn.TotalCap != wn.TotalCap ||
			len(gn.Conns) != len(wn.Conns) || len(gn.Caps) != len(wn.Caps) || len(gn.Ress) != len(wn.Ress) {
			t.Fatalf("net %q summary differs", gn.Name)
		}
		for j := range gn.Conns {
			if gn.Conns[j] != wn.Conns[j] {
				t.Fatalf("net %q conn %d: %+v != %+v", gn.Name, j, gn.Conns[j], wn.Conns[j])
			}
		}
		for j := range gn.Caps {
			if gn.Caps[j] != wn.Caps[j] {
				t.Fatalf("net %q cap %d: %+v != %+v", gn.Name, j, gn.Caps[j], wn.Caps[j])
			}
		}
		for j := range gn.Ress {
			if gn.Ress[j] != wn.Ress[j] {
				t.Fatalf("net %q res %d: %+v != %+v", gn.Name, j, gn.Ress[j], wn.Ress[j])
			}
		}
	}
}

// bigSource synthesizes a SPEF with enough sections to cross several
// worker batches, exercising name-map expansion on every net.
func bigSource(nets int) string {
	var b strings.Builder
	b.WriteString("*SPEF \"test\"\n*DESIGN \"big\"\n*T_UNIT 1 NS\n*C_UNIT 1 FF\n*R_UNIT 1 KOHM\n")
	b.WriteString("*NAME_MAP\n")
	for i := 0; i < nets; i++ {
		fmt.Fprintf(&b, "*%d big/net_%d\n", i+1, i)
	}
	for i := 0; i < nets; i++ {
		fmt.Fprintf(&b, "*D_NET *%d 4.0\n*CONN\n*I inst%d:Y O\n*I inst%d:A I\n*CAP\n", i+1, i, i+1)
		fmt.Fprintf(&b, "1 *%d:1 1.5\n", i+1)
		if i+1 < nets {
			fmt.Fprintf(&b, "2 *%d:2 *%d:1 0.5\n", i+1, i+2)
		}
		fmt.Fprintf(&b, "*RES\n1 *%d:1 *%d:2 0.2\n*END\n", i+1, i+1)
	}
	return b.String()
}

func TestParseMatchesReference(t *testing.T) {
	bus4, err := os.ReadFile("../../testdata/bus4.spef")
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]string{
		"bus4": string(bus4),
		"big":  bigSource(700), // a name map, and couplings to nets not yet read
		"late_units": "*SPEF \"x\"\n*C_UNIT 1 PF\n*D_NET a 1.0\n*CAP\n1 a:1 1.0\n*END\n" +
			"*C_UNIT 1 FF\n*D_NET b 1.0\n*CAP\n1 b:1 1.0\n*END\n",
		"crlf": "*SPEF \"x\"\r\n*D_NET a 1.0\r\n*CAP\r\n1 a:1 2.0\r\n*END\r\n",
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			want, err := parseReference(strings.NewReader(src))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Parse(strings.NewReader(src))
			if err != nil {
				t.Fatal(err)
			}
			parasiticsEqual(t, got, want)

			// Arbitrary read fragmentation must not change the result.
			frag, err := Parse(iotest.OneByteReader(strings.NewReader(src)))
			if err != nil {
				t.Fatal(err)
			}
			parasiticsEqual(t, frag, want)
		})
	}
}

func TestParseErrorsMatchReference(t *testing.T) {
	cases := []string{
		"*DESIGN\n",
		"*T_UNIT 1\n",
		"*T_UNIT x NS\n",
		"*C_UNIT 1 parsec\n",
		"*D_NET a\n",
		"*D_NET a xyz\n",
		"*D_NET a -1.0\n",
		"*D_NET a 1.0\n*D_NET b 2.0\n",
		"*CONN\n",
		"*END\n",
		"*D_NET a 1.0\n*END\n*D_NET a 2.0\n*END\n",
		"*P x I\n",
		"*D_NET a 1.0\n*CONN\n*P x Q\n*END\n",
		"*D_NET a 1.0\n*CONN\n*P x\n*END\n",
		"*D_NET a 1.0\n*CAP\nnonsense\n*END\n",
		"*D_NET a 1.0\n*CAP\n1 a:1 bad\n*END\n",
		"*D_NET a 1.0\n*CAP\n1 a:1 -2\n*END\n",
		"*D_NET a 1.0\n*CAP\n1 a:1 b:1 -2\n*END\n",
		"*D_NET a 1.0\n*RES\n1 a:1 a:2\n*END\n",
		"*D_NET a 1.0\n*RES\n1 a:1 a:2 -1\n*END\n",
		"*D_NET a 1.0\n*CAP\n",
		"*NAME_MAP\nbroken entry here\n",
		"*NAME_MAP\n*D_NET a 1.0\n*1 mapped\n*END\n",
		"stray words\n",
	}
	for i, src := range cases {
		_, wantErr := parseReference(strings.NewReader(src))
		_, gotErr := Parse(strings.NewReader(src))
		if wantErr == nil {
			t.Fatalf("case %d: reference accepted %q", i, src)
		}
		if gotErr == nil {
			t.Fatalf("case %d: streaming parser accepted %q, want %v", i, src, wantErr)
		}
		if gotErr.Error() != wantErr.Error() {
			t.Errorf("case %d: error mismatch\n  got:  %v\n  want: %v", i, gotErr, wantErr)
		}
	}
}
