package spef

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

const sample = `*SPEF "IEEE 1481-1998 subset"
*DESIGN "bus2"
*T_UNIT 1 PS
*C_UNIT 1 FF
*R_UNIT 1 KOHM
*D_NET a 12.0
*CONN
*I drv_a:Y O
*I rcv_a:A I
*CAP
1 a:1 4.0
2 a:2 4.0
3 a:2 b:2 4.0
*RES
1 drv_a:Y a:1 0.1
2 a:1 a:2 0.2
3 a:2 rcv_a:A 0.1
*END
*D_NET b 8.0
*CONN
*I drv_b:Y O
*I rcv_b:A I
*CAP
1 b:1 4.0
2 b:2 b:1 0.0
*RES
1 drv_b:Y b:1 0.15
*END
`

func TestParseSample(t *testing.T) {
	p, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if p.Design != "bus2" {
		t.Fatalf("design = %q", p.Design)
	}
	if p.NumNets() != 2 {
		t.Fatalf("nets = %d", p.NumNets())
	}
	a := p.Net("a")
	if a == nil {
		t.Fatal("missing net a")
	}
	// Units: FF and KOHM scaling applied.
	if math.Abs(a.TotalCap-12e-15) > 1e-24 {
		t.Fatalf("total cap = %g", a.TotalCap)
	}
	if got := a.GroundCap(); math.Abs(got-8e-15) > 1e-24 {
		t.Fatalf("ground cap = %g", got)
	}
	if got := a.CouplingCap(); math.Abs(got-4e-15) > 1e-24 {
		t.Fatalf("coupling cap = %g", got)
	}
	if len(a.Ress) != 3 || math.Abs(a.Ress[1].Ohms-200) > 1e-9 {
		t.Fatalf("res = %+v", a.Ress)
	}
	if len(a.Conns) != 2 || a.Conns[0].Dir != DirOut || a.Conns[0].IsPort {
		t.Fatalf("conns = %+v", a.Conns)
	}
}

func TestCouplingByNet(t *testing.T) {
	p, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	m := p.Net("a").CouplingByNet()
	if len(m) != 1 || math.Abs(m["b"]-4e-15) > 1e-24 {
		t.Fatalf("coupling map = %v", m)
	}
}

func TestNetOfNode(t *testing.T) {
	if NetOfNode("bus:3") != "bus" {
		t.Fatal("prefix extraction")
	}
	if NetOfNode("plain") != "plain" {
		t.Fatal("bare name")
	}
	if NetOfNode("a:b:c") != "a" {
		t.Fatal("first colon wins")
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	p, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Write(&sb, p); err != nil {
		t.Fatal(err)
	}
	p2, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, sb.String())
	}
	if p2.NumNets() != p.NumNets() || p2.Design != p.Design {
		t.Fatal("round trip changed database")
	}
	a1, a2 := p.Net("a"), p2.Net("a")
	if math.Abs(a1.TotalCap-a2.TotalCap) > 1e-27 {
		t.Fatalf("total cap drift: %g vs %g", a1.TotalCap, a2.TotalCap)
	}
	if len(a1.Caps) != len(a2.Caps) || len(a1.Ress) != len(a2.Ress) {
		t.Fatal("entry counts changed")
	}
	for i := range a1.Caps {
		if math.Abs(a1.Caps[i].F-a2.Caps[i].F) > 1e-27 || a1.Caps[i].Other != a2.Caps[i].Other {
			t.Fatalf("cap %d drift", i)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"*D_NET a x",                      // bad total cap
		"*D_NET a 1\n*D_NET b 1",          // nested D_NET
		"*END",                            // stray END
		"*P p I",                          // CONN entry outside section
		"*D_NET a 1\n*CAP\n1 a:1 bogus",   // bad cap value
		"*D_NET a 1\n*RES\n1 a:1 a:2",     // short RES
		"*D_NET a 1\nrandom words here x", // junk inside net
		"*T_UNIT 1 FURLONG",               // bad unit
		"*T_UNIT x PS",                    // bad unit value
		"*D_NET a 1",                      // unterminated
		"*D_NET a 1\n*CONN\n*I p Q",       // bad direction
		"junk",                            // junk outside net
	}
	for _, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// TestParseRejectsNegativeValues pins the physicality checks: negative
// capacitance or resistance marks a broken extraction and must be
// rejected at parse time, with the offending line number in the error.
func TestParseRejectsNegativeValues(t *testing.T) {
	cases := []struct {
		src      string
		wantLine string
		wantMsg  string
	}{
		{"*D_NET a -1.0\n*END", "line 1", "negative total cap"},
		{"*D_NET a 1\n*CAP\n1 a:1 -4.0\n*END", "line 3", "negative cap"},
		{"*D_NET a 1\n*CAP\n1 a:1 b:1 -2.0\n*END", "line 3", "negative coupling cap"},
		{"*D_NET a 1\n*RES\n1 a:1 a:2 -0.5\n*END", "line 3", "negative resistance"},
	}
	for _, tc := range cases {
		_, err := Parse(strings.NewReader(tc.src))
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", tc.src)
			continue
		}
		for _, want := range []string{tc.wantLine, tc.wantMsg} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("Parse(%q) error = %q, want it to mention %q", tc.src, err, want)
			}
		}
	}
}

// TestParseErrorsCarryLineNumbers spot-checks that structural errors
// report where they happened.
func TestParseErrorsCarryLineNumbers(t *testing.T) {
	src := "*DESIGN \"d\"\n*D_NET a 1\n*CAP\n1 a:1 bogus\n*END"
	_, err := Parse(strings.NewReader(src))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("error = %v, want mention of line 4", err)
	}
}

func TestAddNetDuplicate(t *testing.T) {
	p := NewParasitics("t")
	if err := p.AddNet(&Net{Name: "n"}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddNet(&Net{Name: "n"}); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestNetsSorted(t *testing.T) {
	p := NewParasitics("t")
	for _, n := range []string{"z", "a", "m"} {
		if err := p.AddNet(&Net{Name: n}); err != nil {
			t.Fatal(err)
		}
	}
	nets := p.Nets()
	if nets[0].Name != "a" || nets[1].Name != "m" || nets[2].Name != "z" {
		t.Fatalf("order: %v", []string{nets[0].Name, nets[1].Name, nets[2].Name})
	}
}

func TestCommentsAndBlanks(t *testing.T) {
	src := "// header comment\n\n*SPEF \"x\"\n*DESIGN \"d\"\n*D_NET n 1.0\n*END\n"
	p, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if p.Net("n") == nil {
		t.Fatal("net missing")
	}
}

func TestNameMapExpansion(t *testing.T) {
	src := `*SPEF "x"
*DESIGN "mapped"
*NAME_MAP
*1 very/long/victim
*2 agg_net
*3 drv_cell
*D_NET *1 5.0e-15
*CONN
*I *3:Y O
*CAP
1 *1:1 3.0e-15
2 *1:1 *2:1 2.0e-15
*RES
1 *3:Y *1:1 100
*END
`
	p, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	n := p.Net("very/long/victim")
	if n == nil {
		t.Fatalf("mapped net missing; have %v", p.Nets())
	}
	if n.Conns[0].Pin != "drv_cell:Y" {
		t.Fatalf("conn pin = %q", n.Conns[0].Pin)
	}
	if n.Caps[0].Node != "very/long/victim:1" {
		t.Fatalf("cap node = %q", n.Caps[0].Node)
	}
	if n.Caps[1].Other != "agg_net:1" {
		t.Fatalf("coupling other = %q", n.Caps[1].Other)
	}
	if got := n.CouplingByNet()["agg_net"]; got != 2e-15 {
		t.Fatalf("coupling by net = %v", n.CouplingByNet())
	}
}

func TestNameMapErrors(t *testing.T) {
	cases := []string{
		"*NAME_MAP\nbogus entry here",       // missing *index
		"*D_NET a 1\n*NAME_MAP\n*1 x\n*END", // map inside net? NAME_MAP resets section
	}
	// The first is a hard error; the second is legal-ish per our grammar
	// (section switch), so only assert the first.
	if _, err := Parse(strings.NewReader(cases[0])); err == nil {
		t.Error("malformed NAME_MAP entry accepted")
	}
}

func TestUnmappedReferencePassesThrough(t *testing.T) {
	// A *N token with no map entry is kept verbatim rather than dropped.
	src := "*D_NET *9 1.0\n*END\n"
	p, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if p.Net("*9") == nil {
		t.Fatal("unmapped reference lost")
	}
}

// TestParseAcrossSegments: nets past openNets fill more than one segment,
// each sealed to its exact size and the next sized like it, and the
// database is still the reference parser's — and so is one that AddNet
// grows after the parse.
func TestParseAcrossSegments(t *testing.T) {
	src := bigSource(2*openNets + 100)
	want, err := parseReference(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.segs) != 3 {
		t.Fatalf("%d segments, want 3", len(got.segs))
	}
	for i, s := range got.segs {
		if s.open || cap(s.text) != len(s.text) || cap(s.caps) != len(s.caps) {
			t.Fatalf("segment %d not sealed to size: open %v, text %d/%d, caps %d/%d", i, s.open, len(s.text), cap(s.text), len(s.caps), cap(s.caps))
		}
	}
	parasiticsEqual(t, got, want)
	extra := &Net{Name: "extra", Conns: []Conn{{Pin: "x:Y", Dir: DirOut, Node: "x:Y"}}, Caps: []CapEntry{{Node: "x:Y", Other: "big/net_0:1", F: 1}}}
	for _, p := range []*Parasitics{got, want} {
		if err := p.AddNet(extra); err != nil {
			t.Fatal(err)
		}
	}
	parasiticsEqual(t, got, want)
}

// TestEntryFormatsLikeG pins Write's number rendering to fmt's %g, which
// it replaced: same bytes for every kind of value.
func TestEntryFormatsLikeG(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -2.5, 1e-15, 3.0000000000000004e-15, 123456789, 1e21, 1e-7,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		if got, want := string(entry(nil, v, "a", "b")), fmt.Sprintf(" a b %g\n", v); got != want {
			t.Errorf("entry(%v) = %q, want %q", v, got, want)
		}
	}
}

// Find returns the index of the named net, or -1.
func (p *Parasitics) Find(name string) int {
	if id, _, _ := p.find(name); id >= 0 {
		return p.NetNamed(id)
	}
	return -1
}

// Net returns the named net in its value form, or nil.
func (p *Parasitics) Net(name string) *Net {
	if i := p.Find(name); i >= 0 {
		return p.value(i)
	}
	return nil
}

// GroundCap and CouplingCap sum the grounded and the coupling capacitance
// entries.
func (n *Net) GroundCap() float64   { return n.sum(false) }
func (n *Net) CouplingCap() float64 { return n.sum(true) }

func (n *Net) sum(coupling bool) (sum float64) {
	for _, c := range n.Caps {
		if (c.Other != "") == coupling {
			sum += c.F
		}
	}
	return sum
}

// CouplingByNet returns total coupling capacitance grouped by the other
// net's name.
func (n *Net) CouplingByNet() map[string]float64 {
	out := make(map[string]float64)
	for _, c := range n.Caps {
		if c.Other != "" {
			out[NetOfNode(c.Other)] += c.F
		}
	}
	return out
}
