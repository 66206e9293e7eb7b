package sta

import (
	"math"
	"strings"
	"testing"

	"repro/internal/interval"
	"repro/internal/units"
)

func TestTimingFileRoundTrip(t *testing.T) {
	m := map[string]*Timing{
		"in0": {
			Rise:     interval.SetOf(0, 40*units.Pico),
			Fall:     interval.SetOf(10*units.Pico, 50*units.Pico),
			SlewRise: Range{Min: 20 * units.Pico, Max: 30 * units.Pico},
			SlewFall: Range{Min: 20 * units.Pico, Max: 30 * units.Pico},
		},
		"quiet": {
			SlewRise: emptyRange(),
			SlewFall: emptyRange(),
		},
		"twophase": {
			Rise: interval.NewSet(
				interval.New(5*units.Pico, 15*units.Pico),
				interval.New(600*units.Pico, 640*units.Pico),
			),
			SlewRise: Range{Min: 10 * units.Pico, Max: 10 * units.Pico},
			SlewFall: emptyRange(),
		},
	}
	var sb strings.Builder
	if err := WriteInputTiming(&sb, m); err != nil {
		t.Fatal(err)
	}
	got, err := ParseInputTiming(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, sb.String())
	}
	if len(got) != 3 {
		t.Fatalf("entries = %d", len(got))
	}
	in0 := got["in0"]
	if !sameSet(in0.Rise, m["in0"].Rise) || !sameSet(in0.Fall, m["in0"].Fall) {
		t.Fatalf("in0 windows = %+v", in0)
	}
	if in0.SlewRise != m["in0"].SlewRise {
		t.Fatalf("in0 slew = %+v", in0.SlewRise)
	}
	quiet := got["quiet"]
	if quiet.HasActivity() {
		t.Fatalf("quiet became active: %+v", quiet)
	}
	tp := got["twophase"]
	if tp.Rise.Len() != 2 || !tp.Fall.IsEmpty() {
		t.Fatalf("twophase = %+v", tp)
	}
	if !sameSet(tp.Rise, m["twophase"].Rise) {
		t.Fatalf("twophase windows = %v", tp.Rise)
	}
	if tp.SlewFall.valid() {
		t.Fatal("twophase fall slew should be invalid")
	}
}

func TestTimingFileInfinity(t *testing.T) {
	src := "input loop -inf:+inf -inf:+inf 2e-11 2e-11\n"
	got, err := ParseInputTiming(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if !got["loop"].Rise.IsInfinite() {
		t.Fatalf("rise = %v", got["loop"].Rise)
	}
	// Round trip preserves infinities.
	var sb strings.Builder
	if err := WriteInputTiming(&sb, got); err != nil {
		t.Fatal(err)
	}
	again, err := ParseInputTiming(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !again["loop"].Fall.IsInfinite() {
		t.Fatalf("fall after round trip = %v", again["loop"].Fall)
	}
}

func TestTimingFileComments(t *testing.T) {
	src := "# header\n\ninput a 0:1e-11 - 1e-11 2e-11\n"
	got, err := ParseInputTiming(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if got["a"] == nil || !got["a"].Fall.IsEmpty() {
		t.Fatalf("got = %+v", got["a"])
	}
}

// TestTimingFileErrors pins each rejection's exact text: the line it
// names and what it says is wrong.
func TestTimingFileErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"output a 0:1 0:1 1 1", `sta: line 1: unknown keyword "output"`},
		{"input", "sta: line 1: input wants a name"},
		{"input a 0:1", "sta: line 1: input wants NAME RISE FALL slewMin slewMax"},
		{"input a x:y - 1 1", `sta: line 1: rise window: bad window bounds "x:y"`},
		{"input a 5:1 - 1 1", "sta: line 1: rise window: inverted window [5, 1]"},
		{"input a 0 1 - 1 1", "sta: line 1: input wants NAME RISE FALL slewMin slewMax"},
		{"input a - - 1", "sta: line 1: input wants NAME RISE FALL slewMin slewMax"},
		{"input a - - x y", "sta: line 1: bad slew"},
		{"input a 0:1,2 - 1 1", `sta: line 1: rise window: window "2" wants lo:hi`},
		{"input a 0:1 0:1 1 1\ninput a 0:1 0:1 1 1", `sta: line 2: duplicate input "a"`},
		{"input a 0:1 - 1 1 extra\n", "sta: line 1: input wants NAME RISE FALL slewMin slewMax"},
		{"input a , - 1 1\n", `sta: line 1: rise window: window "" wants lo:hi`},
		{"input a 0:1, - 1 1\n", `sta: line 1: rise window: window "" wants lo:hi`},
		{"input a 0:1:2 - 1 1\n", `sta: line 1: rise window: window "0:1:2" wants lo:hi`},
		{"# c\n\n  input a 0:1 - 1 1  \ninput b 0:1e-11 1e400:1e401 1 1\n", `sta: line 4: fall window: bad window bounds "1e400:1e401"`},
	}
	for _, tc := range cases {
		_, err := ParseInputTiming(strings.NewReader(tc.src))
		if err == nil || err.Error() != tc.want {
			t.Errorf("ParseInputTiming(%q) = %v, want %s", tc.src, err, tc.want)
		}
	}
}

func TestNumFieldFormats(t *testing.T) {
	if numField(math.Inf(1)) != "+inf" || numField(math.Inf(-1)) != "-inf" {
		t.Fatal("infinity formatting")
	}
	if numField(1.5e-12) != "1.5e-12" {
		t.Fatalf("numField = %q", numField(1.5e-12))
	}
}

// A timing file can spell any float strconv.ParseFloat accepts, including
// "NaN" — and NaN compares false to everything, so the inverted-window
// check cannot reject it. It used to flow straight into interval.New,
// which panics on NaN bounds. The parser must answer with an error, never
// a panic. (Crasher surfaced by the nanguard analyzer.)
func TestParseInputTimingRejectsNaN(t *testing.T) {
	for _, src := range []string{
		"input a NaN:1e-10 - 1e-12 1e-12\n",
		"input a 0:NaN - 1e-12 1e-12\n",
		"input a - nan:nan 1e-12 1e-12\n",
	} {
		if _, err := ParseInputTiming(strings.NewReader(src)); err == nil {
			t.Errorf("ParseInputTiming(%q) accepted a NaN bound", src)
		}
	}
}
