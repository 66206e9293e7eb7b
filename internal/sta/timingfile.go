package sta

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/interval"
	"repro/internal/textio"
)

// The ".win" input-timing file format carries per-port switching windows
// between tools (netgen emits one, sna consumes it):
//
//	# comment
//	input NAME RISE FALL slewMin slewMax
//
// where RISE and FALL are window sets: "-" for a transition that never
// happens, or a comma-separated list of lo:hi windows, e.g.
// "0:4e-11,6e-10:6.4e-10" for a two-phase input. Bounds accept
// "-inf"/"+inf". All values are seconds.

// WriteInputTiming renders a port-timing map in .win format.
//
//snavet:ctxloop file codec bounded by the timing map; cancellation belongs to the caller's writer
func WriteInputTiming(w io.Writer, m map[string]*Timing) error {
	bw := bufio.NewWriter(w)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := m[n]
		slew := t.SlewRise
		if !slew.valid() {
			slew = t.SlewFall
		}
		if !slew.valid() {
			slew = Range{Min: 0, Max: 0}
		}
		fmt.Fprintf(bw, "input %s %s %s %s %s\n",
			n, winField(t.Rise), winField(t.Fall),
			numField(slew.Min), numField(slew.Max))
	}
	return bw.Flush()
}

func winField(s interval.Set) string {
	if s.IsEmpty() {
		return "-"
	}
	parts := make([]string, 0, s.Len())
	for i := 0; i < s.Len(); i++ {
		w := s.At(i)
		parts = append(parts, numField(w.Lo)+":"+numField(w.Hi))
	}
	return strings.Join(parts, ",")
}

func numField(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+inf"
	case math.IsInf(v, -1):
		return "-inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParseInputTiming reads a .win file into a port-timing map suitable for
// Options.InputTiming. It reads line views and parses them in place: a
// line costs one allocation, its name; the timings come from slabs.
//
//snavet:ctxloop file codec bounded by the input file; cancellation belongs to the caller's reader
func ParseInputTiming(r io.Reader) (map[string]*Timing, error) {
	lr := textio.NewLineReader(r)
	out := make(map[string]*Timing)
	var (
		f    [][]byte
		slab []Timing
	)
	for lineNo := 1; ; lineNo++ {
		raw, ok, err := lr.Next()
		if err != nil {
			return nil, fmt.Errorf("sta: line %d: %w", lineNo, err)
		}
		if !ok {
			return out, nil
		}
		line := bytes.TrimSpace(raw)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		f = textio.SplitFields(line, f[:0])
		if string(f[0]) != "input" {
			return nil, fmt.Errorf("sta: line %d: unknown keyword %q", lineNo, f[0])
		}
		if len(f) < 2 {
			return nil, fmt.Errorf("sta: line %d: input wants a name", lineNo)
		}
		if len(f) != 6 {
			return nil, fmt.Errorf("sta: line %d: input wants NAME RISE FALL slewMin slewMax", lineNo)
		}
		rise, err := parseWinField(f[2])
		if err != nil {
			return nil, fmt.Errorf("sta: line %d: rise window: %w", lineNo, err)
		}
		fall, err := parseWinField(f[3])
		if err != nil {
			return nil, fmt.Errorf("sta: line %d: fall window: %w", lineNo, err)
		}
		sMin, err1 := parseNum(f[4])
		sMax, err2 := parseNum(f[5])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("sta: line %d: bad slew", lineNo)
		}
		if _, dup := out[string(f[1])]; dup {
			return nil, fmt.Errorf("sta: line %d: duplicate input %q", lineNo, f[1])
		}
		if len(slab) == cap(slab) {
			slab = make([]Timing, 0, min(max(64, 2*cap(slab)), 4096))
		}
		slab = append(slab, Timing{Rise: rise, Fall: fall, SlewRise: emptyRange(), SlewFall: emptyRange()})
		t := &slab[len(slab)-1]
		slew := Range{Min: sMin, Max: sMax}
		if !rise.IsEmpty() {
			t.SlewRise = slew
		}
		if !fall.IsEmpty() {
			t.SlewFall = slew
		}
		out[string(f[1])] = t
	}
}

// parseWinField parses "-" or a comma-separated list of lo:hi windows.
func parseWinField(field []byte) (interval.Set, error) {
	if string(field) == "-" {
		return interval.EmptySet(), nil
	}
	var buf [4]interval.Window
	ws := buf[:0]
	for rest, more := field, true; more; {
		var part []byte
		part, rest, more = bytes.Cut(rest, []byte(","))
		lo, hi, found := bytes.Cut(part, []byte(":"))
		if !found || bytes.IndexByte(hi, ':') >= 0 {
			return interval.EmptySet(), fmt.Errorf("window %q wants lo:hi", part)
		}
		l, err1 := parseNum(lo)
		h, err2 := parseNum(hi)
		if err1 != nil || err2 != nil {
			return interval.EmptySet(), fmt.Errorf("bad window bounds %q", part)
		}
		// ParseFloat accepts "NaN", and NaN compares false to everything,
		// so the inverted-window check below cannot catch it — reject it
		// explicitly or interval.New panics on attacker-controlled input.
		if math.IsNaN(l) || math.IsNaN(h) {
			return interval.EmptySet(), fmt.Errorf("NaN window bound in %q", part)
		}
		if l > h {
			return interval.EmptySet(), fmt.Errorf("inverted window [%g, %g]", l, h)
		}
		ws = append(ws, interval.New(l, h))
	}
	return interval.NewSet(ws...), nil
}

func parseNum(b []byte) (float64, error) {
	switch string(b) {
	case "+inf", "inf":
		return math.Inf(1), nil
	case "-inf":
		return math.Inf(-1), nil
	}
	v, err := strconv.ParseFloat(textio.View(b), 64)
	if err != nil {
		return 0, err
	}
	// NaN compares false against everything, so it would slip past the
	// inverted-window check and panic inside interval.New.
	if math.IsNaN(v) {
		return 0, fmt.Errorf("NaN is not a valid value")
	}
	return v, nil
}
