package sta

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/interval"
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
// Options.InputTiming.
//
//snavet:ctxloop file codec bounded by the input file; cancellation belongs to the caller's reader
func ParseInputTiming(r io.Reader) (map[string]*Timing, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	out := make(map[string]*Timing)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if f[0] != "input" {
			return nil, fmt.Errorf("sta: line %d: unknown keyword %q", lineNo, f[0])
		}
		if len(f) < 2 {
			return nil, fmt.Errorf("sta: line %d: input wants a name", lineNo)
		}
		name := f[1]
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
		slew := Range{Min: sMin, Max: sMax}
		t := &Timing{Rise: rise, Fall: fall, SlewRise: emptyRange(), SlewFall: emptyRange()}
		if !rise.IsEmpty() {
			t.SlewRise = slew
		}
		if !fall.IsEmpty() {
			t.SlewFall = slew
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("sta: line %d: duplicate input %q", lineNo, name)
		}
		out[name] = t
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sta: line %d: %w", lineNo+1, err)
	}
	return out, nil
}

// parseWinField parses "-" or a comma-separated list of lo:hi windows.
func parseWinField(field string) (interval.Set, error) {
	if field == "-" {
		return interval.EmptySet(), nil
	}
	var ws []interval.Window
	for _, part := range strings.Split(field, ",") {
		bounds := strings.Split(part, ":")
		if len(bounds) != 2 {
			return interval.EmptySet(), fmt.Errorf("window %q wants lo:hi", part)
		}
		lo, err1 := parseNum(bounds[0])
		hi, err2 := parseNum(bounds[1])
		if err1 != nil || err2 != nil {
			return interval.EmptySet(), fmt.Errorf("bad window bounds %q", part)
		}
		// ParseFloat accepts "NaN", and NaN compares false to everything,
		// so the inverted-window check below cannot catch it — reject it
		// explicitly or interval.New panics on attacker-controlled input.
		if math.IsNaN(lo) || math.IsNaN(hi) {
			return interval.EmptySet(), fmt.Errorf("NaN window bound in %q", part)
		}
		if lo > hi {
			return interval.EmptySet(), fmt.Errorf("inverted window [%g, %g]", lo, hi)
		}
		ws = append(ws, interval.New(lo, hi))
	}
	return interval.NewSet(ws...), nil
}

func parseNum(s string) (float64, error) {
	switch s {
	case "+inf", "inf":
		return math.Inf(1), nil
	case "-inf":
		return math.Inf(-1), nil
	}
	v, err := strconv.ParseFloat(s, 64)
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
