package experiments

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestIDsComplete(t *testing.T) {
	ids := IDs()
	want := []string{"A1", "A2", "A3", "F1", "F2", "F3", "T1", "T10", "T11", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9"}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("T99", Config{Quick: true}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestAllQuick(t *testing.T) {
	tables, err := All(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) < len(Index) {
		t.Fatalf("tables = %d, want at least %d", len(tables), len(Index))
	}
	for _, tb := range tables {
		if tb.Title == "" || len(tb.Columns) == 0 || len(tb.Rows) == 0 {
			t.Fatalf("empty table: %+v", tb)
		}
	}
}

func TestT1ModeOrdering(t *testing.T) {
	tables, err := T1Pessimism(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	col := func(name string) int {
		for i, c := range tb.Columns {
			if c == name {
				return i
			}
		}
		t.Fatalf("no column %q", name)
		return -1
	}
	vi, mi, di := col("violations"), col("mode"), col("design")
	// Group rows by design; the classical row (emitted first) bounds the
	// windowed rows.
	byDesign := map[string][]int{}
	order := map[string][]string{}
	for _, row := range tb.Rows {
		n, err := strconv.Atoi(row[vi])
		if err != nil {
			t.Fatalf("violations cell %q", row[vi])
		}
		byDesign[row[di]] = append(byDesign[row[di]], n)
		order[row[di]] = append(order[row[di]], row[mi])
	}
	for design, vs := range byDesign {
		for i := 1; i < len(vs); i++ {
			if vs[i] > vs[0] {
				t.Errorf("%s: windowed violations %v exceed classical (modes %v)", design, vs, order[design])
			}
		}
	}
}

func TestT2ModelConservative(t *testing.T) {
	tables, err := T2Accuracy(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	ci := -1
	for i, c := range tb.Columns {
		if c == "conservative" {
			ci = i
		}
	}
	for _, row := range tb.Rows {
		if row[ci] != "true" {
			t.Errorf("non-conservative row: %v", row)
		}
	}
}

func TestF1WindowedCollapsesAtLargeOffset(t *testing.T) {
	tables, err := F1Alignment(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	var mi int
	for i, c := range tb.Columns {
		if c == "members" {
			mi = i
		}
	}
	first, last := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
	if first[mi] != "2" {
		t.Errorf("zero offset members = %s, want 2", first[mi])
	}
	if last[mi] != "1" {
		t.Errorf("far offset members = %s, want 1", last[mi])
	}
}

func TestF2PeaksAttenuate(t *testing.T) {
	tables, err := F2Propagation(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	var pi int
	for i, c := range tb.Columns {
		if c == "peak" {
			pi = i
		}
	}
	// First stage must be the strongest.
	if len(tb.Rows) < 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if !strings.Contains(tb.Rows[0][pi], "V") {
		t.Fatalf("peak cell %q", tb.Rows[0][pi])
	}
}

func TestT4Converges(t *testing.T) {
	tables, err := T4Convergence(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	var ci int
	for i, c := range tb.Columns {
		if c == "converged" {
			ci = i
		}
	}
	for _, row := range tb.Rows {
		if row[ci] != "true" {
			t.Errorf("non-converged run: %v", row)
		}
	}
}

func TestT5FilteringConservative(t *testing.T) {
	tables, err := T5Filtering(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	var ci int
	for i, c := range tb.Columns {
		if c == "conservative" {
			ci = i
		}
	}
	for i, row := range tb.Rows {
		if i == 0 {
			continue // baseline row
		}
		if row[ci] != "true" {
			t.Errorf("filtering lost noise: %v", row)
		}
	}
}

func TestT7WindowedBoundedByClassical(t *testing.T) {
	tables, err := T7DeltaDelay(Config{Quick: false})
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	var ai, ci int
	for i, c := range tb.Columns {
		switch c {
		case "delta(all-aggr)":
			ai = i
		case "delta(noise-win)":
			ci = i
		}
	}
	sawEqual, sawZero := false, false
	for _, row := range tb.Rows {
		if row[ai] == row[ci] {
			sawEqual = true
		}
		if row[ci] == "0s" {
			sawZero = true
		}
	}
	if !sawEqual {
		t.Error("no offset where windowed delta matches classical (overlap band missing)")
	}
	if !sawZero {
		t.Error("no offset where windowed delta vanishes (separation missing)")
	}
}

func TestT6RatioShrinksWithSpan(t *testing.T) {
	tables, err := T6Combination(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	var ri int
	for i, c := range tb.Columns {
		if c == "noise-ratio(C/A)" {
			ri = i
		}
	}
	first, err1 := strconv.ParseFloat(tb.Rows[0][ri], 64)
	last, err2 := strconv.ParseFloat(tb.Rows[len(tb.Rows)-1][ri], 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("ratio cells: %v %v", err1, err2)
	}
	if !(last < first) {
		t.Errorf("ratio did not shrink: first %g last %g", first, last)
	}
	if first < 0.95 {
		t.Errorf("zero-span ratio = %g, want ~1", first)
	}
}

// TestT11BoundIsSound holds the windowed bound to T11's verdict at full
// fidelity: on every stagger, no sampled alignment of the aggressors'
// glitches peaks above the bound the engine reports. Quick mode skips the
// 100 ps stagger, the one where partly overlapping windows make a halved
// glitch tail report a bound below the sampled maximum.
func TestT11BoundIsSound(t *testing.T) {
	tables, err := T11MonteCarlo(Config{})
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	si := slices.Index(tb.Columns, "sound")
	if si < 0 || len(tb.Rows) != 3 {
		t.Fatalf("T11 has no sound column or not 3 staggers: %v, %d rows", tb.Columns, len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[si] != "true" {
			t.Errorf("stagger %s: windowed bound %s under the sampled maximum %s", row[0], row[5], row[4])
		}
	}
}
