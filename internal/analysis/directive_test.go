package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// checkSource typechecks one in-memory file (package "mapdeterm" so the
// repo-wide analyzer applies) and runs the given analyzers over it.
func checkSource(t *testing.T, src string, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "directive.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	tc := &types.Config{Importer: importer.Default()}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := tc.Check("mapdeterm", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return Run(fset, []*ast.File{f}, pkg, info, analyzers)
}

const badWaiverSrc = `package mapdeterm

func feed(m map[string]int, jobs chan string) {
	for k := range m {
		//snavet:ordered
		jobs <- k
	}
}
`

// A directive without a reason suppresses nothing and is itself reported.
func TestDirectiveMissingReason(t *testing.T) {
	diags := Active(checkSource(t, badWaiverSrc, []*Analyzer{MapDeterm}))
	var gotSend, gotHygiene bool
	for _, d := range diags {
		if strings.Contains(d.Message, "channel send") && !d.Suppressed {
			gotSend = true
		}
		if d.Analyzer == "snavetdirective" && strings.Contains(d.Message, "missing reason") {
			gotHygiene = true
		}
	}
	if !gotSend || !gotHygiene {
		t.Fatalf("want unsuppressed finding and missing-reason hygiene diag, got %v", diags)
	}
}

const staleWaiverSrc = `package mapdeterm

func fine(m map[string]int) int {
	n := 0
	//snavet:ordered summing is order-insensitive
	for range m {
		n++
	}
	return n
}
`

// A directive that suppresses nothing is stale and reported, so waivers
// die with the code they excused.
func TestDirectiveUnused(t *testing.T) {
	diags := Active(checkSource(t, staleWaiverSrc, []*Analyzer{MapDeterm}))
	if len(diags) != 1 || diags[0].Analyzer != "snavetdirective" || !strings.Contains(diags[0].Message, "unused") {
		t.Fatalf("want exactly one unused-directive diag, got %v", diags)
	}
}

const unknownKeySrc = `package mapdeterm

func nothing() {
	//snavet:nosuchcheck reasons abound
	_ = 0
}
`

// An unknown key is reported when the full suite runs (with a single
// analyzer selected the key may belong to an analyzer that simply is not
// running, so only multi-analyzer runs judge it).
func TestDirectiveUnknownKey(t *testing.T) {
	all := []*Analyzer{AckOrder, CtxLoop, DeferRelease, MapDeterm, NaNGuard}
	diags := Active(checkSource(t, unknownKeySrc, all))
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "unknown analyzer key") {
		t.Fatalf("want exactly one unknown-key diag, got %v", diags)
	}
	if diags := Active(checkSource(t, unknownKeySrc, []*Analyzer{MapDeterm})); len(diags) != 0 {
		t.Fatalf("single-analyzer run must not judge foreign keys, got %v", diags)
	}
}

// Suppressed findings survive in the raw diagnostic list (marked) but are
// filtered by Active; the waived directive counts as used.
func TestSuppressedMarkedNotActive(t *testing.T) {
	const src = `package mapdeterm

func feed(m map[string]int, jobs chan string) {
	for k := range m {
		//snavet:ordered consumer is an order-insensitive set
		jobs <- k
	}
}
`
	raw := checkSource(t, src, []*Analyzer{MapDeterm})
	if len(raw) != 1 || !raw[0].Suppressed {
		t.Fatalf("want one suppressed finding, got %v", raw)
	}
	if act := Active(raw); len(act) != 0 {
		t.Fatalf("Active must drop suppressed findings, got %v", act)
	}
}
