package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// The source gates hold two design rules of this tree on its syntax, so
// comments and strings never count. Each gate runs over the real files,
// which must pass, and again with testdata/gates/planted.go added, which
// must fail: a gate that cannot fail proves nothing.

// planted breaks every gate once (and carries decoys in a comment and a
// string that must not count).
const planted = "testdata/gates/planted.go"

// nameLimits is the names-at-the-edges gate: between parse and report a
// net is its evaluation-order position. The partitioner and the shard
// runner hold no name-keyed map; the window algebra holds none (a window
// set is a value); the parasitics path holds none (nodes, partner nets and
// nets are indexes past bind.New); non-test core holds only the ones its
// exported signatures, padding and the correlation sets still need. Each
// limit is the count today: lower it when a map goes, never raise it.
var nameLimits = []struct {
	paths []string
	limit int
}{
	{[]string{"internal/shard/partition.go", "internal/shard/runner.go"}, 0},
	{[]string{"internal/core"}, 18},
	{[]string{"internal/interval"}, 0},
	{[]string{"internal/rc", "internal/bind", "internal/noise"}, 0},
}

func TestGateNamesAtTheEdges(t *testing.T) {
	if got := mapStringTypes(t, []string{planted}); len(got) != 1 {
		t.Fatalf("%s: %d map[string] types found, want the 1 outside its decoys: %v", planted, len(got), got)
	}
	for _, g := range nameLimits {
		files := goFiles(t, g.paths...)
		if got := mapStringTypes(t, files); len(got) > g.limit {
			t.Errorf("%v: %d map[string] types, limit %d:\n%s", g.paths, len(got), g.limit, strings.Join(got, "\n"))
		}
		if got := mapStringTypes(t, append(files, planted)); len(got) <= g.limit {
			t.Errorf("%v: the gate passes with %s added (%d types, limit %d); lower the limit to today's count", g.paths, planted, len(got), g.limit)
		}
	}
}

// errorStatuses are the statuses only an error reply uses.
var errorStatuses = map[string]bool{
	"StatusBadRequest": true, "StatusNotFound": true, "StatusConflict": true,
	"StatusServiceUnavailable": true, "StatusTooManyRequests": true,
	"StatusInternalServerError": true, "StatusUnprocessableEntity": true,
}

// TestGateOneExit is the one-exit gate: an error reply's HTTP status and
// its Retry-After come from the kind table in internal/server/wire.go and
// are chosen nowhere else, so no other non-test file of the package names
// an error status. The one exception is not an error reply: /readyz
// (handleReady) answers its usual body with 503 while draining.
func TestGateOneExit(t *testing.T) {
	var files []string
	for _, f := range goFiles(t, "internal/server") {
		if filepath.Base(f) != "wire.go" {
			files = append(files, f)
		}
	}
	if got := errorStatusUses(t, []string{planted}); len(got) != 1 {
		t.Fatalf("%s: %d error statuses found, want the 1 outside its decoys: %v", planted, len(got), got)
	}
	if got := errorStatusUses(t, files); len(got) > 0 {
		t.Errorf("error statuses chosen outside wire.go:\n%s", strings.Join(got, "\n"))
	}
	if got := errorStatusUses(t, append(files, planted)); len(got) == 0 {
		t.Errorf("the gate passes with %s added", planted)
	}
}

// goFiles expands each path, a .go file or a package directory, to its
// non-test Go files.
func goFiles(t *testing.T, paths ...string) []string {
	t.Helper()
	var out []string
	for _, p := range paths {
		if strings.HasSuffix(p, ".go") {
			out = append(out, p)
			continue
		}
		m, err := filepath.Glob(filepath.Join(p, "*.go"))
		if err != nil || len(m) == 0 {
			t.Fatalf("%s: no Go files (%v)", p, err)
		}
		for _, f := range m {
			if !strings.HasSuffix(f, "_test.go") {
				out = append(out, f)
			}
		}
	}
	return out
}

// inspect parses each file and walks its syntax tree, passing the
// enclosing function's name (empty at top level) with every node.
func inspect(t *testing.T, files []string, visit func(fset *token.FileSet, fn string, n ast.Node)) {
	t.Helper()
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn := ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if n != nil {
					visit(fset, fn, n)
				}
				return true
			})
		}
	}
}

// mapStringTypes returns the position of every map type keyed by string.
func mapStringTypes(t *testing.T, files []string) []string {
	var out []string
	inspect(t, files, func(fset *token.FileSet, _ string, n ast.Node) {
		if m, ok := n.(*ast.MapType); ok {
			if k, ok := m.Key.(*ast.Ident); ok && k.Name == "string" {
				out = append(out, fset.Position(m.Pos()).String())
			}
		}
	})
	return out
}

// errorStatusUses returns the position of every http.Status… selector
// naming an error status, except handleReady's 503.
func errorStatusUses(t *testing.T, files []string) []string {
	var out []string
	inspect(t, files, func(fset *token.FileSet, fn string, n ast.Node) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !errorStatuses[sel.Sel.Name] {
			return
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "http" {
			return
		}
		if fn == "handleReady" && sel.Sel.Name == "StatusServiceUnavailable" {
			return
		}
		out = append(out, fset.Position(sel.Pos()).String())
	})
	return out
}
