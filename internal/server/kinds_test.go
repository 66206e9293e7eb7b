package server

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestUnknownKindIsEngine pins what fail does with a kind the table lacks:
// the reply is a well-formed 500 engine a caller can act on, and the log
// names the kind so the missing row gets written.
func TestUnknownKindIsEngine(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	s := mustNew(t, Config{Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	}})
	rec := httptest.NewRecorder()
	s.fail(rec, &ErrorInfo{Kind: "no_such_kind", Message: "m"})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if ei := wantErrKind(t, rec.Body.Bytes(), "engine"); ei.Message != "m" {
		t.Fatalf("message %q did not survive", ei.Message)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 1 || !strings.Contains(logged[0], `"no_such_kind" has no row`) {
		t.Fatalf("log lines %q, want one naming the kind without a row", logged)
	}
}

// TestEveryKindLiteralHasARow walks the package's real non-test source: a
// kind is written either as a Kind: field of an ErrorInfo literal or as an
// assignment to classify's kind variable, and each must be a row of the
// table — a kind without one would be answered as engine (above) instead of
// as itself.
func TestEveryKindLiteralHasARow(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(name ast.Expr, value ast.Expr) {
		id, isIdent := name.(*ast.Ident)
		lit, isLit := value.(*ast.BasicLit)
		if !isIdent || !isLit || lit.Kind != token.STRING || (id.Name != "Kind" && id.Name != "kind") {
			return
		}
		kind, _ := strconv.Unquote(lit.Value)
		seen[kind] = true
		if _, ok := kinds[kind]; !ok {
			t.Errorf("kind %q is written in the source but has no row in the kind table", kind)
		}
	}
	for _, pkg := range pkgs {
		ast.Inspect(pkg, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				check(n.Key, n.Value)
			case *ast.AssignStmt:
				if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
					check(n.Lhs[0], n.Rhs[0])
				}
			}
			return true
		})
	}
	// The walk must be seeing the real handlers: a literal from each file
	// that writes one, and one of classify's.
	for _, kind := range []string{"busy", "breaker_open", "overloaded", "draining", "budget", "unreplayable", "shard_fatal", "storage", "deadline"} {
		if !seen[kind] {
			t.Errorf("the source walk did not find kind %q; it is not reading the real package (found %v)", kind, seen)
		}
	}
}
