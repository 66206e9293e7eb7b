package analysis

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"testing"
)

// moduleGOPATH is go/build's GOPATH before any golden-package test points
// it at testdata (package variables initialise before the first test).
var moduleGOPATH = build.Default.GOPATH

// TestAckOrderSeesTheRealHandlers is the analyzer's non-vacuity check: a
// rule that matches no production function passes every tree. Run over
// the real internal/server, it must find a journal mutation and a 2xx
// acknowledgement in each handler that acknowledges durable state.
func TestAckOrderSeesTheRealHandlers(t *testing.T) {
	// The golden-package tests in this binary switch go/build to GOPATH
	// mode over testdata for their source importer; this load resolves
	// repro/... through the module, so undo both for its duration.
	t.Setenv("GO111MODULE", "on")
	saved := build.Default.GOPATH
	build.Default.GOPATH = moduleGOPATH
	t.Cleanup(func() { build.Default.GOPATH = saved })

	bp, err := build.Import("repro/internal/server", ".", 0)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(bp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := newTypesInfo()
	tc := &types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := tc.Check(bp.ImportPath, fset, files, info)
	if err != nil {
		t.Fatal(err)
	}

	paired := map[string]bool{}
	probe := &Analyzer{Name: "ackorderprobe", Run: func(pass *Pass) error {
		ackOrderPairs(pass, func(fd *ast.FuncDecl, mutates, acks []*ast.CallExpr) {
			if len(acks) > 0 {
				paired[fd.Name.Name] = true
			}
		})
		return nil
	}}
	if _, err := Run(fset, files, pkg, info, []*Analyzer{probe}); err != nil {
		t.Fatal(err)
	}
	for _, handler := range []string{"handleCreate", "handleDelete", "handleSubmitJob", "handleCancelJob"} {
		if !paired[handler] {
			t.Errorf("ackorder finds no mutate-and-acknowledge pair in %s; it cannot catch an early ack there (found pairs in %v)", handler, paired)
		}
	}
}
