package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Module is the packages of a module as Load reads them.
type Module struct {
	Fset *token.FileSet
	Pkgs []*Package // the packages matching Load's patterns, in dependency order
	imp  types.Importer
}

// Package is one package, parsed with comments and type-checked.
type Package struct {
	Dir   string   // Load's dir joined with the package's directory in the module
	Deps  []string // import paths it depends on, directly or not
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Load reads the module at dir the one way the source gates and the
// analyzers' golden tests read it: one go list -export -deps over patterns
// names each package's non-test files and the gc export data of everything
// it imports, and each of the module's packages matching patterns is parsed
// with comments and type-checked once against that export data.
func Load(dir string, patterns ...string) (*Module, error) {
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-f",
		"{{.ImportPath}}\t{{.Export}}{{if and .Module (not .DepOnly)}}\t{{.Module.Path}}\t{{join .GoFiles \" \"}}\t{{join .Deps \" \"}}{{end}}"},
		patterns...)...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v", err)
	}
	exports := map[string]string{}
	m := &Module{Fset: token.NewFileSet()}
	m.imp = importer.ForCompiler(m.Fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	// go list -deps lists a package after everything it imports, so the
	// export data a package needs is known by the time it is checked.
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		exports[f[0]] = f[1]
		if len(f) < 5 || f[3] == "" {
			continue
		}
		rel := strings.TrimPrefix(strings.TrimPrefix(f[0], f[2]), "/")
		var files []string
		for _, name := range strings.Fields(f[3]) {
			files = append(files, filepath.Join(dir, rel, name))
		}
		p, err := m.Check(f[0], files)
		if err != nil {
			return nil, err
		}
		p.Deps = strings.Fields(f[4])
		m.Pkgs = append(m.Pkgs, p)
	}
	return m, nil
}

// Check parses files with comments and type-checks them as the package
// path, against the export data Load listed.
func (m *Module) Check(path string, files []string) (*Package, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no Go files", path)
	}
	p := &Package{Dir: filepath.Dir(files[0]), Info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range files {
		f, err := parser.ParseFile(m.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.Files = append(p.Files, f)
	}
	conf := types.Config{Importer: m.imp}
	var err error
	if p.Types, err = conf.Check(path, m.Fset, p.Files, p.Info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", p.Dir, err)
	}
	return p, nil
}
