package repro

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The source gates hold design rules of this tree on its syntax (and, for
// what a marshalled value holds, its types), so comments and strings never
// count. Each gate runs over the real files, which must pass, and over
// testdata/gates/planted.go, which must fail it: a gate that cannot fail
// proves nothing.

// planted breaks every gate once (and carries decoys in a comment and a
// string that must not count).
const planted = "testdata/gates/planted.go"

// nameLimits is the names-at-the-edges gate: between parse and report a
// net is its net ID, or its evaluation-order position on the shard wire.
// The partitioner and the shard runner hold no name-keyed map; the window
// algebra holds none (a window set is a value); the parasitics path holds
// none (nodes, partner nets and nets are indexes past bind.New). Non-test
// core holds nine, every one at an edge that speaks names: the result's
// net index (Result.Nets and the make in newResult; item 6 turns the result
// into a table), IterativeResult.Padding (what a report and a sharded run's
// outcome compare) with PaddingByName, its one builder (return type and
// make), and Session's padding record (the field, Padding, Reanalyze and
// RestoreSession), which keeps the names a service journals, a net the
// design lacks included. Non-test sta holds four, the .win edge's
// (Options.InputTiming, WriteInputTiming, ParseInputTiming and its make):
// window padding is by net ID. Each limit is the count today: lower it
// when a map goes, never raise it.
var nameLimits = []struct {
	paths []string
	limit int
}{
	{[]string{"internal/shard/partition.go", "internal/shard/runner.go"}, 0},
	{[]string{"internal/core"}, 9},
	{[]string{"internal/sta"}, 4},
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

// TestGateOneDesignHash is the one-key gate: a design spec is hashed where
// it enters the process — a create, a replayed create record, a run
// token's first init on a worker — by one function, keysOf, which returns
// both the design key and the run key; everything after carries them. So
// exactly one function of non-test internal/server calls crypto/sha256.
func TestGateOneDesignHash(t *testing.T) {
	if got := sha256Callers(t, []string{planted}); len(got) != 1 {
		t.Fatalf("%s: %d functions calling sha256 found, want the 1 outside its decoys: %v", planted, len(got), got)
	}
	files := goFiles(t, "internal/server")
	if got := sha256Callers(t, files); len(got) != 1 {
		t.Errorf("internal/server: %d functions call sha256, want exactly 1 (keysOf): %v", len(got), got)
	}
	if got := sha256Callers(t, append(files, planted)); len(got) == 1 {
		t.Errorf("the gate passes with %s added", planted)
	}
}

// fileWrites are the calls that write, move, remove or list files, by
// package.
var fileWrites = map[string][]string{
	"os":       {"WriteFile", "Create", "Rename", "Remove", "RemoveAll", "Mkdir", "MkdirAll"},
	"filepath": {"Glob"},
}

// TestGateStateIsJournaled is the one-store gate: the service's durable
// state is its two journals — sessions.wal and jobs/jobs.wal, which
// internal/wal writes — and a cut-off iterate's round state rides them.
// So no non-test file of internal/server, internal/jobs or internal/shard
// writes, renames, removes or lists a file of its own.
func TestGateStateIsJournaled(t *testing.T) {
	if got := fileWriteCalls(t, []string{planted}); len(got) != 1 {
		t.Fatalf("%s: %d file writes found, want the 1 outside its decoys: %v", planted, len(got), got)
	}
	files := goFiles(t, "internal/server", "internal/jobs", "internal/shard")
	if got := fileWriteCalls(t, files); len(got) > 0 {
		t.Errorf("the service writes files beside its journals:\n%s", strings.Join(got, "\n"))
	}
	if got := fileWriteCalls(t, append(files, planted)); len(got) == 0 {
		t.Errorf("the gate passes with %s added", planted)
	}
}

// fileWriteCalls returns the position of every call in fileWrites.
func fileWriteCalls(t *testing.T, files []string) []string {
	var out []string
	inspect(t, files, func(fset *token.FileSet, _ string, n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		if x, ok := sel.X.(*ast.Ident); ok && slices.Contains(fileWrites[x.Name], sel.Sel.Name) {
			out = append(out, fset.Position(call.Pos()).String())
		}
	})
	return out
}

// sha256Callers returns each function (by name and position) that calls
// into crypto/sha256.
func sha256Callers(t *testing.T, files []string) []string {
	seen := map[string]bool{}
	var out []string
	inspect(t, files, func(fset *token.FileSet, fn string, n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		if x, ok := sel.X.(*ast.Ident); ok && x.Name == "sha256" {
			at := fset.Position(call.Pos())
			if key := at.Filename + ":" + fn; !seen[key] {
				seen[key] = true
				out = append(out, fn+" "+at.String())
			}
		}
	})
	return out
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

// TestGateOneWritePath is the one-write-path gate. The JSON a reply or a
// report carries is written once, by internal/report's encoders, straight
// from the engine's results: BuildJSON and BuildDelayJSON build the schema
// tree only as the oracle those encoders are tested against, so nothing
// outside _test.go files and benchmark/ calls them. And a finished job's
// result is stored as the bytes its analysis encoded and is spliced into
// replies and journal records as it is: non-test server and jobs code
// never hands encoding/json a value that holds one (a json.RawMessage)
// unless it cleared that member first.
func TestGateOneWritePath(t *testing.T) {
	if got := buildJSONCalls(t, []string{planted}); len(got) != 1 {
		t.Fatalf("%s: %d BuildJSON calls found, want the 1 outside its decoys: %v", planted, len(got), got)
	}
	files := treeGoFiles(t, "benchmark")
	if got := buildJSONCalls(t, files); len(got) > 0 {
		t.Errorf("the schema tree is built outside tests and benchmark/:\n%s", strings.Join(got, "\n"))
	}
	if got := buildJSONCalls(t, append(files, planted)); len(got) == 0 {
		t.Errorf("the BuildJSON gate passes with %s added", planted)
	}

	// planted.go imports internal/chaos too, for the test-seam gate.
	exports := exportData(t, "./internal/server", "./internal/jobs", "./internal/chaos")
	if got := marshalsStored(t, exports, []string{planted}); len(got) != 1 {
		t.Fatalf("%s: %d marshals of a stored result found, want the 1 outside its decoy: %v", planted, len(got), got)
	}
	for _, dir := range []string{"internal/server", "internal/jobs"} {
		if got := marshalsStored(t, exports, goFiles(t, dir)); len(got) > 0 {
			t.Errorf("%s marshals a stored job result:\n%s", dir, strings.Join(got, "\n"))
		}
	}
}

// treeGoFiles lists the module's non-test Go files outside testdata,
// hidden directories and the top-level directories named in skip.
func treeGoFiles(t *testing.T, skip ...string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (slices.Contains(skip, path) || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// buildJSONCalls returns the position of every call of report.BuildJSON or
// BuildDelayJSON (unqualified inside package report).
func buildJSONCalls(t *testing.T, files []string) []string {
	var out []string
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var name string
			switch fn := call.Fun.(type) {
			case *ast.SelectorExpr:
				if x, ok := fn.X.(*ast.Ident); ok && x.Name == "report" {
					name = fn.Sel.Name
				}
			case *ast.Ident:
				if f.Name.Name == "report" {
					name = fn.Name
				}
			}
			if name == "BuildJSON" || name == "BuildDelayJSON" {
				out = append(out, fset.Position(call.Pos()).String())
			}
			return true
		})
	}
	return out
}

// testSeams are the packages only tests may use: the fault injectors and
// the synthetic-design generator.
var testSeams = []string{"repro/internal/chaos", "repro/internal/workload"}

// TestGateTestSeamsStayInTests is the test-seam gate. Fault injection is
// a test seam, not a product surface: the shipped binaries link neither
// the injectors nor the design generator, and no non-test file imports
// internal/chaos — its hooks reach the product only through the function
// seams tests set. The dependency half is shown to fail on netgen, which
// links the generator by design.
func TestGateTestSeamsStayInTests(t *testing.T) {
	if got := linkedSeams(t, "./cmd/netgen"); len(got) == 0 {
		t.Fatalf("./cmd/netgen: no test seam found among its dependencies; the dependency check cannot fail")
	}
	if got := linkedSeams(t, "./cmd/sna", "./cmd/snad"); len(got) > 0 {
		t.Errorf("the shipped binaries link test seams: %v", got)
	}

	if got := chaosImports(t, []string{planted}); len(got) != 1 {
		t.Fatalf("%s: %d imports of internal/chaos found, want 1: %v", planted, len(got), got)
	}
	files := treeGoFiles(t)
	if got := chaosImports(t, files); len(got) > 0 {
		t.Errorf("non-test files import internal/chaos:\n%s", strings.Join(got, "\n"))
	}
	if got := chaosImports(t, append(files, planted)); len(got) == 0 {
		t.Errorf("the import gate passes with %s added", planted)
	}
}

// linkedSeams returns the test seams among the given packages'
// dependencies.
func linkedSeams(t *testing.T, pkgs ...string) []string {
	t.Helper()
	out, err := exec.Command("go", append([]string{"list", "-deps"}, pkgs...)...).Output()
	if err != nil {
		t.Fatalf("go list -deps %v: %v", pkgs, err)
	}
	var got []string
	for _, dep := range strings.Fields(string(out)) {
		if slices.Contains(testSeams, dep) {
			got = append(got, dep)
		}
	}
	return got
}

// chaosImports returns the position of every import of internal/chaos.
func chaosImports(t *testing.T, files []string) []string {
	t.Helper()
	var out []string
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"repro/internal/chaos"` {
				out = append(out, fset.Position(imp.Pos()).String())
			}
		}
	}
	return out
}

// exportData maps each package the given ones import, directly or not, to
// the export data go list compiles for it.
func exportData(t *testing.T, pkgs ...string) map[string]string {
	t.Helper()
	out, err := exec.Command("go", append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}, pkgs...)...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	m := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "=")
		m[path] = file
	}
	return m
}

// marshalsStored type-checks files, one package, and returns the position
// of every json.Marshal, json.MarshalIndent, Encoder.Encode or writeJSON
// whose value holds a json.RawMessage in a member the function did not set
// to nil on that variable first.
func marshalsStored(t *testing.T, exports map[string]string, files []string) []string {
	t.Helper()
	fset, parsed, _, info := typeCheck(t, exports, files)
	var out []string
	for _, f := range parsed {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// The members each variable has set to nil in this function.
			cleared := map[types.Object]map[string]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != len(as.Rhs) {
					return true
				}
				for i, lhs := range as.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || !info.Types[as.Rhs[i]].IsNil() {
						continue
					}
					if x, ok := sel.X.(*ast.Ident); ok {
						obj := info.Uses[x]
						if cleared[obj] == nil {
							cleared[obj] = map[string]bool{}
						}
						cleared[obj][sel.Sel.Name] = true
					}
				}
				return true
			})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				arg := encodedArg(info, call)
				if arg == nil {
					return true
				}
				var obj types.Object
				if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
					arg = u.X
				}
				if id, ok := arg.(*ast.Ident); ok {
					obj = info.Uses[id]
				}
				for _, member := range rawMembers(info.TypeOf(arg)) {
					if !cleared[obj][member] {
						out = append(out, fset.Position(call.Pos()).String())
						break
					}
				}
				return true
			})
		}
	}
	return out
}

// typeCheck parses files, one package, and type-checks them against the
// export data of the packages they import.
func typeCheck(t *testing.T, exports map[string]string, files []string) (*token.FileSet, []*ast.File, *types.Package, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	var parsed []*ast.File
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		parsed = append(parsed, f)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	pkg, err := conf.Check(parsed[0].Name.Name, fset, parsed, info)
	if err != nil {
		t.Fatalf("type-checking %v: %v", files, err)
	}
	return fset, parsed, pkg, info
}

// TestGateDesignHoldsNoPointers is the pointer-free design gate: the
// design database is resident from the first parsed line to the last
// victim, so nothing it stores may be something the collector traces.
// Every element of every table reachable from netlist.Design — record
// chunks, the name arena, the name index, the connection-list pool, the
// cached views — is free of pointers, strings, slices, maps, interfaces,
// chans and funcs. And the engines keep netlist IDs: no struct field or
// slice element of non-test core, sta, noise or bind is a pointer into the
// netlist (the *netlist.Design they analyze aside).
func TestGateDesignHoldsNoPointers(t *testing.T) {
	exports := exportData(t, "./internal/netlist", "./internal/server", "./internal/jobs", "./internal/chaos")
	if got := pointerElements(t, exports, []string{planted}); len(got) != 1 {
		t.Fatalf("%s: %d pointer-bearing design elements found, want the 1 outside its decoys: %v", planted, len(got), got)
	}
	if got := pointerElements(t, exports, goFiles(t, "internal/netlist")); len(got) > 0 {
		t.Errorf("the design stores elements the collector must scan:\n%s", strings.Join(got, "\n"))
	}

	if got := netlistPointers(t, []string{planted}); len(got) != 1 {
		t.Fatalf("%s: %d pointers into the netlist found, want the 1 outside its decoys: %v", planted, len(got), got)
	}
	files := goFiles(t, "internal/core", "internal/sta", "internal/noise", "internal/bind")
	if got := netlistPointers(t, files); len(got) > 0 {
		t.Errorf("the engines store pointers into the netlist:\n%s", strings.Join(got, "\n"))
	}
	if got := netlistPointers(t, append(files, planted)); len(got) == 0 {
		t.Errorf("the netlist-pointer gate passes with %s added", planted)
	}
}

// pointerElements type-checks files, one package, and names every table
// element reachable from its Design type that holds a pointer. A table is
// any slice reached through Design's fields, pointers and nested structs;
// its element is what remains after peeling nested slices (a chunk
// directory of chunks of records has the record as its element).
func pointerElements(t *testing.T, exports map[string]string, files []string) []string {
	t.Helper()
	_, _, pkg, _ := typeCheck(t, exports, files)
	design := pkg.Scope().Lookup("Design")
	if design == nil {
		t.Fatalf("%v: no Design type", files)
	}
	var out []string
	seen := map[types.Type]bool{}
	var walk func(typ types.Type, path string)
	walk = func(typ types.Type, path string) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch u := typ.Underlying().(type) {
		case *types.Pointer:
			walk(u.Elem(), path)
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				walk(u.Field(i).Type(), path+"."+u.Field(i).Name())
			}
		case *types.Slice:
			elem := u.Elem()
			for s, ok := elem.Underlying().(*types.Slice); ok; s, ok = elem.Underlying().(*types.Slice) {
				elem = s.Elem()
			}
			if holdsPointer(elem) {
				out = append(out, path+": "+elem.String())
			}
		}
	}
	walk(design.Type(), "Design")
	return out
}

// holdsPointer reports whether a value of typ holds anything the
// collector traces.
func holdsPointer(typ types.Type) bool {
	switch u := typ.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.String || u.Kind() == types.UnsafePointer
	case *types.Array:
		return holdsPointer(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if holdsPointer(u.Field(i).Type()) {
				return true
			}
		}
		return false
	}
	return true // pointer, slice, map, interface, chan, func
}

// netlistPointers returns the position of every *netlist.X other than
// *netlist.Design that is a struct field's type, part of one (a func
// field's signature aside), or a slice's element.
func netlistPointers(t *testing.T, files []string) []string {
	found := map[string]bool{}
	var out []string
	note := func(fset *token.FileSet, e ast.Expr) {
		star, ok := e.(*ast.StarExpr)
		if !ok {
			return
		}
		sel, ok := star.X.(*ast.SelectorExpr)
		if !ok {
			return
		}
		if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "netlist" && sel.Sel.Name != "Design" {
			if pos := fset.Position(star.Pos()).String(); !found[pos] {
				found[pos] = true
				out = append(out, pos)
			}
		}
	}
	inspect(t, files, func(fset *token.FileSet, _ string, n ast.Node) {
		switch n := n.(type) {
		case *ast.ArrayType:
			note(fset, n.Elt)
		case *ast.StructType:
			for _, f := range n.Fields.List {
				ast.Inspect(f.Type, func(m ast.Node) bool {
					if e, ok := m.(ast.Expr); ok {
						note(fset, e)
					}
					_, fn := m.(*ast.FuncType)
					return !fn
				})
			}
		}
	})
	return out
}

// encodedArg returns the value argument of a call to one of encoding/json's
// encoders or to a writeJSON helper, or nil for any other call.
func encodedArg(info *types.Info, call *ast.CallExpr) ast.Expr {
	var id *ast.Ident
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fn.Sel
	case *ast.Ident:
		id = fn
	}
	obj, ok := info.Uses[id].(*types.Func)
	switch {
	case !ok:
	case obj.Pkg() != nil && obj.Pkg().Path() == "encoding/json" && (obj.Name() == "Marshal" || obj.Name() == "MarshalIndent" || obj.Name() == "Encode"):
		return call.Args[0]
	case obj.Name() == "writeJSON":
		return call.Args[len(call.Args)-1]
	}
	return nil
}

// rawMembers names the members of a struct (or pointer to one) whose type
// holds a json.RawMessage; a value that holds one some other way is "*",
// which nothing clears.
func rawMembers(typ types.Type) []string {
	if p, ok := typ.Underlying().(*types.Pointer); ok {
		typ = p.Elem()
	}
	st, ok := typ.Underlying().(*types.Struct)
	if !ok || isRaw(typ) {
		if holdsRaw(typ, map[types.Type]bool{}) {
			return []string{"*"}
		}
		return nil
	}
	var out []string
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); holdsRaw(f.Type(), map[types.Type]bool{}) {
			out = append(out, f.Name())
		}
	}
	return out
}

func isRaw(typ types.Type) bool {
	n, ok := types.Unalias(typ).(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "encoding/json" && n.Obj().Name() == "RawMessage"
}

func holdsRaw(typ types.Type, seen map[types.Type]bool) bool {
	if isRaw(typ) {
		return true
	}
	if seen[typ] {
		return false
	}
	seen[typ] = true
	switch u := typ.Underlying().(type) {
	case *types.Pointer:
		return holdsRaw(u.Elem(), seen)
	case *types.Slice:
		return holdsRaw(u.Elem(), seen)
	case *types.Array:
		return holdsRaw(u.Elem(), seen)
	case *types.Map:
		return holdsRaw(u.Key(), seen) || holdsRaw(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if holdsRaw(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

// optionTypes are the analysis pipeline's option types, by package name
// and type name.
var optionTypes = []string{"core.Options", "sta.Options", "lint.Config"}

// TestGateOptionsAreSet is the no-idle-knob gate: every exported field of
// an option type is written by some non-test file of the module, benchmark/
// included — as a composite-literal key or an assignment's target, resolved
// by type. A fill method's default is not a write: a field that only its
// default sets has one value in use and is a constant.
func TestGateOptionsAreSet(t *testing.T) {
	exports := exportData(t, "./...")
	want := []string{"planted.Options.Budget", "planted.Options.Vdd"}
	if got := unsetOptions(t, exports, [][]string{{planted}}, []string{"planted.Options"}); !slices.Equal(got, want) {
		t.Fatalf("%s: unset option fields %v, want %v (the ones outside its decoys)", planted, got, want)
	}
	out, err := exec.Command("go", "list", "-f", `{{.Dir}}{{range .GoFiles}} {{.}}{{end}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs [][]string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		var files []string
		for _, name := range f[1:] {
			files = append(files, filepath.Join(f[0], name))
		}
		if len(files) > 0 {
			pkgs = append(pkgs, files)
		}
	}
	if got := unsetOptions(t, exports, pkgs, optionTypes); len(got) > 0 {
		t.Errorf("option fields no non-test code sets (make each a constant, or delete it):\n%s", strings.Join(got, "\n"))
	}
}

// unsetOptions type-checks each package, given as its files, and returns
// the exported fields of the named option types ("pkg.Type") that no file
// writes, sorted. Every named type must be declared by one of the packages.
func unsetOptions(t *testing.T, exports map[string]string, pkgs [][]string, typeNames []string) []string {
	t.Helper()
	var fields []string
	written := map[string]bool{}
	for _, files := range pkgs {
		_, parsed, pkg, info := typeCheck(t, exports, files)
		for _, name := range typeNames {
			if pkgName, typ, _ := strings.Cut(name, "."); pkgName == pkg.Name() {
				st := pkg.Scope().Lookup(typ).Type().Underlying().(*types.Struct)
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						fields = append(fields, name+"."+f.Name())
					}
				}
			}
		}
		for _, f := range parsed {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "fill" {
					continue
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						owner := namedType(info.TypeOf(n))
						for _, e := range n.Elts {
							if kv, ok := e.(*ast.KeyValueExpr); ok {
								if key, ok := kv.Key.(*ast.Ident); ok {
									written[owner+"."+key.Name] = true
								}
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
								if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
									written[namedType(info.TypeOf(sel.X))+"."+sel.Sel.Name] = true
								}
							}
						}
					}
					return true
				})
			}
		}
	}
	for _, name := range typeNames {
		if !slices.ContainsFunc(fields, func(f string) bool { return strings.HasPrefix(f, name+".") }) {
			t.Fatalf("no package declares %s with exported fields", name)
		}
	}
	var unset []string
	for _, f := range fields {
		if !written[f] {
			unset = append(unset, f)
		}
	}
	slices.Sort(unset)
	return unset
}

// namedType names typ, or the type it points to, as "pkg.Type" by package
// name; "" when it is not a defined type.
func namedType(typ types.Type) string {
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	if n, ok := types.Unalias(typ).(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Name() + "." + n.Obj().Name()
	}
	return ""
}
