package repro

import (
	"bytes"
	"cmp"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// The source gates hold design rules of this tree on its syntax and types,
// so comments and strings never count. Each gate runs over the real files,
// which must pass, and over a planted case under testdata/gates, which must
// fail it: a gate that cannot fail proves nothing.

// planted breaks every gate but the analyzers' once (and carries decoys in
// a comment and a string that must not count); each analyzer's planted
// cases are its golden package, testdata/gates/<analyzer>, which
// internal/analysis's tests check.
const planted = "testdata/gates/planted.go"

// source is the module as every gate reads it, loaded once per test binary
// (loadSource) by analysis.Load: one go list -export -deps ./... names each
// package's files and the gc export data of everything the module imports,
// and each package's non-test files are parsed with comments and
// type-checked once against that export data — benchmark/, cmd/ and
// examples/ included. The planted file is loaded the same way.
type source struct {
	*analysis.Module
	parsed  map[string]bool // every file loaded
	planted *pkg
}

// pkg is one type-checked package.
type pkg = analysis.Package

var sourceOnce = sync.OnceValues(parseSource)

func loadSource(t *testing.T) *source {
	t.Helper()
	src, err := sourceOnce()
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func parseSource() (*source, error) {
	m, err := analysis.Load(".", "./...")
	if err != nil {
		return nil, err
	}
	src := &source{Module: m, parsed: map[string]bool{}}
	if src.planted, err = m.Check("planted", []string{planted}); err != nil {
		return nil, err
	}
	for _, p := range append(slices.Clip(m.Pkgs), src.planted) {
		for _, f := range p.Files {
			src.parsed[src.name(f)] = true
		}
	}
	return src, nil
}

// pkg returns the package in dir.
func (s *source) pkg(t *testing.T, dir string) *pkg {
	t.Helper()
	for _, p := range s.Pkgs {
		if p.Dir == dir {
			return p
		}
	}
	t.Fatalf("%s: no such package", dir)
	return nil
}

// files returns the files at each path: a .go file, or every non-test file
// of a package directory.
func (s *source) files(t *testing.T, paths ...string) []*ast.File {
	t.Helper()
	var out []*ast.File
	for _, path := range paths {
		n := len(out)
		for _, p := range s.Pkgs {
			for _, f := range p.Files {
				if p.Dir == path || s.name(f) == path {
					out = append(out, f)
				}
			}
		}
		if len(out) == n {
			t.Fatalf("%s: no Go files", path)
		}
	}
	return out
}

// name is the path of f's file, relative to the module root.
func (s *source) name(f *ast.File) string { return s.Fset.Position(f.Package).Filename }

// all returns the files of every package outside the skipped directories.
func (s *source) all(skip ...string) []*ast.File {
	var out []*ast.File
	for _, p := range s.Pkgs {
		if !slices.Contains(skip, p.Dir) {
			out = append(out, p.Files...)
		}
	}
	return out
}

// hold runs a gate that tolerates nothing: find, which reports each thing
// it finds on its own, must report exactly one thing in the planted file
// (its decoys do not count) and nothing in files.
func hold(t *testing.T, src *source, files []*ast.File, find func(*token.FileSet, []*ast.File) []string, what string) {
	t.Helper()
	if got := find(src.Fset, src.planted.Files); len(got) != 1 {
		t.Fatalf("%s: %d %s found, want the 1 outside its decoys: %v", planted, len(got), what, got)
	}
	if got := find(src.Fset, files); len(got) > 0 {
		t.Errorf("%s:\n%s", what, strings.Join(got, "\n"))
	}
}

// nameLimits is the names-at-the-edges gate: between parse and report a
// net is its net ID, or its evaluation-order position on the shard wire.
// The partitioner and the shard runner hold no name-keyed map; the window
// algebra holds none (a window set is a value); the parasitics path holds
// none (nodes, partner nets and nets are indexes past bind.New). Non-test
// core holds six, every one at an edge that speaks names: the result's
// net index (Result.Nets and the make in newResult; item 6 turns the result
// into a table), IterativeResult.Padding (what a report and a sharded run's
// outcome compare) with PaddingByName, its one builder (return type and
// make), and Session.Reanalyze's delta, whose names it resolves to net IDs
// on the way in: the session pads by ID, and the record by name a service
// journals, a net the design lacks included, is the service's. Non-test sta
// holds four, the .win edge's (Options.InputTiming, WriteInputTiming,
// ParseInputTiming and its make): window padding is by net ID. Each limit is the count today: lower it
// when a map goes, never raise it.
var nameLimits = []struct {
	paths []string
	limit int
}{
	{[]string{"internal/shard/partition.go", "internal/shard/runner.go"}, 0},
	{[]string{"internal/core"}, 6},
	{[]string{"internal/sta"}, 4},
	{[]string{"internal/interval"}, 0},
	{[]string{"internal/rc", "internal/bind", "internal/noise"}, 0},
}

func TestGateNamesAtTheEdges(t *testing.T) {
	src := loadSource(t)
	if got := mapStringTypes(src.Fset, src.planted.Files); len(got) != 1 {
		t.Fatalf("%s: %d map[string] types found, want the 1 outside its decoys: %v", planted, len(got), got)
	}
	for _, g := range nameLimits {
		files := src.files(t, g.paths...)
		if got := mapStringTypes(src.Fset, files); len(got) > g.limit {
			t.Errorf("%v: %d map[string] types, limit %d:\n%s", g.paths, len(got), g.limit, strings.Join(got, "\n"))
		}
		if got := mapStringTypes(src.Fset, append(files, src.planted.Files...)); len(got) <= g.limit {
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
	src := loadSource(t)
	var files []*ast.File
	for _, f := range src.pkg(t, "internal/server").Files {
		if filepath.Base(src.name(f)) != "wire.go" {
			files = append(files, f)
		}
	}
	hold(t, src, files, errorStatusUses, "error statuses chosen outside wire.go")
}

// TestGateOneDesignHash is the one-key gate: a design spec is hashed where
// it enters the process — a create, a replayed create record, a run
// token's first init on a worker — by one function, keysOf, which returns
// both the design key and the run key; everything after carries them. So
// exactly one function of non-test internal/server calls crypto/sha256.
func TestGateOneDesignHash(t *testing.T) {
	src := loadSource(t)
	if got := sha256Callers(src.Fset, src.planted.Files); len(got) != 1 {
		t.Fatalf("%s: %d functions calling sha256 found, want the 1 outside its decoys: %v", planted, len(got), got)
	}
	files := src.pkg(t, "internal/server").Files
	if got := sha256Callers(src.Fset, files); len(got) != 1 {
		t.Errorf("internal/server: %d functions call sha256, want exactly 1 (keysOf): %v", len(got), got)
	}
	if got := sha256Callers(src.Fset, append(slices.Clip(files), src.planted.Files...)); len(got) == 1 {
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
	src := loadSource(t)
	files := src.files(t, "internal/server", "internal/jobs", "internal/shard")
	hold(t, src, files, fileWriteCalls, "file writes beside the service's journals")
}

// fileWriteCalls returns the position of every call in fileWrites.
func fileWriteCalls(fset *token.FileSet, files []*ast.File) []string {
	var out []string
	inspect(files, func(_ string, n ast.Node) {
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
func sha256Callers(fset *token.FileSet, files []*ast.File) []string {
	seen := map[string]bool{}
	var out []string
	inspect(files, func(fn string, n ast.Node) {
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

// inspect walks each file's syntax tree, passing the enclosing function's
// name (empty at top level) with every node.
func inspect(files []*ast.File, visit func(fn string, n ast.Node)) {
	for _, f := range files {
		for _, d := range f.Decls {
			fn := ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if n != nil {
					visit(fn, n)
				}
				return true
			})
		}
	}
}

// mapStringTypes returns the position of every map type keyed by string.
func mapStringTypes(fset *token.FileSet, files []*ast.File) []string {
	var out []string
	inspect(files, func(_ string, n ast.Node) {
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
func errorStatusUses(fset *token.FileSet, files []*ast.File) []string {
	var out []string
	inspect(files, func(fn string, n ast.Node) {
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
	src := loadSource(t)
	hold(t, src, src.all("benchmark"), buildJSONCalls, "schema-tree builds outside tests and benchmark/")

	if got := marshalsStored(src.Fset, src.planted); len(got) != 1 {
		t.Fatalf("%s: %d marshals of a stored result found, want the 1 outside its decoy: %v", planted, len(got), got)
	}
	for _, dir := range []string{"internal/server", "internal/jobs"} {
		if got := marshalsStored(src.Fset, src.pkg(t, dir)); len(got) > 0 {
			t.Errorf("%s marshals a stored job result:\n%s", dir, strings.Join(got, "\n"))
		}
	}
}

// buildJSONCalls returns the position of every call of report.BuildJSON or
// BuildDelayJSON (unqualified inside package report).
func buildJSONCalls(fset *token.FileSet, files []*ast.File) []string {
	var out []string
	for _, f := range files {
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
	src := loadSource(t)
	if got := linkedSeams(src.pkg(t, "cmd/netgen")); len(got) == 0 {
		t.Fatalf("cmd/netgen: no test seam found among its dependencies; the dependency check cannot fail")
	}
	if got := linkedSeams(src.pkg(t, "cmd/sna"), src.pkg(t, "cmd/snad")); len(got) > 0 {
		t.Errorf("the shipped binaries link test seams: %v", got)
	}

	hold(t, src, src.all(), chaosImports, "imports of internal/chaos by non-test files")
}

// linkedSeams returns the test seams among the given packages'
// dependencies.
func linkedSeams(pkgs ...*pkg) []string {
	var got []string
	for _, p := range pkgs {
		for _, dep := range p.Deps {
			if slices.Contains(testSeams, dep) {
				got = append(got, dep)
			}
		}
	}
	return got
}

// chaosImports returns the position of every import of internal/chaos.
func chaosImports(fset *token.FileSet, files []*ast.File) []string {
	var out []string
	for _, f := range files {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"repro/internal/chaos"` {
				out = append(out, fset.Position(imp.Pos()).String())
			}
		}
	}
	return out
}

// marshalsStored returns the position of every json.Marshal,
// json.MarshalIndent, Encoder.Encode or writeJSON of a package whose value
// holds a json.RawMessage in a member the function did not set to nil on
// that variable first.
func marshalsStored(fset *token.FileSet, p *pkg) []string {
	info := p.Info
	var out []string
	for _, f := range p.Files {
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
	src := loadSource(t)
	if got := pointerElements(t, src.planted); len(got) != 1 {
		t.Fatalf("%s: %d pointer-bearing design elements found, want the 1 outside its decoys: %v", planted, len(got), got)
	}
	if got := pointerElements(t, src.pkg(t, "internal/netlist")); len(got) > 0 {
		t.Errorf("the design stores elements the collector must scan:\n%s", strings.Join(got, "\n"))
	}

	files := src.files(t, "internal/core", "internal/sta", "internal/noise", "internal/bind")
	hold(t, src, files, netlistPointers, "pointers into the netlist stored by the engines")
}

// pointerElements names every table element reachable from a package's
// Design type that holds a pointer. A table is
// any slice reached through Design's fields, pointers and nested structs;
// its element is what remains after peeling nested slices (a chunk
// directory of chunks of records has the record as its element).
func pointerElements(t *testing.T, p *pkg) []string {
	t.Helper()
	design := p.Types.Scope().Lookup("Design")
	if design == nil {
		t.Fatalf("%s: no Design type", p.Dir)
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
func netlistPointers(fset *token.FileSet, files []*ast.File) []string {
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
	inspect(files, func(_ string, n ast.Node) {
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
var optionTypes = []string{"core.Options", "sta.Options", "lint.Config", "jobs.Config", "server.Config", "shard.Config"}

// TestGateOptionsAreSet is the no-idle-knob gate: every exported field of
// an option type is written by some non-test file of the module, benchmark/
// included — as a composite-literal key or an assignment's target, resolved
// by type. A fill method's default is not a write: a field that only its
// default sets has one value in use and is a constant.
func TestGateOptionsAreSet(t *testing.T) {
	src := loadSource(t)
	want := []string{"planted.Options.Budget", "planted.Options.Vdd"}
	if got := unsetOptions(t, []*pkg{src.planted}, []string{"planted.Options"}); !slices.Equal(got, want) {
		t.Fatalf("%s: unset option fields %v, want %v (the ones outside its decoys)", planted, got, want)
	}
	if got := unsetOptions(t, src.Pkgs, optionTypes); len(got) > 0 {
		t.Errorf("option fields no non-test code sets (make each a constant, or delete it):\n%s", strings.Join(got, "\n"))
	}
}

// unsetOptions returns the exported fields of the named option types
// ("pkg.Type") that no file of the packages writes, sorted. Every named
// type must be declared by one of the packages.
func unsetOptions(t *testing.T, pkgs []*pkg, typeNames []string) []string {
	t.Helper()
	var fields []string
	written := map[string]bool{}
	for _, p := range pkgs {
		info := p.Info
		for _, name := range typeNames {
			if pkgName, typ, _ := strings.Cut(name, "."); pkgName == p.Types.Name() {
				st := p.Types.Scope().Lookup(typ).Type().Underlying().(*types.Struct)
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						fields = append(fields, name+"."+f.Name())
					}
				}
			}
		}
		for _, f := range p.Files {
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

// exportWaivers are the exports under internal/ that only tests call, kept
// because tests in several packages compare against them.
var exportWaivers = map[string]string{
	"repro/internal/workload.Ladder":       "the RC ladder fixture rc, noise and the experiments check their models on",
	"repro/internal/workload.BreakLibrary": "the broken-library fixture the lint, sna and snad tests load",
	"repro/internal/workload.Defects.Any":  "the defect-set predicate the netgen and workload tests share",
	"repro/internal/liberty.Write":         "the round-trip writer the liberty and workload tests parse back",
}

// exportsExempt are the packages whose exports the exports gate does not
// hold: test-support packages by design.
var exportsExempt = []string{"internal/chaos", "internal/analysis"}

// exemptMethods are method names a standard-library interface calls.
var exemptMethods = []string{"String", "Error", "Unwrap", "Format", "Write", "WriteHeader", "Header", "Len", "Less", "Swap"}

// TestGateExportsAreCalled is the exported-means-called gate: every
// exported package-level identifier and exported method declared by a
// non-test file under internal/ is referenced by some non-test file of the
// module (benchmark/, cmd/ and examples/ included) other than its own
// declaration. A method is exempt when an interface declared in the module
// names it, or a standard-library interface does (exemptMethods); so are
// the test-support packages (exportsExempt). What only tests call lives in
// the tests, or is a waiver with its reason.
func TestGateExportsAreCalled(t *testing.T) {
	src := loadSource(t)
	if got, want := uncalledExports([]*pkg{src.planted}, append(slices.Clip(src.Pkgs), src.planted)), []string{"planted.Unused"}; !slices.Equal(got, want) {
		t.Fatalf("%s: uncalled exports %v, want %v (the ones outside its decoys)", planted, got, want)
	}
	var decls []*pkg
	for _, p := range src.Pkgs {
		if strings.HasPrefix(p.Dir, "internal/") && !slices.Contains(exportsExempt, p.Dir) {
			decls = append(decls, p)
		}
	}
	if len(exportWaivers) > 8 {
		t.Errorf("%d export waivers, want at most 8", len(exportWaivers))
	}
	got := uncalledExports(decls, src.Pkgs)
	for name := range exportWaivers {
		if !slices.Contains(got, name) {
			t.Errorf("waiver %s hides nothing: delete it", name)
		}
	}
	got = slices.DeleteFunc(got, func(name string) bool { return exportWaivers[name] != "" })
	if len(got) > 0 {
		t.Errorf("exports no non-test code calls (delete each, or move it into its package's tests):\n%s", strings.Join(got, "\n"))
	}
}

// uncalledExports returns, sorted, the exported package-level identifiers
// and exported methods the decls packages declare that no file of the users
// packages references outside the identifier's own declaration. Each
// package reads its imports through export data, so objects are matched by
// exportKey, not by identity.
func uncalledExports(decls, users []*pkg) []string {
	ifaceMethods := map[string]bool{}
	for _, p := range users {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, name := range m.Names {
							ifaceMethods[name.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	declared := map[string]bool{}
	for _, p := range decls {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				var names []*ast.Ident
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil || !slices.Contains(exemptMethods, d.Name.Name) && !ifaceMethods[d.Name.Name] {
						names = append(names, d.Name)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = append(names, s.Name)
						case *ast.ValueSpec:
							names = append(names, s.Names...)
						}
					}
				}
				for _, name := range names {
					if key := exportKey(p.Info.Defs[name]); name.IsExported() && key != "" {
						declared[key] = true
					}
				}
			}
		}
	}
	used := map[string]bool{}
	for _, p := range users {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				self := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = exportKey(p.Info.Defs[fd.Name])
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if key := exportKey(p.Info.Uses[id]); key != self {
							used[key] = true
						}
					}
					return true
				})
			}
		}
	}
	var out []string
	for key := range declared {
		if !used[key] {
			out = append(out, key)
		}
	}
	slices.Sort(out)
	return out
}

// exportKey names a package-level object as "path.Name" and a method as
// "path.Type.Name", the same in every package that sees it; "" for
// anything else.
func exportKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Origin().Type().(*types.Signature).Recv(); recv != nil {
			typ := recv.Type()
			if p, ok := typ.(*types.Pointer); ok {
				typ = p.Elem()
			}
			if n, ok := types.Unalias(typ).(*types.Named); ok {
				return obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
			}
			return ""
		}
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// analyzers are internal/analysis's five rules, each a past incident turned
// into a check (DESIGN.md §9).
var analyzers = []*analysis.Analyzer{analysis.AckOrder, analysis.CtxLoop, analysis.DeferRelease, analysis.MapDeterm, analysis.NaNGuard}

// TestGateAnalyzers holds the five analyzers on every package of the tree:
// nothing is reported that a reasoned //snavet: waiver does not cover, and
// no waiver is unknown, unreasoned or unused. Each waiver key must report
// on the real tree once one of its waivers there is dropped from the syntax
// in memory. The analyzers' golden cases, testdata/gates/<analyzer>, are
// internal/analysis's own tests, as is ackorder's probe of the real
// handlers (the tree never waives ackorder).
func TestGateAnalyzers(t *testing.T) {
	src := loadSource(t)
	for _, p := range src.Pkgs {
		for _, d := range src.analyze(p, p.Files, analyzers...) {
			t.Errorf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
		}
	}
	for _, a := range analyzers {
		if a == analysis.AckOrder {
			continue
		}
		t.Run(a.Name, func(t *testing.T) {
			p, files, waiver := src.dropWaiver(t, a.DirectiveName())
			if !slices.ContainsFunc(src.analyze(p, files, analyzers...), func(d analysis.Diagnostic) bool { return d.Analyzer == a.Name }) {
				t.Errorf("%s: %s reports nothing with this waiver dropped", waiver, a.Name)
			}
		})
	}
}

// analyze runs the analyzers over files of p and returns the findings no
// waiver covers, directive problems included.
func (s *source) analyze(p *pkg, files []*ast.File, as ...*analysis.Analyzer) []analysis.Diagnostic {
	return analysis.Active(analysis.Run(s.Fset, files, p.Types, p.Info, as))
}

// dropWaiver returns the package holding the tree's first waiver with the
// given key, and its files with that waiver's comment group gone from the
// syntax.
func (s *source) dropWaiver(t *testing.T, key string) (*pkg, []*ast.File, string) {
	t.Helper()
	for _, p := range s.Pkgs {
		for i, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, "//snavet:"+key+" ") {
						continue
					}
					cp := *f
					cp.Comments = slices.DeleteFunc(slices.Clone(f.Comments), func(g *ast.CommentGroup) bool { return g == cg })
					files := slices.Clone(p.Files)
					files[i] = &cp
					return p, files, s.Fset.Position(c.Pos()).String()
				}
			}
		}
	}
	t.Fatalf("no //snavet:%s waiver in the tree", key)
	return nil, nil, ""
}

// TestGateEveryDirectiveIsChecked holds the waivers to the files the
// analyzers read: the files loaded but the planted one, and the golden
// packages internal/analysis's tests read. A //snavet: comment anywhere
// else — a _test.go file, or testdata outside the golden packages —
// waives nothing, and no analyzer would report it stale, so it is a
// finding of its own.
func TestGateEveryDirectiveIsChecked(t *testing.T) {
	src := loadSource(t)
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return cmp.Or(err, filepath.SkipDir)
		}
		golden := slices.ContainsFunc(analyzers, func(a *analysis.Analyzer) bool {
			return filepath.Dir(path) == filepath.Join(filepath.Dir(planted), a.Name)
		})
		if !strings.HasSuffix(path, ".go") || src.parsed[path] || golden {
			return nil
		}
		text, err := os.ReadFile(path)
		if err == nil && bytes.Contains(text, []byte("//snavet:")) {
			var f *ast.File
			f, err = parser.ParseFile(src.Fset, path, text, parser.ParseComments)
			files = append(files, f)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	hold(t, src, files, directives, "directives in files no analyzer reads")
}

// directives returns the position of every //snavet: comment.
func directives(fset *token.FileSet, files []*ast.File) []string {
	var out []string
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "//snavet:") {
					out = append(out, fset.Position(c.Pos()).String())
				}
			}
		}
	}
	return out
}
