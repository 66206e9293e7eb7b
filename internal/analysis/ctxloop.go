package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxLoop enforces the cancellation invariant PR 2 plumbed through the
// engine: in internal/core, internal/sta, and internal/server, a function
// that receives a context must consult it inside every working loop — the
// per-net/per-victim loops are the places a runaway analysis burns minutes
// after the caller gave up. A loop "consults" the context when it mentions
// the ctx variable at all: `ctx.Err()` checks, `select` on `ctx.Done()`,
// and passing ctx into a callee that checks all qualify. Loops nested
// under a loop that already consults ctx are exempt (the outer iteration
// bounds the latency), as are loops whose body performs no calls (pure
// index/arithmetic work finishes fast).
//
// The analyzer also enforces the API half of the invariant: an exported
// package-level entry point that contains a working loop must either take
// a context itself or have an exported <Name>Ctx sibling, so callers are
// never forced into an uncancellable variant.
var CtxLoop = &Analyzer{
	Name: "ctxloop",
	Run:  runCtxLoop,
}

func runCtxLoop(pass *Pass) {
	if !pkgMatches(pass.Pkg.Path(), "internal/core", "internal/sta", "internal/server") {
		return
	}
	funcDecls(pass, func(fd *ast.FuncDecl) {
		ctxs := contextParams(pass, fd)
		if len(ctxs) > 0 {
			scanForLoops(pass, fd.Body, ctxs, false)
			return
		}
		checkEntryPoint(pass, fd)
	})
}

// scanForLoops finds for/range statements under n and checks each against
// the ctx parameters. covered means an enclosing loop already consults the
// context.
func scanForLoops(pass *Pass, n ast.Node, ctxs []types.Object, covered bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.ForStmt:
			checkLoop(pass, s, s.Body, ctxs, covered)
			return false
		case *ast.RangeStmt:
			checkLoop(pass, s, s.Body, ctxs, covered)
			return false
		}
		return true
	})
}

// checkLoop reports a working loop that neither consults the context nor
// sits under one that does, then recurses. A loop whose nested statements
// mention ctx counts as consulting it — the check happens within each
// iteration, which is what bounds time-to-cancel.
func checkLoop(pass *Pass, loop ast.Stmt, body *ast.BlockStmt, ctxs []types.Object, covered bool) {
	mentions := usesAny(pass, loop, ctxs)
	if !covered && !mentions && containsRealCall(pass, body) {
		pass.Reportf(loop.Pos(),
			"loop does not consult %s: check ctx.Err() (or select on ctx.Done()) per iteration, or pass ctx to the body",
			ctxParamNames(ctxs))
		// One diagnostic covers the whole region; nested loops inherit it.
		covered = true
	}
	scanForLoops(pass, body, ctxs, covered || mentions)
}

func ctxParamNames(ctxs []types.Object) string {
	names := make([]string, len(ctxs))
	for i, o := range ctxs {
		names[i] = o.Name()
	}
	return strings.Join(names, ", ")
}

// checkEntryPoint reports an exported package-level function that loops
// over real work without taking a context and without an exported Ctx
// sibling.
func checkEntryPoint(pass *Pass, fd *ast.FuncDecl) {
	if fd.Recv != nil || !fd.Name.IsExported() || strings.HasSuffix(fd.Name.Name, "Ctx") {
		return
	}
	hasWorkingLoop := false
	ast.Inspect(fd.Body, func(x ast.Node) bool {
		if hasWorkingLoop {
			return false
		}
		switch s := x.(type) {
		case *ast.ForStmt:
			hasWorkingLoop = containsRealCall(pass, s.Body)
		case *ast.RangeStmt:
			hasWorkingLoop = containsRealCall(pass, s.Body)
		}
		return !hasWorkingLoop
	})
	if !hasWorkingLoop {
		return
	}
	sibling := fd.Name.Name + "Ctx"
	if obj := pass.Pkg.Scope().Lookup(sibling); obj != nil {
		if _, ok := obj.(*types.Func); ok {
			return
		}
	}
	pass.Reportf(fd.Name.Pos(),
		"exported entry point %s loops over per-item work but offers no context: add a ctx parameter or an exported %s variant",
		fd.Name.Name, sibling)
}
