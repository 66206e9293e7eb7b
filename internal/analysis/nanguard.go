package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// NaNGuard enforces the bound-sanitation invariant behind interval.New's
// panic contract: New panics on a NaN bound (PR 5's fuzzers found exactly
// this crasher — parsed timing files feeding NaN straight into window
// construction), so every non-constant float expression flowing into it
// must be guarded by math.IsNaN/math.IsInf on at least one path of the
// enclosing function. The check is per-argument-root: passing `lo` is fine
// when the function tests IsNaN(lo) (or IsNaN of anything derived from the
// same variables) somewhere; a constant like `60*units.Pico` needs no
// guard because the compiler already proved it finite.
//
// The guard may also be delegated: passing the value through a callee
// whose name contains "NaN", "Finite", "Sane", "sanitize" or "clamp"
// counts, so shared sanitizer helpers satisfy the analyzer at every call
// site without repeating the math.IsNaN boilerplate.
var NaNGuard = &Analyzer{
	Name: "nanguard",
	Run:  runNaNGuard,
}

// guardNameFragments are callee-name substrings accepted as NaN guards in
// addition to math.IsNaN/math.IsInf.
var guardNameFragments = []string{"NaN", "Inf", "Finite", "Sane", "sanitize", "Sanitize", "clamp", "Clamp"}

func runNaNGuard(pass *Pass) {
	funcDecls(pass, func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok || !isIntervalNew(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				checkBound(pass, fd, call, arg)
			}
			return true
		})
	})
}

// isIntervalNew reports whether call is interval.New from this module's
// window algebra (package path segment "interval", function name New).
func isIntervalNew(pass *Pass, call *ast.CallExpr) bool {
	if calleeName(call) != "New" {
		return false
	}
	path := calleePkgPath(pass, call)
	return strings.HasSuffix(path, "/interval")
}

// checkBound reports a window bound that is neither a compile-time
// constant nor covered by a NaN guard mentioning any of its root
// variables.
func checkBound(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, arg ast.Expr) {
	if isConstExpr(pass, arg) {
		return
	}
	roots := rootIdents(pass, arg)
	if len(roots) == 0 {
		// The bound is the direct result of a call; accept it when the
		// producer's name is itself guard-like (sanitizeLo(x)), otherwise
		// demand a visible guard on a named intermediate.
		if inner, ok := ast.Unparen(arg).(*ast.CallExpr); ok && isGuardCall(inner) {
			return
		}
		pass.Reportf(arg.Pos(),
			"window bound reaches interval.New unguarded: bind it to a variable and check math.IsNaN before constructing the window")
		return
	}
	if guardCovers(pass, fd, roots) {
		return
	}
	pass.Reportf(arg.Pos(),
		"window bound %s reaches interval.New with no NaN guard in %s: interval.New panics on NaN — check math.IsNaN/IsInf on at least one path",
		boundText(arg), fd.Name.Name)
}

func boundText(e ast.Expr) string {
	if t := exprText(e); t != "" {
		return t
	}
	return "expression"
}

// guardCovers reports whether the function contains a guard call whose
// arguments mention any of the given root objects.
func guardCovers(pass *Pass, fd *ast.FuncDecl, roots []types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(x ast.Node) bool {
		if found {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok || !isGuardCall(call) {
			return true
		}
		if usesAny(pass, call, roots) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isGuardCall reports whether the callee name marks a NaN/finite guard.
func isGuardCall(call *ast.CallExpr) bool {
	name := calleeName(call)
	for _, frag := range guardNameFragments {
		if strings.Contains(name, frag) {
			return true
		}
	}
	return false
}
