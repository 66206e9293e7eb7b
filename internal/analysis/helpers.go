package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Shared AST/type helpers for the analyzers.

// pkgMatches reports whether a package path ends in one of the given
// slash-separated suffixes ("internal/core" matches "repro/internal/core"
// but not "x/myinternal/core").
func pkgMatches(path string, suffixes ...string) bool {
	for _, suf := range suffixes {
		if path == suf || strings.HasSuffix(path, "/"+suf) {
			return true
		}
	}
	return false
}

// funcDecls visits every function declaration with a body in the pass's
// files, which the gates take from non-test code only.
func funcDecls(pass *Pass, fn func(decl *ast.FuncDecl)) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	return t != nil && t.String() == "context.Context"
}

// contextParams returns the *types.Var objects of every context.Context
// parameter of the function declaration.
func contextParams(pass *Pass, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil && isContextType(obj.Type()) {
				out = append(out, obj)
			}
		}
	}
	return out
}

// usesAny reports whether any identifier under n resolves to one of objs.
func usesAny(pass *Pass, n ast.Node, objs []types.Object) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		if id, ok := x.(*ast.Ident); ok {
			use := pass.TypesInfo.Uses[id]
			for _, obj := range objs {
				if use == obj {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// isRealCall reports whether the call does actual work at run time: not a
// builtin (len, cap, append, ...) and not a type conversion.
func isRealCall(pass *Pass, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[fun]; obj != nil {
			if _, ok := obj.(*types.Builtin); ok {
				return false
			}
			if _, ok := obj.(*types.TypeName); ok {
				return false
			}
		}
	case *ast.SelectorExpr:
		if tv, ok := pass.TypesInfo.Types[fun]; ok && tv.IsType() {
			return false
		}
	case *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.FuncType, *ast.StarExpr, *ast.InterfaceType:
		return false
	}
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return false
	}
	return true
}

// containsRealCall reports whether any descendant of n is a working call.
func containsRealCall(pass *Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok && isRealCall(pass, call) {
			found = true
			return false
		}
		return true
	})
	return found
}

// calleeName returns the bare name of the called function or method
// ("Lock" for mu.Lock(), "AnalyzeCtx" for core.AnalyzeCtx()), or "".
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// calleePkgPath returns the package path of the called function when the
// callee resolves to a package-level object, or "".
func calleePkgPath(pass *Pass, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return ""
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// receiverText renders the receiver expression of a method call
// ("s.stateMu" for s.stateMu.Lock()), or "" for a bare call. Textual
// receiver identity is how deferrelease pairs an acquire with its release;
// it is deliberately simple — aliasing a mutex through another variable
// defeats it, and the testdata pins that limitation.
func receiverText(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	return exprText(sel.X)
}

// exprText renders a simple expression (identifiers, selectors, derefs)
// as source-like text for matching; complex expressions yield "".
func exprText(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprText(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.StarExpr:
		base := exprText(e.X)
		if base == "" {
			return ""
		}
		return "*" + base
	}
	return ""
}

// rootIdents collects the distinct object roots referenced by an
// expression: for `lo+spec.W*2` that is {lo, spec}. Only variable and
// constant objects count; types and package names are skipped.
func rootIdents(pass *Pass, e ast.Expr) []types.Object {
	seen := make(map[types.Object]bool)
	var out []types.Object
	ast.Inspect(e, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || seen[obj] {
			return true
		}
		switch obj.(type) {
		case *types.Var, *types.Const:
			seen[obj] = true
			out = append(out, obj)
		}
		return true
	})
	return out
}

// isConstExpr reports whether the type checker evaluated e to a constant.
func isConstExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}
