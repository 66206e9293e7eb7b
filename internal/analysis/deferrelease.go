package analysis

import (
	"go/ast"
	"slices"
)

// DeferRelease enforces the panic-safe release invariant from the PR 4
// session-wedge incident: a handler panicked between taking a session's
// busy slot and releasing it, and the undeferred release leaked the slot,
// wedging the session forever. In internal/server, every acquire of a
// semaphore/lock/refcount must be paired — on the same receiver, in the
// same block — with its release either
//
//   - deferred before any statement that can panic (any real call), or
//   - called explicitly with only call-free statements in between (the
//     short critical-section idiom `mu.Lock(); s.f = v; mu.Unlock()`).
//
// Pairing is by receiver text and a name table (Lock/Unlock,
// RLock/RUnlock, acquire/release, Acquire/Release, retain/releaseRef,
// enter/exit), which keeps the check block-local and predictable; aliasing
// the lock through another variable defeats it and needs a waiver.
var DeferRelease = &Analyzer{
	Name: "deferrelease",
	Run:  runDeferRelease,
}

// releasePairs maps acquire callee names to their release names.
var releasePairs = map[string][]string{
	"Lock":    {"Unlock"},
	"RLock":   {"RUnlock"},
	"acquire": {"release"},
	"Acquire": {"Release"},
	"retain":  {"releaseRef", "release"},
	"enter":   {"exit"},
}

func runDeferRelease(pass *Pass) {
	if !pkgMatches(pass.Pkg.Path(), "internal/server") {
		return
	}
	funcDecls(pass, func(fd *ast.FuncDecl) {
		// The release primitives themselves (func release / exit / ...)
		// are the one place an acquire legitimately has no pair.
		if isReleaseName(fd.Name.Name) || releasePairs[fd.Name.Name] != nil {
			return
		}
		ast.Inspect(fd.Body, func(x ast.Node) bool {
			block, ok := x.(*ast.BlockStmt)
			if !ok {
				return true
			}
			checkBlock(pass, block)
			return true
		})
	})
}

func isReleaseName(name string) bool {
	for _, rels := range releasePairs {
		if slices.Contains(rels, name) {
			return true
		}
	}
	return false
}

// checkBlock scans one statement list for acquires and validates each.
func checkBlock(pass *Pass, block *ast.BlockStmt) {
	for i, stmt := range block.List {
		call, recv := acquireIn(pass, stmt)
		if call == nil {
			continue
		}
		rels := releasePairs[calleeName(call)]
		if ok := releaseFollows(pass, block.List[i+1:], recv, rels); !ok {
			pass.Reportf(call.Pos(),
				"%s.%s is not followed by a deferred %s before the next call: a panic in between leaks the slot (PR 4 session wedge)",
				recv, calleeName(call), rels[0])
		}
	}
}

// acquireIn returns the acquire call rooted in stmt, if any, with its
// receiver text. Acquires are recognized as the statement's top-level
// expression, the RHS of an assignment, or the condition/init of an if
// statement (`if !ss.acquire(ctx) { return }`).
func acquireIn(pass *Pass, stmt ast.Stmt) (*ast.CallExpr, string) {
	var found *ast.CallExpr
	ast.Inspect(stmt, func(x ast.Node) bool {
		if found != nil {
			return false
		}
		// Do not descend into nested blocks: their acquires are checked
		// as part of their own block scan.
		if _, ok := x.(*ast.BlockStmt); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if _, isAcquire := releasePairs[name]; !isAcquire {
			return true
		}
		if receiverText(call) == "" {
			return true // free function named acquire: not a paired primitive
		}
		found = call
		return false
	})
	if found == nil {
		return nil, ""
	}
	return found, receiverText(found)
}

// releaseFollows scans the statements after the acquire. It accepts a
// deferred release on the same receiver seen before any real call, or an
// explicit release with only call-free statements in between. Reaching a
// real call (or the end of the block) first is a violation.
func releaseFollows(pass *Pass, rest []ast.Stmt, recv string, rels []string) bool {
	for _, stmt := range rest {
		if d, ok := stmt.(*ast.DeferStmt); ok {
			if isReleaseCall(d.Call, recv, rels) {
				return true
			}
			// A defer of something else is fine: defers cannot panic at
			// registration time.
			continue
		}
		if call := releaseCallIn(stmt, recv, rels); call != nil {
			return true
		}
		if containsRealCall(pass, stmt) {
			return false
		}
	}
	return false
}

func isReleaseCall(call *ast.CallExpr, recv string, rels []string) bool {
	return receiverText(call) == recv && slices.Contains(rels, calleeName(call))
}

// releaseCallIn returns a matching release call appearing anywhere in
// stmt (including inside nested blocks, so conditional cleanup paths such
// as `if err != nil { mu.Unlock(); return }` count).
func releaseCallIn(stmt ast.Stmt, recv string, rels []string) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(stmt, func(x ast.Node) bool {
		if found != nil {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok && isReleaseCall(call, recv, rels) {
			found = call
			return false
		}
		return true
	})
	return found
}
