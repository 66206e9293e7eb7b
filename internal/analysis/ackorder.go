package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// AckOrder enforces journal-before-acknowledge, the durability contract
// PR 5 built the session store around: once a client sees a 2xx, the
// mutation it acknowledges must already be in the fsynced journal, or a
// crash re-orders history out from under an acknowledged request. In
// internal/server, any function that both mutates durable state — the
// session store (Store.Create / Store.Delete / Store.Padding) or the job
// journal (Manager.Submit / Manager.Cancel) — and acknowledges success
// (writeJSON with a 2xx status, or WriteHeader(2xx)) must order every
// acknowledgement after the first mutation, in source order.
//
// The mutators are matched on the journal owners' own methods, so the
// handlers must call them directly: a wrapper method between a handler
// and the store hides the mutation and the handler goes unchecked.
// TestAckOrderSeesTheRealHandlers fails when that happens.
//
// Source order is a deliberate approximation of dominance: the handlers
// are written straight-line (mutate, check error, acknowledge), so a 2xx
// acknowledgement lexically before the journal call is exactly the bug
// class — an early ack — and survives refactors that a full CFG analysis
// would also catch. Acknowledgements with non-constant status codes are
// ignored; the analyzer only reasons about statuses it can prove are 2xx.
var AckOrder = &Analyzer{
	Name: "ackorder",
	Run:  runAckOrder,
}

// journalMutators are the methods that append to a journal before
// returning, by the name of the type that owns the journal: the session
// store (any type named *Store) and the job manager.
var journalMutators = map[string]map[string]bool{
	"Store":   {"Create": true, "Delete": true, "Padding": true},
	"Manager": {"Submit": true, "Cancel": true},
}

func runAckOrder(pass *Pass) {
	ackOrderPairs(pass, func(fd *ast.FuncDecl, mutates, acks []*ast.CallExpr) {
		first := mutates[0].Pos()
		for _, m := range mutates[1:] {
			if m.Pos() < first {
				first = m.Pos()
			}
		}
		for _, ack := range acks {
			if ack.Pos() < first {
				pass.Reportf(ack.Pos(),
					"success acknowledged before the store mutation in %s: journal-before-acknowledge — a crash here acks state the journal never saw",
					fd.Name.Name)
			}
		}
	})
}

// ackOrderPairs calls fn for every function in scope that mutates a
// journal, with its mutation calls and its 2xx acknowledgements (possibly
// none).
func ackOrderPairs(pass *Pass, fn func(fd *ast.FuncDecl, mutates, acks []*ast.CallExpr)) {
	if !pkgMatches(pass.Pkg.Path(), "internal/server") {
		return
	}
	funcDecls(pass, func(fd *ast.FuncDecl) {
		var mutates []*ast.CallExpr
		var acks []*ast.CallExpr
		ast.Inspect(fd.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch {
			case isJournalMutation(pass, call):
				mutates = append(mutates, call)
			case isSuccessAck(pass, call):
				acks = append(acks, call)
			}
			return true
		})
		if len(mutates) > 0 {
			fn(fd, mutates, acks)
		}
	})
}

// isJournalMutation reports whether call is a journal-appending method
// on a value of a journal-owning type: Create/Delete/Padding on a named
// type whose name is or ends in "Store", Submit/Cancel on one named
// "Manager".
func isJournalMutation(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	owner := named.Obj().Name()
	if strings.HasSuffix(owner, "Store") {
		owner = "Store"
	}
	return journalMutators[owner][calleeName(call)]
}

// isSuccessAck reports whether call acknowledges success to the client: a
// WriteHeader with a provably-2xx argument, or a reply-writing helper
// (name starting "write"/"Write": writeJSON, writeJob, writeBody) whose
// status argument is provably 2xx.
func isSuccessAck(pass *Pass, call *ast.CallExpr) bool {
	name := calleeName(call)
	switch {
	case name == "WriteHeader":
		return len(call.Args) == 1 && is2xx(pass, call.Args[0])
	case strings.HasPrefix(name, "write") || strings.HasPrefix(name, "Write"):
		for _, arg := range call.Args {
			if is2xx(pass, arg) {
				return true
			}
		}
	}
	return false
}

// is2xx reports whether the type checker proves e is an integer constant
// in [200, 300).
func is2xx(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return false
	}
	v, ok := constant.Int64Val(tv.Value)
	return ok && v >= 200 && v < 300
}
