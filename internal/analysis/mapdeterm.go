package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapDeterm enforces the determinism invariant behind the engine's
// serial-identical parallel fixpoint and the byte-stable reports the snad
// service caches and round-trips: iterating a Go map yields a fresh random
// order every run, so no map `range` may feed ordering-sensitive output —
// report/table rows, JSON arrays, journal records, channel work queues —
// without an explicit sort between the map and the consumer.
//
// Ordering-sensitive sinks inside a map-range body:
//
//   - appending to a slice declared outside the loop, unless the same
//     function later sorts that slice (sort.*/slices.* call naming it);
//   - writing output directly (Print/Fprint/Write/Encode/AddRow/
//     WriteString-style callee names);
//   - sending on a channel;
//   - accumulating into a float declared outside the loop (+=, -=, *=, /=,
//     or x = x + ...): float arithmetic is not associative, so the total's
//     last bits follow the iteration order, and a total that is printed or
//     compared differs from run to run (core.Result.TotalNoise gave ten
//     bit patterns in fifty calls on one result).
//
// Iterations that only fill other maps, count in integers, or collect keys
// that are sorted before use are order-safe and not reported. Intentional
// unordered iteration is waived with `//snavet:ordered <reason>` — the key
// names the claim ("this is order-safe") rather than the analyzer.
var MapDeterm = &Analyzer{
	Name:      "mapdeterm",
	Directive: "ordered",
	Run:       runMapDeterm,
}

// outputCallPrefixes are callee-name prefixes treated as direct output
// sinks: bytes written in loop order become bytes the user diffs. The
// builtin append is handled separately as a slice sink.
var outputCallPrefixes = []string{
	"Print", "Fprint", "Write", "Encode", "AddRow", "Render",
}

func runMapDeterm(pass *Pass) {
	funcDecls(pass, func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(x ast.Node) bool {
			rng, ok := x.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if !isMapType(pass.TypesInfo.Types[rng.X].Type) {
				return true
			}
			checkMapRange(pass, fd, rng)
			return true
		})
	})
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRange inspects one map-range body for ordering-sensitive sinks.
func checkMapRange(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.SendStmt:
			pass.Reportf(s.Pos(),
				"map iteration order feeds a channel send; receivers observe a random order — sort the keys first")
			return true
		case *ast.AssignStmt:
			checkAppendSink(pass, fd, rng, s)
			checkFloatSink(pass, rng, s)
			return true
		case *ast.CallExpr:
			name := calleeName(s)
			for _, prefix := range outputCallPrefixes {
				if strings.HasPrefix(name, prefix) {
					pass.Reportf(s.Pos(),
						"map iteration order reaches %s: output written inside a map range is nondeterministic — sort the keys first", name)
					return true
				}
			}
		}
		return true
	})
}

// builtinAppendTarget reports whether call is the builtin append and, if
// so, returns its destination expression.
func builtinAppendTarget(pass *Pass, call *ast.CallExpr) (ast.Expr, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil, false
	}
	if obj, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || obj.Name() != "append" {
		return nil, false
	}
	if len(call.Args) == 0 {
		return nil, false
	}
	return call.Args[0], true
}

// checkAppendSink flags `dst = append(dst, ...)` inside a map range when
// dst is declared outside the loop and never sorted later in the function.
func checkAppendSink(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, assign *ast.AssignStmt) {
	for _, rhs := range assign.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		dst, ok := builtinAppendTarget(pass, call)
		if !ok {
			continue
		}
		obj := rootObject(pass, dst)
		if obj == nil || declaredWithin(pass, obj, rng) {
			continue
		}
		if sortedLater(pass, fd, obj) {
			continue
		}
		pass.Reportf(assign.Pos(),
			"map iteration order flows into %s via append and %s is never sorted in %s: sort it (or the keys) before it becomes output",
			obj.Name(), obj.Name(), fd.Name.Name)
	}
}

// checkFloatSink flags an order-sensitive update of a float declared
// outside the map range: a compound assignment, or x = <expression using x>.
func checkFloatSink(pass *Pass, rng *ast.RangeStmt, assign *ast.AssignStmt) {
	if len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return
	}
	lhs := assign.Lhs[0]
	if b, ok := pass.TypesInfo.TypeOf(lhs).Underlying().(*types.Basic); !ok || b.Info()&types.IsFloat == 0 {
		return
	}
	obj := rootObject(pass, lhs)
	if obj == nil || declaredWithin(pass, obj, rng) {
		return
	}
	switch assign.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	case token.ASSIGN:
		if _, arith := ast.Unparen(assign.Rhs[0]).(*ast.BinaryExpr); !arith || !usesAny(pass, assign.Rhs[0], []types.Object{obj}) {
			return
		}
	default:
		return
	}
	pass.Reportf(assign.Pos(),
		"map iteration order decides the rounding of %s: a float accumulated inside a map range differs in its last bits from run to run — accumulate over sorted keys",
		obj.Name())
}

// rootObject resolves the base identifier of a (possibly selected)
// expression to its object.
func rootObject(pass *Pass, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return pass.TypesInfo.Uses[x]
		case *ast.SelectorExpr:
			// For field sinks like out.Rows, track the field object so a
			// later sort naming the same field counts.
			if sel, ok := pass.TypesInfo.Selections[x]; ok {
				return sel.Obj()
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether obj's declaration lies inside node.
func declaredWithin(pass *Pass, obj types.Object, node ast.Node) bool {
	return obj.Pos() >= node.Pos() && obj.Pos() <= node.End()
}

// sortedLater reports whether, after the map range, the function contains
// a sort call that mentions obj: sort.X(...obj...), slices.SortX(...),
// sort.Sort(byX(obj)), or a method/function whose name contains "Sort"
// or "sort" taking obj.
func sortedLater(pass *Pass, fd *ast.FuncDecl, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(x ast.Node) bool {
		if found {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Match on the qualified callee text so sort.Strings, sort.Slice,
		// slices.SortFunc, and rows.Sort() all count as sorting.
		name := exprText(ast.Unparen(call.Fun))
		if name == "" {
			name = calleeName(call)
		}
		if !strings.Contains(name, "Sort") && !strings.Contains(name, "sort") && !strings.Contains(name, "slices.") {
			return true
		}
		if usesAny(pass, call, []types.Object{obj}) {
			found = true
			return false
		}
		return true
	})
	return found
}
