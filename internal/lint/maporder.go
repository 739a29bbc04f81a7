package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder returns the maporder analyzer.
//
// Invariant: non-test code never lets Go's randomized map iteration order
// escape. Every deterministic site merge, golden file, and bit-identical
// equivalence claim in this repo depends on it. A `for … range` over a map
// is accepted only when the analyzer can prove the order cannot be
// observed:
//
//   - the loop only collects keys/values into slices that the same
//     function later passes to sort.* or slices.Sort* (the canonical
//     collect-then-sort idiom), or
//   - the loop body is order-insensitive: map stores keyed by the range
//     key, constant map stores (`seen[k] = true`), integer/boolean
//     accumulation, delete, continue, nested ifs of the same shape, and
//     returns that do not leak the iteration variables.
//
// Anything else — calls, float accumulation (float addition does not
// commute bitwise), appends that are never sorted, early exits capturing a
// key — is flagged and needs a sort, a restructure, or a reasoned
// //vdce:ignore maporder suppression.
func MapOrder() *Analyzer {
	a := &Analyzer{
		Name: "maporder",
		Doc:  "range over a map in non-test code must not let iteration order escape",
	}
	a.Run = func(pass *Pass) {
		for _, sf := range pass.Pkg.Files {
			if sf.Test {
				continue
			}
			inspectWithStack(sf.AST, func(n ast.Node, stack []ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := pass.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if mapRangeIsSafe(pass, rs, stack) {
					return true
				}
				pass.Reportf(rs.For,
					"iteration over map %s has order-dependent effects; sort the keys, restructure, or add //vdce:ignore maporder <reason>",
					exprString(rs.X))
				return true
			})
		}
	}
	return a
}

func mapRangeIsSafe(pass *Pass, rs *ast.RangeStmt, stack []ast.Node) bool {
	if collectThenSort(pass, rs, stack) {
		return true
	}
	key := identObj(pass.Pkg.Info, rs.Key)
	val := identObj(pass.Pkg.Info, rs.Value)
	for _, stmt := range rs.Body.List {
		if !orderInsensitiveStmt(pass, stmt, key, val) {
			return false
		}
	}
	return true
}

// collectThenSort accepts loops whose body only appends to slices (possibly
// behind `if` filters, dedup sets, and nested ranges over slice values),
// each of which the enclosing function later hands to a sort call.
// Destinations are matched by access path (exprString), so
// `w.Apps = append(w.Apps, …)` pairs with `sort.Slice(w.Apps, …)`.
func collectThenSort(pass *Pass, rs *ast.RangeStmt, stack []ast.Node) bool {
	var collected []string
	var walk func(stmts []ast.Stmt) bool
	walk = func(stmts []ast.Stmt) bool {
		for _, stmt := range stmts {
			switch s := stmt.(type) {
			case *ast.AssignStmt:
				// Side-effect-free local bindings (`p := name[4:]`) ride
				// along: they can only leak through a later statement the
				// walk already polices.
				if s.Tok == token.DEFINE && allNewLocals(pass, s.Lhs) && allSideEffectFree(s.Rhs) {
					continue
				}
				if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
					return false
				}
				// Dedup-set bookkeeping (`seen[h] = true`) rides along.
				if constMapStore(pass, s.Lhs[0], s.Rhs[0]) {
					continue
				}
				call, ok := s.Rhs[0].(*ast.CallExpr)
				if !ok || !isBuiltin(pass, call.Fun, "append") || len(call.Args) == 0 {
					return false
				}
				dst := exprString(s.Lhs[0])
				if exprString(call.Args[0]) != dst {
					return false
				}
				collected = append(collected, dst)
			case *ast.IfStmt:
				if s.Else != nil {
					return false
				}
				if s.Init != nil {
					// Only a fresh define (`if _, ok := seen[h]; !ok`) —
					// a plain assignment in the init would leak state.
					in, ok := s.Init.(*ast.AssignStmt)
					if !ok || in.Tok != token.DEFINE {
						return false
					}
				}
				if !walk(s.Body.List) {
					return false
				}
			case *ast.RangeStmt:
				if !walk(s.Body.List) {
					return false
				}
			default:
				return false
			}
		}
		return true
	}
	if !walk(rs.Body.List) || len(collected) == 0 {
		return false
	}
	body := enclosingFuncBody(stack)
	if body == nil {
		return false
	}
	for _, dst := range collected {
		if !sortedInFunc(pass, body, dst) {
			return false
		}
	}
	return true
}

// sortedInFunc reports whether the function body contains a sort.* or
// slices.* call with the access path among its arguments.
func sortedInFunc(pass *Pass, body *ast.BlockStmt, path string) bool {
	for _, arg := range sortedArgs(pass.Pkg.Info, body) {
		if exprString(arg) == path {
			return true
		}
	}
	return false
}

// orderInsensitiveStmt reports whether executing stmt for the map's entries
// in any order produces identical state. key/val are the iteration
// variables; anything that leaks them out of the loop is order-sensitive.
func orderInsensitiveStmt(pass *Pass, stmt ast.Stmt, key, val types.Object) bool {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) != len(s.Rhs) && len(s.Rhs) != 1 {
			return false
		}
		switch s.Tok {
		case token.ASSIGN, token.DEFINE:
			// `cp := make(…)` / `x := T{…}`: a fresh per-iteration value
			// carries no cross-iteration state.
			if s.Tok == token.DEFINE && allFreshValues(pass, s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				if len(s.Rhs) == len(s.Lhs) && constMapStore(pass, lhs, s.Rhs[i]) {
					continue
				}
				if !(keyedMapStore(pass, lhs, key) || isBlank(lhs) || boolIdent(pass, lhs)) {
					return false
				}
			}
			return true
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN,
			token.XOR_ASSIGN, token.AND_NOT_ASSIGN:
			// Integer accumulation commutes; float accumulation does not
			// (bitwise). A store keyed by the range key touches each slot
			// exactly once, so any element type is fine there.
			lhs := s.Lhs[0]
			return keyedMapStore(pass, lhs, key) || isIntegerExpr(pass, lhs)
		}
		return false
	case *ast.IncDecStmt:
		return keyedMapStore(pass, s.X, key) || isIntegerExpr(pass, s.X)
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		return ok && isBuiltin(pass, call.Fun, "delete")
	case *ast.IfStmt:
		if maxMinFold(pass, s, key, val) {
			return true
		}
		if s.Else != nil && !orderInsensitiveStmt(pass, s.Else, key, val) {
			return false
		}
		return orderInsensitiveStmt(pass, s.Body, key, val)
	case *ast.RangeStmt:
		t := pass.TypeOf(s.X)
		if t == nil {
			return false
		}
		switch t.Underlying().(type) {
		case *types.Map:
			// A nested range over another map: order-insensitive iff its
			// own body is, with the inner iteration variables in play.
			innerKey := identObj(pass.Pkg.Info, s.Key)
			innerVal := identObj(pass.Pkg.Info, s.Value)
			for _, sub := range s.Body.List {
				if !orderInsensitiveStmt(pass, sub, innerKey, innerVal) {
					return false
				}
			}
			return true
		case *types.Slice, *types.Array, *types.Basic:
			// A nested range over an ordered collection runs in a fixed
			// order per outer entry; what matters is still the outer
			// iteration variables.
			for _, sub := range s.Body.List {
				if !orderInsensitiveStmt(pass, sub, key, val) {
					return false
				}
			}
			return true
		}
		return false
	case *ast.BlockStmt:
		for _, sub := range s.List {
			if !orderInsensitiveStmt(pass, sub, key, val) {
				return false
			}
		}
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE
	case *ast.ReturnStmt:
		// `return true` from an existence scan is fine; `return k` leaks
		// whichever entry the runtime visited first.
		for _, res := range s.Results {
			if usesObject(pass, res, key) || usesObject(pass, res, val) {
				return false
			}
		}
		return true
	}
	return false
}

// maxMinFold recognizes `if v > best { best = v }` (any of > < >= <=):
// max/min of a set does not depend on visit order, even for floats.
func maxMinFold(pass *Pass, s *ast.IfStmt, key, val types.Object) bool {
	if s.Init != nil || s.Else != nil || len(s.Body.List) != 1 {
		return false
	}
	cond, ok := s.Cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch cond.Op {
	case token.GTR, token.LSS, token.GEQ, token.LEQ:
	default:
		return false
	}
	as, ok := s.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	lhs, rhs := exprString(as.Lhs[0]), exprString(as.Rhs[0])
	x, y := exprString(cond.X), exprString(cond.Y)
	// The compared pair must be exactly the accumulated pair, and the
	// accumulator must live outside the loop variables.
	if !(x == rhs && y == lhs || x == lhs && y == rhs) {
		return false
	}
	return !usesObject(pass, as.Lhs[0], key) && !usesObject(pass, as.Lhs[0], val)
}

// allNewLocals reports whether every expression is an identifier freshly
// defined by the enclosing := statement.
func allNewLocals(pass *Pass, exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok {
			return false
		}
		if id.Name != "_" && pass.Pkg.Info.Defs[id] == nil {
			return false
		}
	}
	return true
}

func allSideEffectFree(exprs []ast.Expr) bool {
	for _, e := range exprs {
		if !sideEffectFree(e) {
			return false
		}
	}
	return true
}

// allFreshValues reports whether every expression creates a new value
// (make/new call, composite literal, or basic literal).
func allFreshValues(pass *Pass, exprs []ast.Expr) bool {
	for _, e := range exprs {
		switch v := e.(type) {
		case *ast.CompositeLit, *ast.BasicLit:
		case *ast.UnaryExpr:
			if _, lit := v.X.(*ast.CompositeLit); !lit {
				return false
			}
		case *ast.CallExpr:
			if !isBuiltin(pass, v.Fun, "make") && !isBuiltin(pass, v.Fun, "new") {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// constMapStore reports whether lhs = rhs is a map store of a compile-time
// constant (`seen[a.Site] = true`): every visit writes the identical value,
// so colliding keys and visit order are both irrelevant.
func constMapStore(pass *Pass, lhs, rhs ast.Expr) bool {
	ix, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return false
	}
	t := pass.TypeOf(ix.X)
	if t == nil {
		return false
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return false
	}
	return isConstant(pass, rhs)
}

// keyedMapStore reports whether e is m[k] where m is a map and the index
// mentions the range key (each entry then writes its own slot exactly once).
func keyedMapStore(pass *Pass, e ast.Expr, key types.Object) bool {
	ix, ok := e.(*ast.IndexExpr)
	if !ok {
		return false
	}
	t := pass.TypeOf(ix.X)
	if t == nil {
		return false
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return false
	}
	return key != nil && usesObject(pass, ix.Index, key)
}

func boolIdent(pass *Pass, e ast.Expr) bool {
	if identObj(pass.Pkg.Info, e) == nil {
		return false
	}
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsBoolean != 0
}

func isIntegerExpr(pass *Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func isBuiltin(pass *Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := pass.Pkg.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

func usesObject(pass *Pass, e ast.Expr, obj types.Object) bool {
	if obj == nil || e == nil {
		return false
	}
	used := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Pkg.Info.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
}
