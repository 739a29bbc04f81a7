package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// FloatEq returns the floateq analyzer.
//
// Invariant: makespans, ranks, and EFTs are float64, and exact `==`/`!=` on
// them is meaningful only where bit-identical reproduction is the point —
// the oracle/equivalence tests that pin the dense core to the map-keyed
// originals and the validator to the simulator. Everywhere else a raw float
// comparison is a latent tolerance bug, and metrics.ApproxEqual (or a
// restructure) is the right tool.
//
// Allowlisted files, where exact comparison IS the invariant under test:
// _test.go files whose name contains "oracle", "equiv", or "golden". Other
// intentional sites use //vdce:ignore floateq <reason> (line) or
// //vdce:ignore-file floateq <reason> (whole file).
//
// The NaN self-comparison idiom (x != x on a side-effect-free operand) is
// recognized and allowed, and so is any comparison with a compile-time
// constant operand (`x == 0` unset-sentinel checks, exact pivot tests, and
// test assertions against exactly representable literals): the invariant
// this rule protects is about *computed* quantities meeting each other,
// where equal-in-exact-arithmetic values differ in floating point.
//
// Also allowed is the ordering tie-break idiom: an exact ==/!= whose
// operand pair is elsewhere in the same function compared with </>/<=/>=
// (`if ri != rj { return ri > rj }; return i < j`, running minima with
// name tie-breaks). Those comparisons define a total order, and replacing
// them with a tolerance would break strict weak ordering — sort.Slice
// would see a < b, b < c, but not a < c.
func FloatEq() *Analyzer {
	a := &Analyzer{
		Name: "floateq",
		Doc:  "no exact float64 ==/!=/switch outside the oracle/equivalence allowlist",
	}
	a.Run = func(pass *Pass) {
		for _, sf := range pass.Pkg.Files {
			if floatEqAllowedFile(sf) {
				continue
			}
			inspectWithStack(sf.AST, func(n ast.Node, stack []ast.Node) bool {
				switch e := n.(type) {
				case *ast.BinaryExpr:
					if e.Op != token.EQL && e.Op != token.NEQ {
						return true
					}
					if !isFloatExpr(pass, e.X) && !isFloatExpr(pass, e.Y) {
						return true
					}
					if isConstant(pass, e.X) || isConstant(pass, e.Y) {
						return true
					}
					if nanSelfCheck(e) {
						return true
					}
					if orderedTieBreak(e, stack) {
						return true
					}
					pass.Reportf(e.OpPos,
						"exact float64 comparison (%s %s %s); use metrics.ApproxEqual or //vdce:ignore floateq <reason> if bit-identity is intended",
						exprString(e.X), e.Op, exprString(e.Y))
				case *ast.SwitchStmt:
					if e.Tag != nil && isFloatExpr(pass, e.Tag) {
						pass.Reportf(e.Switch,
							"switch on float64 value %s compares exactly; restructure as if/else with tolerances",
							exprString(e.Tag))
					}
				}
				return true
			})
		}
	}
	return a
}

func floatEqAllowedFile(sf SourceFile) bool {
	if !sf.Test {
		return false
	}
	base := filepath.Base(sf.Path)
	for _, marker := range []string{"oracle", "equiv", "golden"} {
		if strings.Contains(base, marker) {
			return true
		}
	}
	return false
}

func isFloatExpr(pass *Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isConstant(pass *Pass, e ast.Expr) bool {
	return pass.Pkg.Info.Types[e].Value != nil
}

// orderedTieBreak reports whether the exact comparison's operand pair is
// also compared with a relational operator somewhere in the enclosing
// function — the comparator/running-minimum shape where exact equality
// selects the deterministic tie-break arm of a total order.
func orderedTieBreak(e *ast.BinaryExpr, stack []ast.Node) bool {
	body := enclosingFuncBody(stack)
	if body == nil {
		return false
	}
	x, y := exprString(e.X), exprString(e.Y)
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || found {
			return !found
		}
		switch b.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
		default:
			return true
		}
		bx, by := exprString(b.X), exprString(b.Y)
		if (bx == x && by == y) || (bx == y && by == x) {
			found = true
		}
		return !found
	})
	return found
}

// nanSelfCheck recognizes `x != x` / `x == x` on a pure operand — the
// portable NaN test.
func nanSelfCheck(e *ast.BinaryExpr) bool {
	if exprString(e.X) != exprString(e.Y) {
		return false
	}
	return sideEffectFree(e.X)
}

func sideEffectFree(e ast.Expr) bool {
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			pure = false
		}
		return pure
	})
	return pure
}
