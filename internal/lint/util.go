package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// inspectWithStack walks the AST like ast.Inspect but hands the callback
// the stack of ancestor nodes (outermost first, not including n).
func inspectWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		recurse := fn(n, stack)
		if recurse {
			stack = append(stack, n)
		}
		return recurse
	})
}

// enclosingFuncBody returns the body of the nearest enclosing function
// declaration or literal on the stack.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			return f.Body
		case *ast.FuncLit:
			return f.Body
		}
	}
	return nil
}

// outermostFuncBody returns the body of the outermost enclosing function
// declaration (crossing function literals), for flow-insensitive "does this
// function take the lock" checks.
func outermostFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := 0; i < len(stack); i++ {
		if f, ok := stack[i].(*ast.FuncDecl); ok {
			return f.Body
		}
	}
	// A func literal at top level (package var initializer).
	for i := 0; i < len(stack); i++ {
		if f, ok := stack[i].(*ast.FuncLit); ok {
			return f.Body
		}
	}
	return nil
}

// exprString renders an expression compactly for messages and for matching
// lock-receiver paths against field-access paths.
func exprString(e ast.Expr) string {
	return types.ExprString(e)
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && (obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// identObj returns the object an identifier defines or uses; nil when e is
// not an identifier.
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// sortedArgs lists the arguments of every sort.* and slices.* call in body,
// a leading & stripped: the values the function re-orders in place.
func sortedArgs(info *types.Info, body ast.Node) []ast.Expr {
	var out []ast.Expr
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || (pkg.Name != "sort" && pkg.Name != "slices") {
			return true
		}
		if _, isPkg := info.Uses[pkg].(*types.PkgName); !isPkg {
			return true
		}
		for _, arg := range call.Args {
			if u, isAddr := arg.(*ast.UnaryExpr); isAddr && u.Op == token.AND {
				arg = u.X
			}
			out = append(out, arg)
		}
		return true
	})
	return out
}

// ignoreSpans indexes every //vdce:ignore span naming rule across the load,
// per file, as (firstLine, lastLine) line intervals. File-wide directives
// cover the whole file.
func ignoreSpans(prog *Program, rule string) map[string][][2]int {
	out := map[string][][2]int{}
	fset := prog.fset()
	for _, pkg := range prog.Pkgs {
		for _, sf := range pkg.Files {
			for _, s := range parseSuppressions(fset, sf.AST) {
				if !hasString(s.rules, rule) {
					continue
				}
				span := [2]int{s.line, s.endLine}
				if s.fileWide {
					span = [2]int{1, int(^uint(0) >> 1)}
				}
				out[s.file] = append(out[s.file], span)
			}
		}
	}
	return out
}

// coveredBySpans reports whether pos falls inside one of the indexed spans.
func coveredBySpans(spans map[string][][2]int, fset *token.FileSet, pos token.Pos) bool {
	p := fset.Position(pos)
	for _, span := range spans[p.Filename] {
		if p.Line >= span[0] && p.Line <= span[1] {
			return true
		}
	}
	return false
}

// hasString reports whether s contains v (tiny slices; no allocation).
func hasString(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
