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

// namedStruct unwraps a type to its underlying struct, following pointers
// and aliases; ok is false for non-struct types.
func namedStruct(t types.Type) (*types.Struct, bool) {
	if t == nil {
		return nil, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	s, ok := t.Underlying().(*types.Struct)
	return s, ok
}

// syncType reports whether t is the named sync type (e.g. "Mutex").
func syncType(t types.Type, names ...string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	for _, name := range names {
		if obj.Name() == name {
			return true
		}
	}
	return false
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	return syncType(t, "Mutex", "RWMutex")
}

// lockHolder reports whether a value of type t embeds lock state that must
// not be copied: any sync primitive with by-value identity, directly or
// through nested structs and arrays. seen guards against recursive types.
func lockHolder(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if syncType(t, "Mutex", "RWMutex", "Once", "WaitGroup", "Cond", "Map", "Pool") {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if lockHolder(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return lockHolder(u.Elem(), seen)
	}
	return false
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
