package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// LockDiscipline returns the lockdiscipline analyzer.
//
// Invariant: mutex-guarded state is only touched with the mutex held. A
// struct field opts in with a `guarded by <mutexField>` marker in its field
// comment (the LoadLedger stripes and the datamgr proxy use it); the
// analyzer then flags every read or write of that field from a function
// that never takes the named mutex on the same access path. The check is
// flow-insensitive by design — it enforces the *protocol* (this function
// participates in locking) rather than simulating execution, which keeps it
// fast and predictable. Accesses to freshly allocated, not-yet-shared
// values (`l := &LoadLedger{}` in a constructor) are exempt.
//
// Copies of lock state (by-value receivers, parameters, range values,
// assignments, `return c`) are `go vet` copylocks' job, not this rule's.
func LockDiscipline() *Analyzer {
	a := &Analyzer{
		Name: "lockdiscipline",
		Doc:  "`guarded by mu` fields only touched under their mutex",
	}
	a.Run = func(pass *Pass) {
		guards := collectGuards(pass)
		for _, sf := range pass.Pkg.Files {
			checkGuardedAccesses(pass, sf, guards)
		}
	}
	return a
}

var guardedByRE = regexp.MustCompile(`guarded by (\w+)`)

// A guard maps a struct field to the name of the sibling mutex field that
// protects it.
type guard struct {
	mutex string
}

// collectGuards scans struct declarations for `guarded by <mu>` field
// comments and validates that the named mutex field exists.
func collectGuards(pass *Pass) map[types.Object]guard {
	guards := map[types.Object]guard{}
	for _, sf := range pass.Pkg.Files {
		ast.Inspect(sf.AST, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := guardAnnotation(field)
				if mu == "" {
					continue
				}
				if !structHasMutexField(pass, st, mu) {
					pass.Reportf(field.Pos(),
						"field marked `guarded by %s` but the struct has no sync.Mutex/RWMutex field named %q", mu, mu)
					continue
				}
				for _, name := range field.Names {
					if obj := pass.Pkg.Info.Defs[name]; obj != nil {
						guards[obj] = guard{mutex: mu}
					}
				}
			}
			return true
		})
	}
	return guards
}

func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRE.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

func structHasMutexField(pass *Pass, st *ast.StructType, name string) bool {
	for _, field := range st.Fields.List {
		for _, n := range field.Names {
			if n.Name == name {
				return isMutexType(pass.TypeOf(field.Type))
			}
		}
		if len(field.Names) == 0 { // embedded sync.Mutex
			if isMutexType(pass.TypeOf(field.Type)) && strings.HasSuffix(exprString(field.Type), name) {
				return true
			}
		}
	}
	return false
}

var lockOps = map[string]bool{
	"Lock": true, "RLock": true, "TryLock": true, "TryRLock": true,
	"Unlock": true, "RUnlock": true,
}

func checkGuardedAccesses(pass *Pass, sf SourceFile, guards map[types.Object]guard) {
	if len(guards) == 0 {
		return
	}
	inspectWithStack(sf.AST, func(n ast.Node, stack []ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection := pass.Pkg.Info.Selections[sel]
		if selection == nil || selection.Kind() != types.FieldVal {
			return true
		}
		g, guarded := guards[selection.Obj()]
		if !guarded {
			return true
		}
		base := exprString(sel.X)
		body := outermostFuncBody(stack)
		if body == nil {
			return true // package-level initializer: nothing is concurrent yet
		}
		if funcTakesLock(pass, body, base, g.mutex) {
			return true
		}
		if freshlyAllocated(pass, body, sel.X) {
			return true
		}
		pass.Reportf(sel.Sel.Pos(),
			"%s.%s is guarded by %s.%s, but this function never locks it",
			base, sel.Sel.Name, base, g.mutex)
		return true
	})
}

// funcTakesLock reports whether body contains any lock-protocol call
// (<base>.<mu>.Lock/RLock/Unlock/...) on the same access path. Unlock
// counts: a `defer x.mu.Unlock()` marks the function as a participant.
func funcTakesLock(pass *Pass, body *ast.BlockStmt, base, mutex string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		op, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !lockOps[op.Sel.Name] {
			return true
		}
		mu, ok := op.X.(*ast.SelectorExpr)
		if !ok || mu.Sel.Name != mutex {
			return true
		}
		if exprString(mu.X) == base {
			found = true
		}
		return !found
	})
	return found
}

// freshlyAllocated reports whether the access path's root variable is a
// local defined in this function from a new allocation (&T{...}, T{...} or
// new(T)) — a value no other goroutine can hold yet.
func freshlyAllocated(pass *Pass, body *ast.BlockStmt, baseExpr ast.Expr) bool {
	root := rootIdent(baseExpr)
	if root == nil {
		return false
	}
	obj := pass.Pkg.Info.Uses[root]
	if obj == nil {
		return false
	}
	fresh := false
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || fresh {
			return !fresh
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || pass.Pkg.Info.Defs[id] != obj {
				continue
			}
			if i < len(as.Rhs) && isFreshAlloc(pass, as.Rhs[i]) {
				fresh = true
			}
		}
		return !fresh
	})
	return fresh
}

func isFreshAlloc(pass *Pass, e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, lit := v.X.(*ast.CompositeLit)
		return lit
	case *ast.CallExpr:
		return isBuiltin(pass, v.Fun, "new")
	}
	return false
}

func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}
