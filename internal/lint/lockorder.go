package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder returns the lockorder analyzer.
//
// Invariant: the static mutex-acquisition graph is acyclic. Nodes are lock
// CLASSES — a named struct's mutex field ("scheduler.ledgerShard.mu",
// binding every instance of the stripe array to one node) or a package-
// level mutex ("scheduler.registryMu"). An edge A→B is recorded whenever B
// is acquired while A is held: directly, or transitively through any call
// chain (callee lock sets are a fixpoint over the call graph, interface
// calls resolved CHA-style to the in-load implementers). Any cycle —
// including a self-edge, since sync.Mutex is not reentrant and two
// instances of one class can be locked in either order from concurrent
// goroutines — is a potential deadlock and is reported once, at its first
// witness position.
//
// The held-set tracking is deliberately syntactic: statements are walked in
// source order, Lock/RLock push a class, Unlock/RUnlock pop it, and a
// deferred Unlock holds to the end of the function. `go` statements start a
// fresh held set (a spawned goroutine's acquisitions are not ordered after
// the spawner's), while function literals called synchronously (sort.Slice
// comparators and the like) inherit the caller's held set. The existing
// `guarded by <mu>` annotations bind each mutex class to the state it
// protects, which is how the classes got their names in the first place —
// lockdiscipline enforces the binding per access, lockorder orders the
// classes globally.
func LockOrder() *Analyzer {
	a := &Analyzer{
		Name: "lockorder",
		Doc:  "the static mutex-acquisition graph (direct + transitive via calls) must be acyclic",
	}
	a.RunProgram = func(pass *ProgramPass) {
		lo := &lockorder{
			pass:  pass,
			may:   map[*types.Func]map[string]bool{},
			edges: map[[2]string]*lockEdge{},
		}
		for _, fi := range pass.Prog.Funcs() {
			lo.may[fi.Obj] = directLocks(fi)
		}
		pass.Prog.fixpoint(lo.mayLock)
		for _, fi := range pass.Prog.Funcs() {
			lo.walkFunc(fi)
		}
		lo.reportCycles()
	}
	return a
}

type lockEdge struct {
	from, to string
	pos      token.Pos
	via      string // "" for a direct acquisition, else the callee chain hint
}

type lockorder struct {
	pass  *ProgramPass
	may   map[*types.Func]map[string]bool // classes a function may acquire, transitively
	edges map[[2]string]*lockEdge
}

// lockAcq describes one Lock/RLock/Unlock/RUnlock call: its mutex class
// and whether it acquires or releases.
type lockAcq struct {
	class   string
	acquire bool
}

// acqOf classifies call as a sync Lock/RLock/Unlock/... on a nameable
// class: the mutex expression's own, or, for a Lock promoted through an
// embedded sync.Mutex (`m.Lock()`), the embedded field's.
func acqOf(pkg *Package, call *ast.CallExpr) (lockAcq, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !lockOps[sel.Sel.Name] {
		return lockAcq{}, false
	}
	if m, ok := pkg.Info.Uses[sel.Sel].(*types.Func); !ok || m.Pkg() == nil || m.Pkg().Path() != "sync" {
		return lockAcq{}, false
	}
	cls, ok := mutexClass(pkg, sel.X)
	if !ok {
		cls, ok = embeddedMutexClass(pkg, sel)
	}
	return lockAcq{class: cls, acquire: !strings.HasSuffix(sel.Sel.Name, "Unlock")}, ok
}

// mutexClass names the lock class of a mutex-valued expression:
//
//	l.shards[i].mu  → "scheduler.ledgerShard.mu"   (field of a named struct)
//	registryMu      → "scheduler.registryMu"       (package-level var)
//	m (embedded)    → "datamgr.Manager.Mutex"      (embedded sync.Mutex)
func mutexClass(pkg *Package, e ast.Expr) (string, bool) {
	e = ast.Unparen(e)
	switch v := e.(type) {
	case *ast.SelectorExpr:
		if selection := pkg.Info.Selections[v]; selection != nil && selection.Kind() == types.FieldVal {
			owner := selection.Recv()
			if ptr, ok := owner.(*types.Pointer); ok {
				owner = ptr.Elem()
			}
			if named, ok := owner.(*types.Named); ok {
				return moduleTypeName(named) + "." + v.Sel.Name, true
			}
			return "", false
		}
		// Package-qualified var (pkg.GlobalMu).
		if obj, ok := pkg.Info.Uses[v.Sel].(*types.Var); ok && isMutexType(obj.Type()) {
			return varClass(obj), true
		}
	case *ast.Ident:
		obj, ok := pkg.Info.Uses[v].(*types.Var)
		if !ok || !isMutexType(obj.Type()) {
			return "", false
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return varClass(obj), true
		}
		// A local mutex variable cannot be classified (no stable identity
		// across functions); ignore it.
		return "", false
	}
	return "", false
}

func varClass(obj *types.Var) string {
	path := obj.Pkg().Path()
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return path + "." + obj.Name()
}

// embeddedMutexClass names the embedded field a promoted Lock call
// (`m.Lock()` on a struct embedding sync.Mutex) goes through.
func embeddedMutexClass(pkg *Package, sel *ast.SelectorExpr) (string, bool) {
	selection := pkg.Info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return "", false
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || isMutexType(named) {
		return "", false // direct mutex receiver: classified via sel.X instead
	}
	st, ok := named.Underlying().(*types.Struct)
	idx := selection.Index()
	if !ok || len(idx) < 2 || idx[0] >= st.NumFields() {
		return "", false
	}
	return moduleTypeName(named) + "." + st.Field(idx[0]).Name(), true
}

// directLocks collects every class the function may acquire anywhere in its
// body (function literals included: even a goroutine's acquisition makes
// the class reachable from this function for transitive purposes).
func directLocks(fi *FuncInfo) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if acq, ok := acqOf(fi.Pkg, call); ok && acq.acquire {
			out[acq.class] = true
		}
		return true
	})
	return out
}

// mayLock is the fixpoint step closing the may-lock sets over the call
// graph: fi gains every class its callees may acquire.
func (lo *lockorder) mayLock(fi *FuncInfo) bool {
	mine, grew := lo.may[fi.Obj], false
	for _, site := range fi.Calls {
		for _, callee := range site.Callees {
			for c := range lo.may[callee.Origin()] {
				if !mine[c] {
					mine[c] = true
					grew = true
				}
			}
		}
	}
	return grew
}

func (lo *lockorder) addEdge(from, to string, pos token.Pos, via string) {
	key := [2]string{from, to}
	if _, ok := lo.edges[key]; ok {
		return
	}
	lo.edges[key] = &lockEdge{from: from, to: to, pos: pos, via: via}
}

// walkFunc drives the held-set walk over one function body.
func (lo *lockorder) walkFunc(fi *FuncInfo) {
	held := map[string]int{}
	lo.walkStmts(fi, fi.Decl.Body.List, held)
}

func (lo *lockorder) walkStmts(fi *FuncInfo, stmts []ast.Stmt, held map[string]int) {
	for _, s := range stmts {
		lo.walkStmt(fi, s, held)
	}
}

func (lo *lockorder) walkStmt(fi *FuncInfo, s ast.Stmt, held map[string]int) {
	switch v := s.(type) {
	case nil:
	case *ast.ExprStmt:
		lo.walkExpr(fi, v.X, held)
	case *ast.AssignStmt:
		for _, e := range v.Rhs {
			lo.walkExpr(fi, e, held)
		}
		for _, e := range v.Lhs {
			lo.walkExpr(fi, e, held)
		}
	case *ast.DeferStmt:
		// A deferred Unlock releases at return: the class stays held for
		// the remainder of the walk, which is exactly the conservative
		// reading. A deferred Lock (pathological) or ordinary deferred
		// call is treated as a call made here.
		if acq, ok := acqOf(fi.Pkg, v.Call); ok {
			if acq.acquire {
				lo.acquire(fi, acq.class, v.Call.Pos(), held)
			}
			return
		}
		lo.walkExpr(fi, v.Call, held)
	case *ast.GoStmt:
		// The goroutine's acquisitions are unordered wrt the spawner's
		// held set; its body is walked with a fresh one.
		for _, a := range v.Call.Args {
			lo.walkExpr(fi, a, held)
		}
		if lit, ok := ast.Unparen(v.Call.Fun).(*ast.FuncLit); ok {
			lo.walkStmts(fi, lit.Body.List, map[string]int{})
		}
	case *ast.ReturnStmt:
		for _, e := range v.Results {
			lo.walkExpr(fi, e, held)
		}
	case *ast.IfStmt:
		lo.walkStmt(fi, v.Init, held)
		lo.walkExpr(fi, v.Cond, held)
		lo.walkBranch(fi, v.Body.List, held)
		if eb, ok := v.Else.(*ast.BlockStmt); ok {
			lo.walkBranch(fi, eb.List, held)
		} else if v.Else != nil {
			lo.walkStmt(fi, v.Else, held) // else-if: recurses into its own branches
		}
	case *ast.ForStmt:
		lo.walkStmt(fi, v.Init, held)
		if v.Cond != nil {
			lo.walkExpr(fi, v.Cond, held)
		}
		lo.walkStmts(fi, v.Body.List, held)
		lo.walkStmt(fi, v.Post, held)
	case *ast.RangeStmt:
		lo.walkExpr(fi, v.X, held)
		lo.walkStmts(fi, v.Body.List, held)
	case *ast.BlockStmt:
		lo.walkStmts(fi, v.List, held)
	case *ast.SwitchStmt:
		lo.walkStmt(fi, v.Init, held)
		if v.Tag != nil {
			lo.walkExpr(fi, v.Tag, held)
		}
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					lo.walkExpr(fi, e, held)
				}
				lo.walkBranch(fi, cc.Body, held)
			}
		}
	case *ast.TypeSwitchStmt:
		lo.walkStmt(fi, v.Init, held)
		lo.walkStmt(fi, v.Assign, held)
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lo.walkBranch(fi, cc.Body, held)
			}
		}
	case *ast.SelectStmt:
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				lo.walkStmt(fi, cc.Comm, held)
				lo.walkBranch(fi, cc.Body, held)
			}
		}
	case *ast.LabeledStmt:
		lo.walkStmt(fi, v.Stmt, held)
	case *ast.SendStmt:
		lo.walkExpr(fi, v.Chan, held)
		lo.walkExpr(fi, v.Value, held)
	case *ast.IncDecStmt:
		lo.walkExpr(fi, v.X, held)
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						lo.walkExpr(fi, e, held)
					}
				}
			}
		}
	}
}

// walkBranch walks a conditional branch with its own copy of the held set.
// A branch that falls through merges its acquisitions back (max per class,
// order-independent); a branch that terminates — ends in return or panic —
// discards them, so the `if special { mu.RLock(); defer mu.RUnlock();
// return ... }` early-exit shape does not fabricate a self-edge with the
// lock taken on the fallthrough path.
func (lo *lockorder) walkBranch(fi *FuncInfo, stmts []ast.Stmt, held map[string]int) {
	branch := make(map[string]int, len(held))
	for _, c := range heldClasses(held) {
		branch[c] = held[c]
	}
	lo.walkStmts(fi, stmts, branch)
	if branchTerminates(stmts) {
		return
	}
	for _, c := range heldClasses(branch) {
		if branch[c] > held[c] {
			held[c] = branch[c]
		}
	}
}

// branchTerminates reports whether a statement list always exits the
// function (return or panic as the last statement).
func branchTerminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// heldClasses returns the classes held at least once, sorted.
func heldClasses(held map[string]int) []string {
	var out []string
	for c, n := range held {
		if n > 0 {
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

// walkExpr processes calls nested in an expression in evaluation order.
func (lo *lockorder) walkExpr(fi *FuncInfo, e ast.Expr, held map[string]int) {
	if e == nil {
		return
	}
	switch v := e.(type) {
	case *ast.CallExpr:
		for _, a := range v.Args {
			lo.walkExpr(fi, a, held)
			// A function literal passed to a call runs synchronously for
			// every caller in this repo (sort comparators, walk callbacks):
			// its body inherits the held set.
			if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
				lo.walkStmts(fi, lit.Body.List, held)
			}
		}
		lo.walkExpr(fi, v.Fun, held)
		lo.callSite(fi, v, held)
	case *ast.SelectorExpr:
		lo.walkExpr(fi, v.X, held)
	case *ast.BinaryExpr:
		lo.walkExpr(fi, v.X, held)
		lo.walkExpr(fi, v.Y, held)
	case *ast.UnaryExpr:
		lo.walkExpr(fi, v.X, held)
	case *ast.ParenExpr:
		lo.walkExpr(fi, v.X, held)
	case *ast.StarExpr:
		lo.walkExpr(fi, v.X, held)
	case *ast.IndexExpr:
		lo.walkExpr(fi, v.X, held)
		lo.walkExpr(fi, v.Index, held)
	case *ast.SliceExpr:
		lo.walkExpr(fi, v.X, held)
	case *ast.TypeAssertExpr:
		lo.walkExpr(fi, v.X, held)
	case *ast.CompositeLit:
		for _, elt := range v.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				lo.walkExpr(fi, kv.Value, held)
				continue
			}
			lo.walkExpr(fi, elt, held)
		}
	}
}

// callSite applies one call's lock effects under the current held set.
func (lo *lockorder) callSite(fi *FuncInfo, call *ast.CallExpr, held map[string]int) {
	if acq, ok := acqOf(fi.Pkg, call); ok {
		if acq.acquire {
			lo.acquire(fi, acq.class, call.Pos(), held)
		} else if held[acq.class] > 0 {
			held[acq.class]--
		}
		return
	}
	if len(held) == 0 {
		return
	}
	site := lo.pass.Prog.ResolveCall(fi.Pkg, call)
	if site == nil {
		return
	}
	for _, callee := range site.Callees {
		inner := lo.may[callee.Origin()]
		if len(inner) == 0 {
			continue
		}
		for _, b := range sortedKeys(inner) {
			for _, a := range heldClasses(held) {
				lo.addEdge(a, b, call.Pos(), FuncKey(callee))
			}
		}
	}
}

func (lo *lockorder) acquire(fi *FuncInfo, class string, pos token.Pos, held map[string]int) {
	for _, a := range heldClasses(held) {
		lo.addEdge(a, class, pos, "")
	}
	held[class]++
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// reportCycles finds strongly connected components of the acquisition
// graph and reports each cycle (SCC of size > 1, or a self-edge) once.
func (lo *lockorder) reportCycles() {
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for key := range lo.edges {
		adj[key[0]] = append(adj[key[0]], key[1])
		nodes[key[0]], nodes[key[1]] = true, true
	}
	order := sortedKeys(nodes)
	for _, k := range order {
		sort.Strings(adj[k])
	}

	// Tarjan SCC, deterministic by visiting nodes and successors in sorted
	// order.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0
	var strong func(v string)
	strong = func(v string) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Strings(scc)
			sccs = append(sccs, scc)
		}
	}
	for _, v := range order {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}

	for _, scc := range sccs {
		if len(scc) == 1 {
			if _, self := lo.edges[[2]string{scc[0], scc[0]}]; !self {
				continue
			}
		}
		lo.reportCycle(scc)
	}
}

func (lo *lockorder) reportCycle(scc []string) {
	in := map[string]bool{}
	for _, c := range scc {
		in[c] = true
	}
	var parts []string
	var witness *lockEdge
	for _, from := range scc {
		for _, to := range scc {
			e, ok := lo.edges[[2]string{from, to}]
			if !ok || !in[e.from] || !in[e.to] {
				continue
			}
			loc := lo.pass.Prog.fset().Position(e.pos)
			hop := fmt.Sprintf("%s→%s (%s:%d", e.from, e.to, filepathBase(loc.Filename), loc.Line)
			if e.via != "" {
				hop += " via " + e.via
			}
			hop += ")"
			parts = append(parts, hop)
			if witness == nil {
				witness = e
			}
		}
	}
	if witness == nil {
		return
	}
	lo.pass.Reportf(witness.pos,
		"lock-order cycle (potential deadlock) among {%s}: %s; acquire these classes in one global order",
		strings.Join(scc, ", "), strings.Join(parts, ", "))
}

func filepathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}
