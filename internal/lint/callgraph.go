package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural tier's foundation: a deterministic,
// whole-load view of every function body with its call sites resolved —
// statically where the callee is a named function or a concrete method, and
// CHA-style (class-hierarchy analysis) where the call goes through an
// interface method, in which case the callee set is every in-load named
// type implementing the interface. Resolution is deliberately restricted to
// the packages under analysis: a schedule can only dispatch to policies
// compiled into this module, so out-of-module implementers would be noise.
//
// Determinism contract: Funcs(), CallSite.Callees, and every index built
// here iterate in FuncKey order (full name, then position), never in map
// order, so analyzer findings and golden callee lists are bit-stable.

// Program is the whole-load view backing interprocedural analyzers.
type Program struct {
	Pkgs []*Package

	funcs map[*types.Func]*FuncInfo
	order []*FuncInfo

	// namedTypes are the in-load, non-test, non-interface named types, in
	// (package, name) order — the CHA implementer universe.
	namedTypes []*types.Named

	implCache map[implKey][]*types.Func
}

type implKey struct {
	iface  *types.Interface
	method string
}

// FuncInfo is one analyzed function body (test-file functions are excluded:
// production analyzers must not see test-only flows or lock orders).
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls lists every call expression in the body — including bodies of
	// nested function literals, which are attributed to the enclosing
	// declaration — in source order.
	Calls []*CallSite
}

// CallSite is one resolved call expression.
type CallSite struct {
	Call *ast.CallExpr
	// Callees holds the Origin-canonical callee set in FuncKey order: one
	// entry for a static call, every in-load implementer's method for an
	// interface call, empty for an interface nobody in the load implements.
	Callees []*types.Func
	// Interface marks CHA-resolved calls (the callee set is a may-dispatch
	// over-approximation, not a proof of reachability).
	Interface bool
	// Unresolved marks dynamic calls through func values, method values,
	// or fields of func type: the callee set is unknown, and analyzers
	// must treat the call conservatively.
	Unresolved bool
}

// FuncKey is the deterministic sort key for function objects: the
// qualified name ("(repro/internal/scheduler.heftPolicy).Schedule") — with
// the source position as tiebreak for same-name objects in distinct loads.
func FuncKey(f *types.Func) string {
	return f.FullName()
}

func funcLess(fset *token.FileSet, a, b *types.Func) bool {
	ka, kb := FuncKey(a), FuncKey(b)
	if ka != kb {
		return ka < kb
	}
	pa, pb := fset.Position(a.Pos()), fset.Position(b.Pos())
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	return pa.Offset < pb.Offset
}

// BuildProgram assembles the whole-load view over the given packages.
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:      pkgs,
		funcs:     map[*types.Func]*FuncInfo{},
		implCache: map[implKey][]*types.Func{},
	}
	for _, pkg := range pkgs {
		testFile := map[string]bool{}
		for _, sf := range pkg.Files {
			testFile[sf.Path] = sf.Test
		}
		for _, sf := range pkg.Files {
			if sf.Test {
				continue
			}
			for _, decl := range sf.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Obj: obj, Decl: fd, Pkg: pkg}
				p.funcs[obj] = fi
				p.order = append(p.order, fi)
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Scope.Names is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) || named.TypeParams().Len() > 0 {
				continue
			}
			if testFile[pkg.Fset.Position(tn.Pos()).Filename] {
				continue // test-only stubs are not production implementers
			}
			p.namedTypes = append(p.namedTypes, named)
		}
	}
	fset := p.fset()
	sort.SliceStable(p.order, func(i, j int) bool {
		return funcLess(fset, p.order[i].Obj, p.order[j].Obj)
	})
	for _, fi := range p.order {
		fi.Calls = p.collectCalls(fi)
	}
	return p
}

func (p *Program) fset() *token.FileSet {
	if len(p.Pkgs) > 0 {
		return p.Pkgs[0].Fset
	}
	return token.NewFileSet()
}

// Funcs returns every analyzed function in deterministic order.
func (p *Program) Funcs() []*FuncInfo { return p.order }

// fixpoint runs step over Funcs() until a full pass reports no change. It
// iterates every per-function summary (detflow's taint bits, lockorder's
// may-lock sets): each step may only grow a finite lattice, so the loop
// ends without a round cap.
func (p *Program) fixpoint(step func(*FuncInfo) bool) {
	for changed := true; changed; {
		changed = false
		for _, fi := range p.order {
			if step(fi) {
				changed = true
			}
		}
	}
}

func (p *Program) collectCalls(fi *FuncInfo) []*CallSite {
	var out []*CallSite
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if site := p.ResolveCall(fi.Pkg, call); site != nil {
			out = append(out, site)
		}
		return true
	})
	return out
}

// ResolveCall resolves one call expression against the load. It returns nil
// for non-calls (conversions, builtins); otherwise a CallSite whose callee
// set is static, CHA-resolved, or explicitly Unresolved.
func (p *Program) ResolveCall(pkg *Package, call *ast.CallExpr) *CallSite {
	fun := ast.Unparen(call.Fun)
	if tv, ok := pkg.Info.Types[fun]; ok && tv.IsType() {
		return nil // conversion
	}
	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := pkg.Info.Uses[f].(type) {
		case *types.Func:
			return &CallSite{Call: call, Callees: []*types.Func{obj.Origin()}}
		case *types.Builtin:
			return nil
		}
		return &CallSite{Call: call, Unresolved: true}
	case *ast.SelectorExpr:
		if sel := pkg.Info.Selections[f]; sel != nil {
			if sel.Kind() != types.MethodVal {
				// Method expression or func-typed field used as the callee.
				return &CallSite{Call: call, Unresolved: true}
			}
			m := sel.Obj().(*types.Func).Origin()
			recv := sel.Recv()
			if iface, ok := recv.Underlying().(*types.Interface); ok {
				return &CallSite{
					Call:      call,
					Callees:   p.Implementers(iface, m),
					Interface: true,
				}
			}
			return &CallSite{Call: call, Callees: []*types.Func{m}}
		}
		// Package-qualified call (fmt.Sprintf, time.Now, ...).
		if obj, ok := pkg.Info.Uses[f.Sel].(*types.Func); ok {
			return &CallSite{Call: call, Callees: []*types.Func{obj.Origin()}}
		}
		return &CallSite{Call: call, Unresolved: true}
	}
	// Calling the result of an expression (closure literal, call result...).
	if lit, ok := fun.(*ast.FuncLit); ok {
		_ = lit // immediately-invoked literal: body is walked by the caller anyway
		return nil
	}
	return &CallSite{Call: call, Unresolved: true}
}

// Implementers returns, in deterministic order, the declared method m of
// every in-load named type whose value or pointer implements iface.
func (p *Program) Implementers(iface *types.Interface, m *types.Func) []*types.Func {
	key := implKey{iface: iface, method: m.Id()}
	if got, ok := p.implCache[key]; ok {
		return got
	}
	var out []*types.Func
	for _, named := range p.namedTypes {
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, m.Pkg(), m.Name())
		if f, ok := obj.(*types.Func); ok {
			out = append(out, f.Origin())
		}
	}
	fset := p.fset()
	sort.SliceStable(out, func(i, j int) bool { return funcLess(fset, out[i], out[j]) })
	// Promoted methods can resolve several implementers to one declaration.
	dedup := out[:0]
	for i, f := range out {
		if i == 0 || f != out[i-1] {
			dedup = append(dedup, f)
		}
	}
	p.implCache[key] = dedup
	return dedup
}

// CalleeKeys renders a call site's callee set as sorted FuncKeys (golden
// tests and messages).
func (s *CallSite) CalleeKeys() []string {
	out := make([]string, len(s.Callees))
	for i, f := range s.Callees {
		out[i] = FuncKey(f)
	}
	return out
}

// moduleTypeName reports the named type's "pkgname.TypeName" label used in
// messages, trimming the import path to its base.
func moduleTypeName(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	path := obj.Pkg().Path()
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return path + "." + obj.Name()
}
