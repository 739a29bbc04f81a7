package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// DetFlow returns the detflow analyzer.
//
// Invariant: values derived from nondeterminism sources must not reach
// schedule outputs through ANY call chain. The sources:
//
//   - the wall clock (time.Now / Since / Until),
//   - the global math/rand generator (package-level rand.Intn and friends;
//     a *rand.Rand threaded from an explicit seed — the Config.Seed
//     discipline — is fine, because its methods only taint when the
//     generator itself was built from a tainted seed),
//   - pointer identity (%p formatting, pointer→uintptr conversions,
//     reflect's Pointer/UnsafeAddr),
//   - map iteration order (an append accumulated across a map range that no
//     sort in the same function re-orders).
//
// The sinks are the repro's observable schedule outputs: the allocation
// table and its assignments (scheduler.AllocationTable / Assignment /
// Choice), the RANKING golden cells (experiments.RankingCell), and every
// RPC reply struct (*Reply). Where maporder polices one function at a time,
// detflow follows values across calls: a helper that returns an unsorted
// map-keyed slice is flagged at the point where a caller finally stores it
// into a schedule output, however many hops away.
//
// The engine is a whole-load taint propagation over the call graph:
// per-function value-flow summaries (which params reach the results, which
// params reach a sink store) are iterated to a fixpoint, with conservative
// joins — result tainted if any argument is — for calls that leave the
// load (standard library) or cannot be resolved (func values).
//
// A //vdce:ignore detflow span is a certification, not just a silencer:
// values stored or returned inside it shed their source taint in the
// summaries, so one reviewed waiver at a producer (an injective keyed-write
// loop, say) clears every consumer downstream instead of demanding a waiver
// at each sink the value eventually reaches.
func DetFlow() *Analyzer {
	a := &Analyzer{
		Name: "detflow",
		Doc:  "wall clock, global rand, pointer identity, and map order must not reach schedule outputs",
	}
	a.RunProgram = func(pass *ProgramPass) {
		d := &detflow{pass: pass, sums: map[*types.Func]*flowSummary{}}
		d.collectWaivers()
		pass.Prog.fixpoint(d.analyze)
		for _, fi := range pass.Prog.Funcs() {
			d.report(fi)
		}
	}
	return a
}

// taint is a label set: two source bits plus one bit per parameter
// (receiver = param 0 for methods).
type taint uint64

const (
	taintNondet taint = 1 << 0 // wall clock / global rand / pointer identity
	taintMapOrd taint = 1 << 1 // map iteration order
	paramBit0         = 2
	maxParams         = 61
)

func paramBit(i int) taint {
	if i >= maxParams {
		i = maxParams - 1 // merge overflow params into the last bit (conservative)
	}
	return 1 << (paramBit0 + i)
}

func (t taint) sources() taint { return t & (taintNondet | taintMapOrd) }
func (t taint) params() taint  { return t &^ (taintNondet | taintMapOrd) }
func (t taint) hasParam(i int) bool {
	return t&paramBit(i) != 0
}

func sourceLabel(t taint) string {
	var parts []string
	if t&taintNondet != 0 {
		parts = append(parts, "wall clock, global rand, or pointer identity")
	}
	if t&taintMapOrd != 0 {
		parts = append(parts, "map iteration order")
	}
	return strings.Join(parts, "; ")
}

// flowSummary is one function's value-flow contract: which labels reach its
// results, and which parameters reach a schedule-output store inside it
// (directly or through further calls).
type flowSummary struct {
	result taint
	sink   taint // param bits only
}

type detflow struct {
	pass *ProgramPass
	sums map[*types.Func]*flowSummary

	// waive holds the //vdce:ignore spans that name detflow, per file as
	// (firstLine, lastLine) intervals. A waiver is a certification, not
	// just a silencer: values stored or returned inside a waived span shed
	// their source taint, so a reviewed waiver at the producer (say, an
	// injective keyed-write loop over a map) clears the whole downstream
	// cone instead of forcing one waiver per consumer.
	waive map[string][][2]int
}

// collectWaivers indexes the detflow suppression spans across the load.
func (d *detflow) collectWaivers() {
	d.waive = ignoreSpans(d.pass.Prog, "detflow")
}

// waived reports whether pos falls inside a //vdce:ignore detflow span.
func (st *funcState) waived(pos token.Pos) bool {
	return coveredBySpans(st.d.waive, st.d.pass.Prog.fset(), pos)
}

// sinkTypeNames are the schedule-output types by bare name (the fixture
// packages mirror them); any struct named *Reply — an RPC reply — is a sink
// as well.
var sinkTypeNames = map[string]bool{
	"AllocationTable": true,
	"Assignment":      true,
	"Choice":          true,
	"RankingCell":     true,
}

func isSinkType(t types.Type) bool {
	for {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	name := named.Obj().Name()
	if sinkTypeNames[name] {
		return true
	}
	if _, isStruct := named.Underlying().(*types.Struct); isStruct && strings.HasSuffix(name, "Reply") {
		return true
	}
	return false
}

// funcState is one intra-function propagation: a flow-insensitive taint
// environment iterated to a local fixpoint.
type funcState struct {
	d       *detflow
	fi      *FuncInfo
	env     map[types.Object]taint
	sorted  map[types.Object]bool // objects some sort call re-orders: immune to map-order taint
	summary flowSummary
	changed bool
	emit    func(pos token.Pos, format string, args ...any)
}

func (d *detflow) summaryOf(f *types.Func) *flowSummary {
	if f == nil {
		return nil
	}
	return d.sums[f.Origin()]
}

// analyze recomputes fi's summary; reports whether it grew.
func (d *detflow) analyze(fi *FuncInfo) bool {
	st := d.newState(fi)
	st.converge()
	prev := d.sums[fi.Obj]
	if prev == nil {
		d.sums[fi.Obj] = &flowSummary{result: st.summary.result, sink: st.summary.sink}
		return st.summary.result != 0 || st.summary.sink != 0
	}
	grew := st.summary.result&^prev.result != 0 || st.summary.sink&^prev.sink != 0
	prev.result |= st.summary.result
	prev.sink |= st.summary.sink
	return grew
}

// report re-runs fi against the converged summaries, emitting findings.
func (d *detflow) report(fi *FuncInfo) {
	st := d.newState(fi)
	st.converge()
	seen := map[string]bool{}
	st.emit = func(pos token.Pos, format string, args ...any) {
		key := d.pass.Prog.fset().Position(pos).String() + "|" + format
		if seen[key] {
			return
		}
		seen[key] = true
		d.pass.Reportf(pos, format, args...)
	}
	st.walk()
}

func (d *detflow) newState(fi *FuncInfo) *funcState {
	st := &funcState{
		d:      d,
		fi:     fi,
		env:    map[types.Object]taint{},
		sorted: map[types.Object]bool{},
	}
	for i, obj := range paramObjects(fi) {
		if obj != nil {
			st.env[obj] = paramBit(i)
		}
	}
	st.findSorted()
	return st
}

// paramObjects lists the function's parameter objects, receiver first.
func paramObjects(fi *FuncInfo) []types.Object {
	var out []types.Object
	info := fi.Pkg.Info
	if fi.Decl.Recv != nil {
		for _, f := range fi.Decl.Recv.List {
			if len(f.Names) == 0 {
				out = append(out, nil)
			}
			for _, n := range f.Names {
				out = append(out, info.Defs[n])
			}
		}
	}
	if fi.Decl.Type.Params != nil {
		for _, f := range fi.Decl.Type.Params.List {
			if len(f.Names) == 0 {
				out = append(out, nil)
			}
			for _, n := range f.Names {
				out = append(out, info.Defs[n])
			}
		}
	}
	return out
}

// findSorted records the objects a sort.*/slices.* call in the body
// re-orders: a slice the function sorts cannot carry map-iteration order
// out, wherever in the body the sort sits.
func (st *funcState) findSorted() {
	info := st.fi.Pkg.Info
	for _, arg := range sortedArgs(info, st.fi.Decl.Body) {
		if id := rootIdent(arg); id != nil {
			if obj := identObj(info, id); obj != nil {
				st.sorted[obj] = true
			}
		}
	}
}

// converge iterates the body walk until the environment and summary stop
// growing. Both only ever gain label bits, so the loop ends without a cap.
func (st *funcState) converge() {
	for st.changed = true; st.changed; {
		st.changed = false
		st.walk()
	}
}

func (st *funcState) walk() {
	// Root the walk at the declaration, not the body, so the FuncDecl is on
	// the stack and enclosingFuncBody distinguishes the function's own
	// returns from a nested literal's.
	inspectWithStack(st.fi.Decl, func(n ast.Node, stack []ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			st.assign(s)
		case *ast.RangeStmt:
			st.rangeStmt(s)
		case *ast.ReturnStmt:
			// Only returns of THIS function: a nested literal's returns
			// describe the closure, not the declaration.
			if enclosingFuncBody(stack) == st.fi.Decl.Body {
				st.returnStmt(s)
			}
		case *ast.CallExpr:
			st.call(s)
		}
		return true
	})
}

func (st *funcState) mark(obj types.Object, t taint) {
	if obj == nil || t == 0 {
		return
	}
	if st.sorted[obj] {
		t &^= taintMapOrd
	}
	if st.env[obj]&t != t {
		st.env[obj] |= t
		st.changed = true
	}
}

func (st *funcState) assign(s *ast.AssignStmt) {
	var rhs []taint
	switch {
	case len(s.Lhs) == len(s.Rhs):
		for _, r := range s.Rhs {
			rhs = append(rhs, st.taintOf(r))
		}
	case len(s.Rhs) == 1:
		t := st.taintOf(s.Rhs[0])
		for range s.Lhs {
			rhs = append(rhs, t)
		}
	default:
		return
	}
	for i, lhs := range s.Lhs {
		st.store(lhs, rhs[i], s.Rhs[min(i, len(s.Rhs)-1)].Pos())
	}
}

// store propagates taint into an assignment destination, detecting
// schedule-output stores along the access path.
func (st *funcState) store(lhs ast.Expr, t taint, pos token.Pos) {
	if isBlank(lhs) {
		return
	}
	if st.waived(pos) {
		// Certified span: the stored value is declared order-independent,
		// so only the parameter labels (plain data flow) survive.
		t = t.params()
	}
	if id, ok := lhs.(*ast.Ident); ok {
		st.mark(identObj(st.fi.Pkg.Info, id), t)
		return
	}
	// Walk the access path: a store through a sink-typed prefix is a
	// schedule-output store. A map store keyed by the destination's own key
	// writes each slot exactly once, so map-order taint does not survive it.
	sink := false
	for e := lhs; ; {
		tt := st.fi.Pkg.Info.TypeOf(e)
		if tt != nil && isSinkType(tt) {
			sink = true
		}
		switch v := e.(type) {
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			if xt := st.fi.Pkg.Info.TypeOf(v.X); xt != nil {
				if _, isMap := xt.Underlying().(*types.Map); isMap {
					t &^= taintMapOrd
				}
			}
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			if id, ok := e.(*ast.Ident); ok {
				st.mark(identObj(st.fi.Pkg.Info, id), t)
			}
			goto done
		}
	}
done:
	if sink {
		st.sinkEvent(t, pos)
	}
}

// sinkEvent handles taint meeting a schedule output: sources are findings,
// parameter labels become summary obligations for the callers.
func (st *funcState) sinkEvent(t taint, pos token.Pos) {
	if st.waived(pos) {
		// A certified sink store imposes no obligation on callers either.
		return
	}
	if src := t.sources(); src != 0 && st.emit != nil {
		st.emit(pos, "value derived from %s reaches a schedule output; thread a seeded source or sort first (//vdce:ignore detflow <reason> to waive)", sourceLabel(src))
	}
	if p := t.params(); p != 0 && st.summary.sink&p != p {
		st.summary.sink |= p
		st.changed = true
	}
}

func (st *funcState) rangeStmt(s *ast.RangeStmt) {
	coll := st.taintOf(s.X)
	t := st.fi.Pkg.Info.TypeOf(s.X)
	overMap := false
	if t != nil {
		_, overMap = t.Underlying().(*types.Map)
	}
	keyT, valT := coll, coll
	if overMap {
		keyT |= taintMapOrd
		valT |= taintMapOrd
	}
	if s.Key != nil {
		if id, ok := s.Key.(*ast.Ident); ok {
			st.mark(identObj(st.fi.Pkg.Info, id), keyT)
		}
	}
	if s.Value != nil {
		if id, ok := s.Value.(*ast.Ident); ok {
			st.mark(identObj(st.fi.Pkg.Info, id), valT)
		}
	}
}

func (st *funcState) returnStmt(s *ast.ReturnStmt) {
	waived := st.waived(s.Pos())
	note := func(t taint) {
		if waived {
			t = t.params()
		}
		st.noteResult(t)
	}
	if len(s.Results) == 0 {
		// Bare return: named results carry whatever was assigned to them.
		if res := st.fi.Decl.Type.Results; res != nil {
			for _, f := range res.List {
				for _, n := range f.Names {
					if obj := st.fi.Pkg.Info.Defs[n]; obj != nil {
						note(st.env[obj])
					}
				}
			}
		}
		return
	}
	for _, r := range s.Results {
		note(st.taintOf(r))
	}
}

func (st *funcState) noteResult(t taint) {
	if st.summary.result&t != t {
		st.summary.result |= t
		st.changed = true
	}
}

// call computes a call's result taint, applying callee summaries and
// checking sink obligations; the return value is the taint of the call's
// results.
func (st *funcState) call(call *ast.CallExpr) taint {
	info := st.fi.Pkg.Info
	fun := ast.Unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		// Conversion. A pointer flattened to uintptr is identity escaping.
		t := st.taintOf(call.Args[0])
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Kind() == types.Uintptr {
			at := info.TypeOf(call.Args[0])
			if at != nil {
				switch at.Underlying().(type) {
				case *types.Pointer:
					t |= taintNondet
				case *types.Basic:
					if at.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
						t |= taintNondet
					}
				}
			}
		}
		return t
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				var t taint
				for _, a := range call.Args {
					t |= st.taintOf(a)
				}
				return t
			case "len", "cap", "delete", "make", "new", "clear", "copy", "panic", "print", "println":
				return 0
			default:
				var t taint
				for _, a := range call.Args {
					t |= st.taintOf(a)
				}
				return t
			}
		}
	}

	site := st.d.pass.Prog.ResolveCall(st.fi.Pkg, call)
	args := st.callArgs(call)

	// Conservative default: the result joins every input.
	join := func() taint {
		var t taint
		for _, a := range args {
			t |= st.taintOf(a)
		}
		return t
	}
	if site == nil || site.Unresolved {
		return join()
	}

	var result taint
	resolvedAll := len(site.Callees) > 0
	for _, callee := range site.Callees {
		if src := nondetSource(callee, call, st.fi.Pkg); src != 0 {
			result |= src
			continue
		}
		if mapOrderKiller(callee) {
			// sort.* re-orders in place: handled by the sorted pre-scan.
			continue
		}
		sum := st.d.summaryOf(callee)
		if sum == nil {
			resolvedAll = false
			continue
		}
		// Map the callee's parameter labels onto this site's arguments.
		result |= sum.result.sources()
		for i, a := range args {
			at := st.taintOf(a)
			if sum.result.hasParam(i) {
				result |= at
			}
			if sum.sink.hasParam(i) {
				st.sinkEvent(at, a.Pos())
			}
		}
	}
	if !resolvedAll {
		result |= join()
	}
	return result
}

// callArgs lists a call's value inputs: the receiver (for method calls)
// followed by the arguments — index-aligned with paramObjects.
func (st *funcState) callArgs(call *ast.CallExpr) []ast.Expr {
	var out []ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s := st.fi.Pkg.Info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			out = append(out, sel.X)
		}
	}
	return append(out, call.Args...)
}

// nondetSource classifies callee as a nondeterminism source at this site.
func nondetSource(callee *types.Func, call *ast.CallExpr, pkg *Package) taint {
	if callee == nil || callee.Pkg() == nil {
		return 0
	}
	path, name := callee.Pkg().Path(), callee.Name()
	sig, _ := callee.Type().(*types.Signature)
	pkgLevel := sig != nil && sig.Recv() == nil
	switch path {
	case "time":
		if pkgLevel && (name == "Now" || name == "Since" || name == "Until") {
			return taintNondet
		}
	case "math/rand", "math/rand/v2":
		if pkgLevel && name != "New" && name != "NewSource" && name != "NewZipf" && name != "NewPCG" && name != "NewChaCha8" && name != "Seed" {
			return taintNondet
		}
	case "reflect":
		if !pkgLevel && (name == "Pointer" || name == "UnsafeAddr" || name == "UnsafePointer") {
			return taintNondet
		}
	case "fmt":
		if pkgLevel && pointerFormat(call, pkg) {
			return taintNondet
		}
	}
	return 0
}

// pointerFormat reports whether a fmt call's constant format string prints
// pointer identity (%p).
func pointerFormat(call *ast.CallExpr, pkg *Package) bool {
	for _, a := range call.Args {
		tv, ok := pkg.Info.Types[a]
		if !ok || tv.Value == nil {
			continue
		}
		if s, err := strconv.Unquote(tv.Value.ExactString()); err == nil && strings.Contains(s, "%p") {
			return true
		}
	}
	return false
}

// mapOrderKiller reports whether callee re-orders its argument (sorting):
// map-iteration taint does not survive it.
func mapOrderKiller(callee *types.Func) bool {
	if callee == nil || callee.Pkg() == nil {
		return false
	}
	switch callee.Pkg().Path() {
	case "sort", "slices":
		return true
	}
	return false
}

// taintOf evaluates an expression's taint.
func (st *funcState) taintOf(e ast.Expr) taint {
	switch v := e.(type) {
	case *ast.Ident:
		if obj := identObj(st.fi.Pkg.Info, v); obj != nil {
			return st.env[obj]
		}
		return 0
	case nil:
		return 0
	case *ast.BasicLit, *ast.FuncLit:
		return 0
	case *ast.CallExpr:
		return st.call(v)
	case *ast.SelectorExpr:
		// Field read or method value: coarse — the root object's taint.
		return st.taintOf(v.X)
	case *ast.IndexExpr:
		return st.taintOf(v.X) | st.taintOf(v.Index)
	case *ast.IndexListExpr:
		return st.taintOf(v.X)
	case *ast.SliceExpr:
		t := st.taintOf(v.X)
		for _, ix := range []ast.Expr{v.Low, v.High, v.Max} {
			if ix != nil {
				t |= st.taintOf(ix)
			}
		}
		return t
	case *ast.StarExpr:
		return st.taintOf(v.X)
	case *ast.ParenExpr:
		return st.taintOf(v.X)
	case *ast.UnaryExpr:
		return st.taintOf(v.X)
	case *ast.BinaryExpr:
		return st.taintOf(v.X) | st.taintOf(v.Y)
	case *ast.CompositeLit:
		var t taint
		for _, elt := range v.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				t |= st.taintOf(kv.Value)
				continue
			}
			t |= st.taintOf(elt)
		}
		return t
	case *ast.TypeAssertExpr:
		return st.taintOf(v.X)
	}
	return 0
}
