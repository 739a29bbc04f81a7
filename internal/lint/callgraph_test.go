package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// findFunc returns the FuncInfo whose qualified name ends with suffix,
// failing the test on zero or several matches.
func findFunc(t *testing.T, prog *Program, suffix string) *FuncInfo {
	t.Helper()
	var got *FuncInfo
	for _, fi := range prog.Funcs() {
		if strings.HasSuffix(FuncKey(fi.Obj), suffix) {
			if got != nil {
				t.Fatalf("several functions match %q: %s and %s", suffix, FuncKey(got.Obj), FuncKey(fi.Obj))
			}
			got = fi
		}
	}
	if got == nil {
		t.Fatalf("no function matches %q", suffix)
	}
	return got
}

// siteSummary renders one call site compactly for golden comparison.
func siteSummary(s *CallSite) string {
	switch {
	case s.Unresolved:
		return "unresolved"
	case s.Interface:
		return "iface{" + strings.Join(s.CalleeKeys(), ", ") + "}"
	default:
		return strings.Join(s.CalleeKeys(), ", ")
	}
}

// TestCallGraphShapes pins ResolveCall's behaviour on every call shape the
// fixture exercises: static, concrete-method, CHA interface dispatch,
// dynamic values, and the non-sites (conversions, builtins, IIFE heads).
func TestCallGraphShapes(t *testing.T) {
	pkg := loadFixture(t, filepath.Join("testdata", "src", "callgraph"))
	prog := BuildProgram([]*Package{pkg})

	drive := findFunc(t, prog, "callgraph.drive")
	var got []string
	for _, s := range drive.Calls {
		got = append(got, siteSummary(s))
	}
	want := []string{
		"fixture/callgraph.helper",
		"iface{(*fixture/callgraph.Slow).Run, (fixture/callgraph.Fast).Run}",
		"unresolved",
		"unresolved",
		"fixture/callgraph.narrow",
		"(fixture/callgraph.Fast).Run",
		"fixture/callgraph.helper", // inside the IIFE, attributed to drive
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("drive call sites:\n got %q\nwant %q", got, want)
	}

	// An interface nobody implements resolves to an EMPTY callee set — a
	// resolution, not an Unresolved: analyzers may trust the emptiness.
	none := findFunc(t, prog, "callgraph.none")
	if len(none.Calls) != 1 {
		t.Fatalf("none: want 1 call site, got %d", len(none.Calls))
	}
	s := none.Calls[0]
	if !s.Interface || s.Unresolved || len(s.Callees) != 0 {
		t.Errorf("none call site: want empty interface resolution, got %s (iface=%v unresolved=%v)",
			siteSummary(s), s.Interface, s.Unresolved)
	}

	// narrow's body holds only a conversion: no call sites at all.
	if narrow := findFunc(t, prog, "callgraph.narrow"); len(narrow.Calls) != 0 {
		t.Errorf("narrow: conversion produced call sites: %v", narrow.Calls)
	}
}

// interfaceSite returns fn's unique interface-dispatched call site on the
// named method.
func interfaceSite(t *testing.T, fi *FuncInfo, method string) *CallSite {
	t.Helper()
	var got *CallSite
	for _, s := range fi.Calls {
		if !s.Interface {
			continue
		}
		sel, ok := ast.Unparen(s.Call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != method {
			continue
		}
		if got != nil {
			t.Fatalf("%s: several interface calls on %s", FuncKey(fi.Obj), method)
		}
		got = s
	}
	if got == nil {
		t.Fatalf("%s: no interface call on %s", FuncKey(fi.Obj), method)
	}
	return got
}

// TestCallGraphGolden resolves the repo's own interface-heavy dispatch
// points — the Policy registry and the HostSelector multicast shared by the
// site walk and the cost-matrix gather — against the production packages and
// pins the callee sets.
// A new Policy or selector implementation must show up here.
func TestCallGraphGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks production packages")
	}
	pkgs, err := NewLoader("../..").Load("./internal/scheduler", "./internal/site")
	if err != nil {
		t.Fatalf("load production packages: %v", err)
	}
	prog := BuildProgram(pkgs)

	cases := []struct {
		fn, method string
		want       []string
	}{
		// The name→Policy registry dispatch: every scheduling heuristic in
		// the module.
		{"Batch).Schedule", "Schedule", []string{
			"(repro/internal/scheduler.baselinePolicy).Schedule",
			"(repro/internal/scheduler.cpopPolicy).Schedule",
			"(repro/internal/scheduler.heftPolicy).Schedule",
			"(repro/internal/scheduler.sitePolicy).Schedule",
		}},
		// The one multicast behind the Site Scheduler and the HEFT/CPOP cost
		// gather: the call reaches RPC stubs only at run time (in-process
		// selectors are taken by concrete type first), but both
		// implementations resolve.
		{"scheduler.multicast", "SelectHosts", []string{
			"(*repro/internal/scheduler.LocalSelector).SelectHosts",
			"(*repro/internal/site.RemoteSelector).SelectHosts",
		}},
	}
	for _, c := range cases {
		site := interfaceSite(t, findFunc(t, prog, c.fn), c.method)
		if got := site.CalleeKeys(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s calling %s:\n got %q\nwant %q", c.fn, c.method, got, c.want)
		}
	}
}

// TestDetFlowSummaries pins the value-flow summaries the detflow fixpoint
// computes over the detflow fixture: source taint crossing function
// boundaries, parameter labels reaching results and sinks, and the
// //vdce:ignore certification stripping source taint from a producer.
func TestDetFlowSummaries(t *testing.T) {
	pkg := loadFixture(t, filepath.Join("testdata", "src", "detflow"))
	prog := BuildProgram([]*Package{pkg})
	pass := &ProgramPass{Analyzer: DetFlow(), Prog: prog, findings: &[]Finding{}}
	d := &detflow{pass: pass, sums: map[*types.Func]*flowSummary{}}
	d.collectWaivers()
	for round := 0; round < 32; round++ {
		changed := false
		for _, fi := range prog.Funcs() {
			if d.analyze(fi) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	sumOf := func(suffix string) *flowSummary {
		t.Helper()
		s := d.sums[findFunc(t, prog, suffix).Obj]
		if s == nil {
			t.Fatalf("no summary for %q", suffix)
		}
		return s
	}

	// A helper that launders the wall clock exports the source taint in its
	// result contract.
	if s := sumOf("detflow.nowSeconds"); s.result.sources()&taintNondet == 0 {
		t.Errorf("nowSeconds: result sources = %b, want nondet bit", s.result.sources())
	}

	// The certified producer sheds its map-order taint but keeps the plain
	// parameter flow (param 0 = the map) to its result.
	if s := sumOf("detflow.keyedFlatten"); s.result.sources() != 0 || !s.result.hasParam(0) {
		t.Errorf("keyedFlatten: result = %b, want no sources and param 0", s.result)
	}

	// A function storing params into a schedule output records the sink
	// obligation for its callers: param 0 is the ranged map, param 1 the
	// table receiver-argument.
	if s := sumOf("detflow.badMapOrder"); !s.sink.hasParam(0) || !s.sink.hasParam(1) {
		t.Errorf("badMapOrder: sink = %b, want params 0 and 1", s.sink)
	}

	// Seed-threaded rand is clean of sources, but the seed parameter still
	// reaches the output: the determinism obligation moves to the callers.
	if s := sumOf("detflow.goodSeeded"); s.result.sources() != 0 || !s.sink.hasParam(0) {
		t.Errorf("goodSeeded: result=%b sink=%b, want no sources and sink param 0", s.result, s.sink)
	}
}
