package scheduler

// Dynamic enforcement of the //vdce:hot allocs=N budgets. The static side
// (allocflow, internal/lint) proves no allocation *sites* sit on the hot
// cone; this test closes the loop at runtime with testing.AllocsPerRun, so
// a budget annotation is a checked contract, not a comment. Budgets are
// parsed from this package's sources — editing an annotation and editing
// the assertion are the same change.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// hotAllocBudgets parses every non-test source file in this package and
// returns the //vdce:hot allocs=N budgets keyed by "Func" or "Recv.Func".
// Only annotations with an explicit budget are returned; bare //vdce:hot
// marks a cone root without a per-call allocation contract.
func hotAllocBudgets(t *testing.T) map[string]int {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	budgets := map[string]int{}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			for _, c := range fn.Doc.List {
				fields := strings.Fields(strings.TrimPrefix(c.Text, "//vdce:hot"))
				if !strings.HasPrefix(c.Text, "//vdce:hot ") && c.Text != "//vdce:hot" {
					continue
				}
				for _, f := range fields {
					val, ok := strings.CutPrefix(f, "allocs=")
					if !ok {
						continue
					}
					n, err := strconv.Atoi(val)
					if err != nil {
						t.Fatalf("%s: bad budget %q on %s", name, val, fn.Name.Name)
					}
					key := fn.Name.Name
					if fn.Recv != nil && len(fn.Recv.List) == 1 {
						recv := fn.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						if id, ok := recv.(*ast.Ident); ok {
							key = id.Name + "." + key
						}
					}
					budgets[key] = n
				}
			}
		}
	}
	return budgets
}

// budget fails the test if fn carries no allocs=N annotation: a function
// measured here must declare its contract at the definition site.
func budget(t *testing.T, budgets map[string]int, fn string) float64 {
	t.Helper()
	n, ok := budgets[fn]
	if !ok {
		t.Fatalf("%s has no //vdce:hot allocs=N annotation; budgets found: %v", fn, budgets)
	}
	return float64(n)
}

// TestHotAllocBudgets measures the annotated hot-path entry points with
// testing.AllocsPerRun and holds each to its declared budget. The
// workloads mirror the micro-benchmarks (BenchmarkRankU,
// BenchmarkTimelineInsertion, BenchmarkLedgerViewWalk) so a regression
// shows up in both places with the same shape.
func TestHotAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("AllocsPerRun workloads are not -short sized")
	}
	budgets := hotAllocBudgets(t)

	t.Run("upwardRanks", func(t *testing.T) {
		cm := rankBenchSetup(t)
		c := commModel{latency: 5e-3, perByte: 1e-7}
		buf := make([]float64, cm.ix.Len()) // warm scratch, as a pooled holder provides
		got := testing.AllocsPerRun(10, func() {
			if r := upwardRanks(cm, c, nil, buf); len(r) != cm.ix.Len() {
				t.Fatal("short rank vector")
			}
		})
		if want := budget(t, budgets, "upwardRanks"); got > want {
			t.Errorf("upwardRanks: %.1f allocs/run, budget %v (a warm scratch buffer makes the sweep allocation-free)", got, want)
		}
	})

	t.Run("timeline.earliest", func(t *testing.T) {
		var tl timeline
		for k := 0; k < 256; k++ {
			tl.add(float64(2*k), float64(2*k)+1)
		}
		var sink float64
		got := testing.AllocsPerRun(100, func() {
			for ready := 0.0; ready < 512; ready += 7 {
				sink += tl.earliest(ready, 0.5)
			}
		})
		if sink < 0 {
			t.Fatal("impossible")
		}
		if want := budget(t, budgets, "timeline.earliest"); got > want {
			t.Errorf("timeline.earliest: %.1f allocs/run, budget %v (gap probe must stay on the stack)", got, want)
		}
	})

	t.Run("LedgerView warm walk", func(t *testing.T) {
		hosts := make([]string, 128)
		l := NewLoadLedger()
		for i := range hosts {
			hosts[i] = "host" + strconv.Itoa(i)
			l.Reserve(hosts[i], float64(i))
		}
		v := l.View()
		v.Refresh() // cold snapshot: pays the map copy once, outside the measured region
		task := 0
		got := testing.AllocsPerRun(100, func() {
			v.Refresh() // warm: version unchanged through the view's own writes
			var sink float64
			for _, h := range hosts[:32] {
				sink += v.Busy(h)
			}
			v.Reserve(hosts[task%len(hosts)], 0.25)
			task++
			if sink < 0 {
				t.Fatal("impossible")
			}
		})
		for _, fn := range []string{"LedgerView.Refresh", "LedgerView.Busy", "LedgerView.Reserve"} {
			if want := budget(t, budgets, fn); got > want {
				t.Errorf("warm view walk: %.1f allocs/run, budget %v on %s", got, want, fn)
			}
		}
	})
}
