package scheduler

// The //vdce:hot allocs=N contract, whole: an annotation declares a
// function's allocation budget per warm call, and this test is its only
// reader. It parses the budgets from this package's sources — editing an
// annotation and editing the assertion are the same change — measures each
// annotated function with testing.AllocsPerRun, and fails on an annotation
// without a budget or a measuring case and on a case without an annotation.
// Nothing checks allocation statically; the benchmark's alloc_mb_per_op and
// proc.mallocs_per_op watch the same thing end to end.

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// hotAllocBudgets parses every non-test source file in this package and
// returns the //vdce:hot allocs=N budgets keyed by "Func" or "Recv.Func".
// A directive that carries anything but one allocs=N, or that sits outside
// a function's doc comment (where it annotates nothing), is an error.
func hotAllocBudgets(t *testing.T) map[string]int {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	isHot := func(c *ast.Comment) (rest string, ok bool) {
		rest, ok = strings.CutPrefix(c.Text, "//vdce:hot")
		return rest, ok && (rest == "" || rest[0] == ' ')
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
		attached := map[*ast.Comment]bool{}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
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
			for _, c := range fn.Doc.List {
				rest, ok := isHot(c)
				if !ok {
					continue
				}
				attached[c] = true
				val, ok := strings.CutPrefix(strings.TrimSpace(rest), "allocs=")
				n, err := strconv.Atoi(val)
				if !ok || err != nil || n < 0 {
					t.Errorf("%s: %q on %s: want //vdce:hot allocs=N with N a non-negative integer", name, c.Text, key)
					continue
				}
				budgets[key] = n
			}
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if _, ok := isHot(c); ok && !attached[c] {
					t.Errorf("%s: //vdce:hot must sit in the doc comment of a function declaration", fset.Position(c.Pos()))
				}
			}
		}
	}
	return budgets
}

// warmAllocs is the allocation count of one warm call of f: the minimum
// over single measured runs. A refill of the pooled scratch (after a GC, or
// when the race detector makes sync.Pool drop a Put) belongs to no one
// call, while a per-task allocation shows in every one.
func warmAllocs(f func()) float64 {
	best := math.Inf(1)
	for i := 0; i < 10; i++ {
		best = math.Min(best, testing.AllocsPerRun(1, f))
	}
	return best
}

// TestHotAllocBudgets holds every annotated function to its declared
// budget. The kernels (rank sweep, timeline gap probe, ledger reads) mirror
// the micro-benchmarks (BenchmarkRankU, BenchmarkTimelineInsertion,
// BenchmarkLedgerWalk). The whole passes run the 1000-task scale graph
// on the equivEnv pool with the cost matrix gathered and the scratch pool
// warm: such a pass allocates a few dozen times whatever the graph size
// (heft 10/12/16, cpop 30/32/36 at 500/1000/2000 tasks; one site's Fig 5
// walk 12, the pricing snapshot and kind rows plus its two outputs), so a budget of
// the 1000-task reading plus half again does not flake and an allocation
// per task (+1000) cannot hide under it.
func TestHotAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("AllocsPerRun workloads are not -short sized")
	}
	budgets := hotAllocBudgets(t)

	req := rankBenchRequest(t)
	req.Config.Costs = NewCostCache()
	if err := req.PrewarmCosts(); err != nil {
		t.Fatal(err)
	}
	ix, err := req.Graph.Index()
	if err != nil {
		t.Fatal(err)
	}
	keys := ix.Levels()
	order := rankOrderDesc(keys, nil, nil)
	schedule := func(policy string) func(t *testing.T) float64 {
		return func(t *testing.T) float64 {
			p, err := Lookup(policy)
			if err != nil {
				t.Fatal(err)
			}
			return warmAllocs(func() {
				if _, err := p.Schedule(context.Background(), req); err != nil {
					t.Fatal(err)
				}
			})
		}
	}

	cases := []struct {
		name    string
		fns     []string // the annotated functions the workload exercises
		measure func(t *testing.T) float64
	}{
		{"upwardRanks", []string{"upwardRanks"}, func(t *testing.T) float64 {
			cm, err := req.costMatrix(ix)
			if err != nil {
				t.Fatal(err)
			}
			c := commModel{latency: 5e-3, perByte: 1e-7}
			buf := make([]float64, ix.Len()) // warm scratch, as a pooled holder provides
			return testing.AllocsPerRun(10, func() {
				if r := upwardRanks(cm, c, nil, buf); len(r) != ix.Len() {
					t.Fatal("short rank vector")
				}
			})
		}},
		{"timeline.earliest", []string{"timeline.earliest"}, func(t *testing.T) float64 {
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
			return got
		}},
		{"LoadLedger walk", []string{"LoadLedger.Busy"}, func(t *testing.T) float64 {
			// The kernel's ledger traffic per task: 32 candidate reads and
			// one commit's Reserve, on hosts the ledger already holds (a
			// host's first Reserve may grow its stripe's map).
			hosts := make([]string, 128)
			l := NewLoadLedger()
			for i := range hosts {
				hosts[i] = "host" + strconv.Itoa(i)
				l.Reserve(hosts[i], float64(i+1))
			}
			task := 0
			return testing.AllocsPerRun(100, func() {
				var sink float64
				for _, h := range hosts[:32] {
					sink += l.Busy(h)
				}
				l.Reserve(hosts[task%len(hosts)], 0.25)
				task++
				if sink < 0 {
					t.Fatal("impossible")
				}
			})
		}},
		{"gatherCostMatrix", []string{"gatherCostMatrix"}, func(t *testing.T) float64 {
			return warmAllocs(func() {
				if _, err := gatherCostMatrix(ix, req); err != nil {
					t.Fatal(err)
				}
			})
		}},
		{"heftPolicy.Schedule", []string{"heftPolicy.Schedule"}, schedule("heft")},
		{"cpopPolicy.Schedule", []string{"cpopPolicy.Schedule"}, schedule("cpop")},
		{"selectHostsDense", []string{"LocalSelector.selectHostsDense"}, func(t *testing.T) float64 {
			sel := req.Local.(*LocalSelector)
			return warmAllocs(func() {
				if _, err := sel.selectHostsDense(ix, order, false, nil); err != nil {
					t.Fatal(err)
				}
			})
		}},
		{"Simulate", []string{"Simulate"}, func(t *testing.T) float64 {
			table, err := runPolicy("heft", req, req.Graph)
			if err != nil {
				t.Fatal(err)
			}
			return warmAllocs(func() {
				if _, err := Simulate(req.Graph, table, unitModel, req.Net); err != nil {
					t.Fatal(err)
				}
			})
		}},
	}

	measured := map[string]bool{}
	for _, tc := range cases {
		for _, fn := range tc.fns {
			measured[fn] = true
		}
		t.Run(tc.name, func(t *testing.T) {
			got := tc.measure(t)
			t.Logf("%.0f allocs per warm run", got)
			for _, fn := range tc.fns {
				want, ok := budgets[fn]
				if !ok {
					t.Errorf("%s is measured here but carries no //vdce:hot allocs=N annotation", fn)
				} else if got > float64(want) {
					t.Errorf("%s: %.0f allocs per warm run, budget %d", fn, got, want)
				}
			}
		})
	}
	for fn := range budgets {
		if !measured[fn] {
			t.Errorf("%s is annotated //vdce:hot but no case here measures it", fn)
		}
	}
}
