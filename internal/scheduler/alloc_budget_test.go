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
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/afg"
	"repro/internal/dagen"
	"repro/internal/netsim"
	"repro/internal/repository"
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

// siteWalkRequest is the site walk's budget fixture: the 1000-task scale
// graph multicast to n in-process sites of four hosts each on a star
// network, asked two at a time, so an allocation per site shows n times.
// Each site knows the graph's task kind: an unknown one costs an error per
// walk, whose fmt buffer pool the race detector thins at random.
func siteWalkRequest(t testing.TB, n int) *Request {
	var names []string
	var sites []HostSelector
	for s := 0; s < n; s++ {
		name := fmt.Sprintf("s%d", s)
		hosts := map[string][2]float64{}
		for h := 0; h < 4; h++ {
			hosts[fmt.Sprintf("%s-%d", name, h)] = [2]float64{1 + float64((s+h)%4), 0.25 * float64(h)}
		}
		repo := makeRepo(t, name, hosts)
		if err := repo.Tasks.Put(repository.TaskRecord{Function: "synthetic.noop", BaseTime: 1}); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		sites = append(sites, &LocalSelector{Site: name, Repo: repo})
	}
	req := NewRequest(dagen.Scale(1000, 25, 12, 42), sites[0], sites[1:], netsim.StarTopology(names, 5*time.Millisecond, 1e7, 1))
	req.Config.Concurrency = 2
	return req
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
// (heft 7, cpop 11 at 500, 1000 and 2000 tasks alike, the table's four among
// them; one site's Fig 5 walk 10, its pricing snapshot and kind rows, its
// offers going into the caller's slot), and an allocation per task (+1000)
// cannot hide under it. The site walk policies run on eight in-process
// sites, so an allocation per site (+8) cannot hide either. A churn repair
// (an eft one on the churn_golden fixture) allocates its table, its
// committed host sets and its Replan, nothing else; a whole RunChurn's
// repairs write into the table the run retired, so it allocates two tables
// however many repairs it adopts. The policy and repair budgets are their
// warm readings, plain and under -race alike.
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
	scheduleOn := func(req *Request, policy string) float64 {
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
	schedule := func(policy string) func(t *testing.T) float64 {
		return func(t *testing.T) float64 { return scheduleOn(req, policy) }
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
		{"site walk, 8 sites", []string{"sitePolicy.Schedule"}, func(t *testing.T) float64 {
			walk := siteWalkRequest(t, 8)
			return max(scheduleOn(walk, "faithful"), scheduleOn(walk, "eft"))
		}},
		{"selectHostsDense", []string{"LocalSelector.selectHostsDense"}, func(t *testing.T) float64 {
			sel := req.Local.(*LocalSelector)
			var r siteResult
			return warmAllocs(func() {
				if err := sel.selectHostsDense(ix, order, false, nil, &r); err != nil {
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
		{"frontierStrategy.Replan", []string{"frontierStrategy.Replan"}, func(t *testing.T) float64 {
			// An eft repair on the churn_golden fixture, at the trace's first
			// host failure: what finished by then is done, what runs on
			// another host is running, the rest is the frontier.
			env, truth, refs, names := churnGoldenEnv(t)
			c := churnGoldenGrid(t, env, truth, names)[1]
			ev := c.trace.Events[0]
			audit, err := ValidateSchedule(c.g, c.table, truth, env.Net)
			if err != nil || c.replanner != "eft" || !ev.Down {
				t.Fatalf("fixture: %v, %s, %+v", err, c.replanner, ev)
			}
			req := &ReplanRequest{Graph: c.g, Table: c.table, Done: map[afg.TaskID]float64{},
				Running: map[afg.TaskID]float64{}, Down: map[string]bool{ev.Host: true},
				Event: Deviation{Kind: DeviationHostDown, Host: ev.Host, At: ev.At}, Costs: truth, Hosts: refs, Net: env.Net}
			for _, s := range audit.Spans {
				if s.End <= ev.At {
					req.Done[s.Task] = s.End
				} else if s.Start <= ev.At && !slices.Contains(s.Hosts, ev.Host) {
					req.Running[s.Task] = s.End
				}
			}
			rp, _ := LookupReplanner("eft")
			return warmAllocs(func() {
				if pl, err := rp.Replan(req); err != nil || pl.Moved == 0 {
					t.Fatalf("repair: %v, moved %v", err, pl)
				}
			})
		}},
		{"RunChurn", []string{"RunChurn"}, func(t *testing.T) float64 {
			// One churn_golden cell, dup over the parallel shape: 14 repairs,
			// so a table or a price row allocated per repair adds 14 or more.
			// A run draws ~30 scratches from the pool (executor, repairs,
			// certifications), and -race drops one pooled Put in four, so
			// no run there is warm: the plain build holds this budget.
			if raceBuild {
				t.Skip("no warm RunChurn under -race: sync.Pool drops one Put in four")
			}
			env, truth, refs, names := churnGoldenEnv(t)
			c := churnGoldenGrid(t, env, truth, names)[6]
			if c.key != "dup/permanent/parallel/seed1" {
				t.Fatalf("fixture moved: %s", c.key)
			}
			return warmAllocs(func() {
				if out, err := RunChurn(c.g, c.table, truth, env.Net, refs, c.trace, ChurnConfig{Replanner: c.replanner}); err != nil || out.Replans != 14 {
					t.Fatalf("run: %v, %+v", err, out)
				}
			})
		}},
		{"validator.certify", []string{"validator.certify"}, func(t *testing.T) float64 {
			// RunChurn's certifier: one validator, warm after its first call.
			table, err := runPolicy("heft", req, req.Graph)
			if err != nil {
				t.Fatal(err)
			}
			var v validator
			return warmAllocs(func() {
				if _, err := v.certify(req.Graph, table, unitModel, nil, req.Net); err != nil {
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
