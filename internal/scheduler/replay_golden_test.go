package scheduler

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/afg"
	"repro/internal/dagen"
	"repro/internal/netsim"
	"repro/internal/repository"
)

var updateGolden = flag.Bool("update", false, "rewrite this package's replay goldens")

// checkGolden compares got with testdata/<name> byte for byte, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name string, got any) {
	t.Helper()
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if string(want) != string(data) {
		t.Fatalf("%s drifted from the golden; got:\n%s", name, data)
	}
}

// churnGoldenEnv is the pinned fault-injection environment: four sites of
// four hosts with dagen's heterogeneity draw, a star WAN, and the dense
// candidate pool in (site, host) order.
func churnGoldenEnv(t testing.TB) (Request, TimeModel, []HostRef, []string) {
	t.Helper()
	sites := []string{"s0", "s1", "s2", "s3"}
	repos := map[string]*repository.Repository{}
	var refs []HostRef
	var names []string
	for si, site := range sites {
		hosts := map[string][2]float64{}
		for hi, sp := range dagen.SpeedFactors(4, 1, 900+int64(si)) {
			h := fmt.Sprintf("%s-%d", site, hi)
			hosts[h] = [2]float64{sp, 0}
			refs = append(refs, HostRef{Site: site, Host: h})
			names = append(names, h)
		}
		repos[site] = makeRepo(t, site, hosts)
	}
	net := netsim.StarTopology(sites, 5*time.Millisecond, 1e7, 1)
	var remotes []HostSelector
	for _, site := range sites[1:] {
		remotes = append(remotes, &LocalSelector{Site: site, Repo: repos[site]})
	}
	env := Request{Local: &LocalSelector{Site: sites[0], Repo: repos[sites[0]]}, Remotes: remotes,
		Net: net, Config: NewConfig(WithSeed(1))}
	return env, heftTruth(repos), refs, names
}

// churnOutcomePin is every ChurnOutcome field, the makespan as its float64
// bit pattern so the pin is exact.
type churnOutcomePin struct {
	MakespanBits    string `json:"makespan_bits"`
	Replans         int    `json:"replans"`
	HostDownReplans int    `json:"host_down_replans"`
	OverrunReplans  int    `json:"overrun_replans"`
	Moved           int    `json:"moved"`
	DupRuns         int    `json:"dup_runs"`
	Killed          int    `json:"killed"`
}

// churnCell is one RunChurn of the churn_golden grid: a graph, its heft
// table and a churn trace, under one re-planner.
type churnCell struct {
	key       string
	g         *afg.Graph
	table     *AllocationTable
	trace     ChurnTrace
	replanner string
}

// churnGoldenGrid builds the churn_golden grid: 8 seeds of 50-task dagen
// graphs, serial and every-fifth-task-parallel, permanent failures and
// repairs after 0.15 × the fault-free makespan, under dup, eft and heft —
// 96 cells.
func churnGoldenGrid(t testing.TB, env Request, truth TimeModel, hostNames []string) []churnCell {
	t.Helper()
	var cells []churnCell
	for seed := int64(1); seed <= 8; seed++ {
		for _, shape := range []string{"serial", "parallel"} {
			ccr := 0.5
			if seed%2 == 0 {
				ccr = 2
			}
			g := dagen.Random(dagen.Params{Tasks: 50, CCR: ccr, Alpha: 1, OutDegree: 4, Beta: 1, Seed: 4000 + seed})
			if shape == "parallel" {
				for i, id := range g.TaskIDs() {
					if i%5 == 2 {
						g.Task(id).Mode, g.Task(id).Processors = afg.Parallel, 2
					}
				}
			}
			table, err := runPolicy("heft", &env, g)
			if err != nil {
				t.Fatal(err)
			}
			fair, err := Simulate(g, table, truth, env.Net)
			if err != nil {
				t.Fatal(err)
			}
			for _, faults := range []string{"permanent", "repair"} {
				cfg := DefaultChurnTrace
				if faults == "repair" {
					cfg.RepairAfter = 0.15 * fair
				}
				trace := GenerateChurnTrace(hostNames, fair, cfg, 7000+seed)
				for _, name := range []string{"dup", "eft", "heft"} {
					cells = append(cells, churnCell{key: fmt.Sprintf("%s/%s/%s/seed%d", name, faults, shape, seed),
						g: g, table: table, trace: trace, replanner: name})
				}
			}
		}
	}
	return cells
}

// TestChurnGolden pins the fault-injection executor where the CHURN cells of
// experiments_golden.json do not reach: repaired hosts coming back and
// parallel-mode tasks losing a machine, for every re-planner, on 50-task
// dagen graphs over 16 hosts.
func TestChurnGolden(t *testing.T) {
	env, truth, refs, hostNames := churnGoldenEnv(t)
	got := map[string]churnOutcomePin{}
	for _, c := range churnGoldenGrid(t, env, truth, hostNames) {
		out, err := RunChurn(c.g, c.table, truth, env.Net, refs, c.trace, ChurnConfig{Replanner: c.replanner})
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		got[c.key] = churnOutcomePin{
			MakespanBits:    fmt.Sprintf("%016x", math.Float64bits(out.Makespan)),
			Replans:         out.Replans,
			HostDownReplans: out.HostDownReplans,
			OverrunReplans:  out.OverrunReplans,
			Moved:           out.Moved,
			DupRuns:         out.DupRuns,
			Killed:          out.Killed,
		}
	}
	checkGolden(t, "churn_golden.json", got)
}

// BenchmarkRunChurn times the churn_golden grid's 96 RunChurn calls per
// iteration, with every table and trace built before the clock starts: the
// re-planning kernel and every repair's certification, without the 10 s
// harness's spread.
func BenchmarkRunChurn(b *testing.B) {
	env, truth, refs, hostNames := churnGoldenEnv(b)
	cells := churnGoldenGrid(b, env, truth, hostNames)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			if _, err := RunChurn(c.g, c.table, truth, env.Net, refs, c.trace, ChurnConfig{Replanner: c.replanner}); err != nil {
				b.Fatalf("%s: %v", c.key, err)
			}
		}
	}
}

// realPolicies is every registered policy but the erroring "test-" stubs
// the registry tests install in this binary.
func realPolicies(t testing.TB) []string {
	t.Helper()
	var names []string
	for _, n := range Policies() {
		if !strings.HasPrefix(n, "test-") {
			names = append(names, n)
		}
	}
	if len(names) < 9 {
		t.Fatalf("only %d policies registered: %v", len(names), names)
	}
	return names
}

// forEachDagenGridGraph walks the validator property grid — ~36 dagen graphs
// spanning size × CCR × shape × heterogeneity, every seventh with a
// parallel-mode task — and hands fn each graph with its environment.
func forEachDagenGridGraph(t *testing.T, fn func(label string, env Request, g *afg.Graph, truth TimeModel, net *netsim.Network)) {
	t.Helper()
	graphs := 0
	for _, beta := range []float64{0.25, 1.25} {
		env, repos, net := dagenEnv(t, beta, 17)
		truth := heftTruth(repos)
		for _, tasks := range []int{8, 20, 40} {
			for _, ccr := range []float64{0.1, 1, 5} {
				for _, alpha := range []float64{0.5, 2} {
					seed := int64(graphs)
					g := dagen.Random(dagen.Params{
						Tasks: tasks, CCR: ccr, Alpha: alpha, OutDegree: 3,
						Beta: beta, Seed: seed,
					})
					if graphs%7 == 3 { // exercise the parallel placement paths
						id := g.TaskIDs()[tasks/2]
						g.Task(id).Mode = afg.Parallel
						g.Task(id).Processors = 2
					}
					graphs++
					fn(fmt.Sprintf("v=%d ccr=%g α=%g β=%g", tasks, ccr, alpha, beta), env, g, truth, net)
				}
			}
		}
	}
	if graphs < 36 {
		t.Fatalf("grid shrank to %d graphs", graphs)
	}
}

// forEachDagenGridSchedule hands fn each real policy's table for each graph
// of the grid.
func forEachDagenGridSchedule(t *testing.T, fn func(policy, label string, g *afg.Graph, table *AllocationTable, truth TimeModel, net *netsim.Network)) {
	t.Helper()
	names := realPolicies(t)
	forEachDagenGridGraph(t, func(label string, env Request, g *afg.Graph, truth TimeModel, net *netsim.Network) {
		for _, name := range names {
			p, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			label := name + " on " + label
			items := (&Batch{Policy: p, Env: env, Workers: 1}).Schedule([]*afg.Graph{g})
			if items[0].Err != nil {
				t.Fatalf("%s: %v", label, items[0].Err)
			}
			fn(name, label, g, items[0].Table, truth, net)
		}
	})
}

// TestValidatorAuditGolden pins ValidateSchedule's full audit — every span's
// task, site, host set, start and end bits, in span order — as one sha256 per
// policy over the dagen grid, so a validator rewrite must reproduce every
// realized interval, not only the makespans.
func TestValidatorAuditGolden(t *testing.T) {
	sums := map[string][]byte{} // policy -> digest chained over the grid so far
	forEachDagenGridSchedule(t, func(policy, label string, g *afg.Graph, table *AllocationTable, truth TimeModel, net *netsim.Network) {
		audit, err := ValidateSchedule(g, table, truth, net)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		h := sha256.New()
		h.Write(sums[policy])
		for _, s := range audit.Spans {
			fmt.Fprintf(h, "%s|%s|%s|%016x|%016x\n", s.Task, s.Site, strings.Join(s.Hosts, ","),
				math.Float64bits(s.Start), math.Float64bits(s.End))
		}
		sums[policy] = h.Sum(nil)
	})
	got := map[string]string{}
	for policy, sum := range sums {
		got[policy] = hex.EncodeToString(sum)
	}
	checkGolden(t, "audit_golden.json", got)
}
