//vdce:ignore-file floateq policy equivalence file: HEFT variants are asserted to produce bit-identical predictions
package scheduler

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/afg"
	"repro/internal/netsim"
	"repro/internal/repository"
)

// heftEnv builds a 3-site heterogeneous environment: site speeds differ so
// the heuristics have real choices to make.
func heftEnv(t testing.TB) (*Request, map[string]*repository.Repository, *netsim.Network) {
	t.Helper()
	repos := map[string]*repository.Repository{
		"alpha": makeRepo(t, "alpha", map[string][2]float64{
			"alpha-0": {4, 0}, "alpha-1": {2, 0.5}, "alpha-2": {1, 0},
		}),
		"beta": makeRepo(t, "beta", map[string][2]float64{
			"beta-0": {3, 0}, "beta-1": {3, 2}, "beta-2": {1, 1},
		}),
		"gamma": makeRepo(t, "gamma", map[string][2]float64{
			"gamma-0": {2, 0}, "gamma-1": {2, 0}, "gamma-2": {2, 0},
		}),
	}
	net := netsim.StarTopology([]string{"alpha", "beta", "gamma"}, 5*time.Millisecond, 1e7, 1)
	local := &LocalSelector{Site: "alpha", Repo: repos["alpha"]}
	remotes := []HostSelector{
		&LocalSelector{Site: "beta", Repo: repos["beta"]},
		&LocalSelector{Site: "gamma", Repo: repos["gamma"]},
	}
	req := NewRequest(nil, local, remotes, net)
	req.Sites = repos
	return req, repos, net
}

// layeredDAG builds a deterministic random layered DAG for precedence
// validation: every task in layer i draws parents from layer i-1.
func layeredDAG(t testing.TB, layers, width int, seed int64) *afg.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := afg.New(fmt.Sprintf("layered-%d", seed))
	var prev []afg.TaskID
	for l := 0; l < layers; l++ {
		var cur []afg.TaskID
		for w := 0; w < width; w++ {
			id := afg.TaskID(fmt.Sprintf("l%02dw%02d", l, w))
			err := g.AddTask(&afg.Task{
				ID: id, Function: "synthetic.noop",
				ComputeCost: 0.2 + rng.Float64()*3,
				OutputBytes: int64(rng.Intn(1 << 14)),
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range prev {
				if rng.Float64() < 0.4 {
					if err := g.AddLink(afg.Link{From: p, To: id}); err != nil {
						t.Fatal(err)
					}
				}
			}
			cur = append(cur, id)
		}
		prev = cur
	}
	return g
}

// heftTruth scores tables against the recorded repository state.
func heftTruth(repos map[string]*repository.Repository) TimeModel {
	specs := map[string]repository.ResourceRecord{}
	for _, repo := range repos {
		for _, rec := range repo.Resources.List() {
			specs[rec.Static.HostName] = rec
		}
	}
	return func(task *afg.Task, host string) float64 {
		rec, ok := specs[host]
		if !ok {
			return task.ComputeCost
		}
		return task.ComputeCost / rec.Static.SpeedFactor * (1 + rec.Dynamic.Load)
	}
}

// validateSchedule asserts the policy's table covers every task, respects
// precedence in its assignment order, and replays to a finite makespan.
func validateSchedule(t *testing.T, g *afg.Graph, table *AllocationTable, repos map[string]*repository.Repository, net *netsim.Network) float64 {
	t.Helper()
	if len(table.Entries) != g.Len() {
		t.Fatalf("table covers %d of %d tasks", len(table.Entries), g.Len())
	}
	pos := map[afg.TaskID]int{}
	for i, id := range table.Order() {
		pos[id] = i
	}
	if len(pos) != g.Len() {
		t.Fatalf("assignment order covers %d of %d tasks", len(pos), g.Len())
	}
	for _, l := range g.Links() {
		if pos[l.From] >= pos[l.To] {
			t.Fatalf("precedence violated in assignment order: %q (pos %d) scheduled after child %q (pos %d)",
				l.From, pos[l.From], l.To, pos[l.To])
		}
	}
	mk, err := Simulate(g, table, heftTruth(repos), net)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if mk <= 0 || math.IsInf(mk, 0) || math.IsNaN(mk) {
		t.Fatalf("bad makespan %v", mk)
	}
	return mk
}

func TestHEFTRespectsPrecedenceOnRandomDAGs(t *testing.T) {
	p, err := Lookup("heft")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		req, repos, net := heftEnv(t)
		req.Graph = layeredDAG(t, 6, 8, seed)
		table, err := p.Schedule(context.Background(), req)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		validateSchedule(t, req.Graph, table, repos, net)
	}
}

func TestCPOPRespectsPrecedenceOnRandomDAGs(t *testing.T) {
	p, err := Lookup("cpop")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		req, repos, net := heftEnv(t)
		req.Graph = layeredDAG(t, 6, 8, seed)
		table, err := p.Schedule(context.Background(), req)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		validateSchedule(t, req.Graph, table, repos, net)
	}
}

// A pure chain IS its own critical path: CPOP must pin every task of the
// chain onto one host (the critical-path processor).
func TestCPOPPinsCriticalPathToOneHost(t *testing.T) {
	p, err := Lookup("cpop")
	if err != nil {
		t.Fatal(err)
	}
	req, repos, net := heftEnv(t)
	req.Graph = chainGraph(t, []float64{2, 3, 1, 4, 2}, 1<<12)
	table, err := p.Schedule(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	validateSchedule(t, req.Graph, table, repos, net)
	hosts := map[string]bool{}
	for _, a := range table.Entries {
		hosts[a.Host] = true
	}
	if len(hosts) != 1 {
		t.Fatalf("critical-path chain spread over %d hosts: %v", len(hosts), hosts)
	}
	// And the pin must be the fastest idle machine (alpha-0, speed 4).
	for _, a := range table.Entries {
		if a.Host != "alpha-0" {
			t.Fatalf("critical path pinned to %q, want alpha-0", a.Host)
		}
	}
}

// HEFT prices host contention (via its timelines) that the faithful
// objective cannot see: on a wide layer of identical tasks the faithful
// walk dog-piles the per-prediction-best hosts, while HEFT spreads — the
// simulated makespan must not be worse.
func TestHEFTNotWorseThanFaithfulUnderContention(t *testing.T) {
	heft, err := Lookup("heft")
	if err != nil {
		t.Fatal(err)
	}
	faithful, err := Lookup("faithful")
	if err != nil {
		t.Fatal(err)
	}
	g := afg.New("wide")
	for i := 0; i < 24; i++ {
		id := afg.TaskID(fmt.Sprintf("t%02d", i))
		if err := g.AddTask(&afg.Task{ID: id, Function: "synthetic.noop", ComputeCost: 2}); err != nil {
			t.Fatal(err)
		}
	}
	var mks [2]float64
	for i, p := range []Policy{heft, faithful} {
		req, repos, net := heftEnv(t)
		req.Graph = g
		table, err := p.Schedule(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		mks[i] = validateSchedule(t, g, table, repos, net)
	}
	if mks[0] > mks[1] {
		t.Fatalf("heft (%v) worse than faithful (%v) under contention", mks[0], mks[1])
	}
}

// Parallel-mode tasks take a machine set, not one host, under HEFT too.
func TestHEFTHandlesParallelTasks(t *testing.T) {
	p, err := Lookup("heft")
	if err != nil {
		t.Fatal(err)
	}
	req, repos, net := heftEnv(t)
	g := afg.New("par")
	if err := g.AddTask(&afg.Task{ID: "pre", Function: "synthetic.noop", ComputeCost: 1}); err != nil {
		t.Fatal(err)
	}
	err = g.AddTask(&afg.Task{
		ID: "wide", Function: "synthetic.noop", ComputeCost: 8,
		Mode: afg.Parallel, Processors: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(afg.Link{From: "pre", To: "wide", Bytes: 1 << 10}); err != nil {
		t.Fatal(err)
	}
	req.Graph = g
	table, err := p.Schedule(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	validateSchedule(t, g, table, repos, net)
	a, _ := table.Get("wide")
	if len(a.Hosts) != 3 {
		t.Fatalf("parallel task got %d hosts: %v", len(a.Hosts), a.Hosts)
	}
	site := a.Site
	for _, h := range a.Hosts {
		if h[:len(site)] != site {
			t.Fatalf("parallel host set crosses sites: %v", a.Hosts)
		}
	}
}

// The insertion-based timeline must slide a short task into an idle gap
// rather than appending after the last reservation.
func TestTimelineInsertionFillsGaps(t *testing.T) {
	var tl timeline
	tl.add(0, 2)
	tl.add(5, 8)
	if got := tl.earliest(0, 3); got != 2 {
		t.Fatalf("3s task: start %v, want 2 (the [2,5) gap)", got)
	}
	if got := tl.earliest(0, 4); got != 8 {
		t.Fatalf("4s task: start %v, want 8 (gap too small)", got)
	}
	if got := tl.earliest(6, 1); got != 8 {
		t.Fatalf("ready mid-reservation: start %v, want 8", got)
	}
	tl.add(2, 5)
	if got := tl.end(); got != 8 {
		t.Fatalf("end = %v, want 8", got)
	}
}

// Two applications scheduled through the policy API with one shared ledger
// must spread around each other — the WithLedger option on the request.
func TestHEFTSharedLedgerSpreadsApplications(t *testing.T) {
	p, err := Lookup("heft")
	if err != nil {
		t.Fatal(err)
	}
	ledger := NewLoadLedger()
	hosts := map[string]bool{}
	for i := 0; i < 3; i++ {
		req, _, _ := heftEnv(t)
		req.Config = NewConfig(WithLedger(ledger))
		g := afg.New(fmt.Sprintf("app%d", i))
		if err := g.AddTask(&afg.Task{ID: "t", Function: "synthetic.noop", ComputeCost: 5}); err != nil {
			t.Fatal(err)
		}
		req.Graph = g
		table, err := p.Schedule(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := table.Get("t")
		hosts[a.Host] = true
	}
	if len(hosts) < 2 {
		t.Fatalf("shared ledger did not spread identical apps: %v", hosts)
	}
}
