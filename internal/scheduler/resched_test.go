//vdce:ignore-file floateq re-planner certification file: repaired tables, predictions and makespans must agree bit for bit across the replay paths
package scheduler

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/afg"
	"repro/internal/dagen"
	"repro/internal/netsim"
)

// reschedEnv is a two-site, four-host environment with distinct speeds so
// the re-planners have real choices: a-1 is the fast machine, b-1 the
// slow one.
func reschedEnv() ([]HostRef, TimeModel, *netsim.Network) {
	speed := map[string]float64{"a-0": 1, "a-1": 2, "b-0": 1.5, "b-1": 0.5}
	hosts := []HostRef{
		{Site: "alpha", Host: "a-0"}, {Site: "alpha", Host: "a-1"},
		{Site: "beta", Host: "b-0"}, {Site: "beta", Host: "b-1"},
	}
	model := func(task *afg.Task, host string) float64 {
		return task.ComputeCost / speed[host]
	}
	net := netsim.StarTopology([]string{"alpha", "beta"}, 2*time.Millisecond, 1e7, 1)
	return hosts, model, net
}

// diamondGraph is A → {B, C} → D.
func diamondGraph(t testing.TB) *afg.Graph {
	t.Helper()
	g := afg.New("diamond")
	costs := map[string]float64{"A": 2, "B": 3, "C": 4, "D": 2}
	for _, id := range []string{"A", "B", "C", "D"} {
		if err := g.AddTask(&afg.Task{
			ID: afg.TaskID(id), Function: "synthetic.noop",
			ComputeCost: costs[id], OutputBytes: 1 << 10,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][2]string{{"A", "B"}, {"A", "C"}, {"B", "D"}, {"C", "D"}} {
		if err := g.AddLink(afg.Link{From: afg.TaskID(l[0]), To: afg.TaskID(l[1])}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// tableOn maps every task of g onto one host.
func tableOn(g *afg.Graph, model TimeModel, site, host string) *AllocationTable {
	tbl := NewAllocationTable(g.Name)
	for _, id := range g.TaskIDs() {
		task := g.Task(id)
		tbl.Set(Assignment{Task: id, Site: site, Host: host,
			Hosts: []string{host}, Predicted: model(task, host)})
	}
	return tbl
}

// tableRoundRobin distributes tasks over the host pool in id order.
func tableRoundRobin(g *afg.Graph, model TimeModel, hosts []HostRef) *AllocationTable {
	tbl := NewAllocationTable(g.Name)
	for i, id := range g.TaskIDs() {
		h := hosts[i%len(hosts)]
		tbl.Set(Assignment{Task: id, Site: h.Site, Host: h.Host,
			Hosts: []string{h.Host}, Predicted: model(g.Task(id), h.Host)})
	}
	return tbl
}

func TestReplannerRegistry(t *testing.T) {
	names := Replanners()
	want := []string{"dup", "eft", "heft"}
	if len(names) != len(want) {
		t.Fatalf("Replanners() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Replanners() = %v, want %v (sorted)", names, want)
		}
	}
	if _, err := LookupReplanner("nope"); !errors.Is(err, ErrUnknownReplanner) {
		t.Fatalf("LookupReplanner(nope) err = %v, want ErrUnknownReplanner", err)
	}
	if _, err := LookupReplanner("heft"); err != nil {
		t.Fatalf("LookupReplanner(heft) err = %v", err)
	}
}

// A HostDown deviation must clear the frontier off the dead machine while
// settled assignments survive verbatim — for every registered re-planner.
func TestReplanHostDownAvoidsDownHost(t *testing.T) {
	hosts, model, net := reschedEnv()
	for _, name := range Replanners() {
		t.Run(name, func(t *testing.T) {
			g := diamondGraph(t)
			tbl := tableOn(g, model, "alpha", "a-0")
			rp, err := LookupReplanner(name)
			if err != nil {
				t.Fatal(err)
			}
			req := &ReplanRequest{
				Graph: g,
				Table: tbl,
				Done:  map[afg.TaskID]float64{"A": 2},
				Down:  map[string]bool{"a-0": true},
				Event: Deviation{Kind: DeviationHostDown, Host: "a-0", At: 2},
				Costs: model,
				Hosts: hosts,
				Net:   net,
			}
			pl, err := rp.Replan(req)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range []afg.TaskID{"B", "C", "D"} {
				a, ok := pl.Table.Get(id)
				if !ok {
					t.Fatalf("task %s missing from re-planned table", id)
				}
				if a.Host == "a-0" {
					t.Fatalf("task %s still on the down host", id)
				}
			}
			a, _ := pl.Table.Get("A")
			if a.Host != "a-0" || a.Site != "alpha" {
				t.Fatalf("done task A moved: %+v", a)
			}
			if pl.Moved != 3 {
				t.Fatalf("Moved = %d, want 3", pl.Moved)
			}
			if _, err := CertifyReplan(g, pl.Table, model, net); err != nil {
				t.Fatalf("certification failed: %v", err)
			}
		})
	}
}

// Running tasks must keep their assignment even when another host dies.
func TestReplanPreservesSettled(t *testing.T) {
	hosts, model, net := reschedEnv()
	for _, name := range Replanners() {
		t.Run(name, func(t *testing.T) {
			g := diamondGraph(t)
			tbl := tableOn(g, model, "alpha", "a-0")
			// C and D live on the doomed host.
			cost := func(id afg.TaskID, h string) float64 { return model(g.Task(id), h) }
			tbl.Set(Assignment{Task: "C", Site: "beta", Host: "b-0", Hosts: []string{"b-0"}, Predicted: cost("C", "b-0")})
			tbl.Set(Assignment{Task: "D", Site: "beta", Host: "b-0", Hosts: []string{"b-0"}, Predicted: cost("D", "b-0")})
			rp, _ := LookupReplanner(name)
			pl, err := rp.Replan(&ReplanRequest{
				Graph:   g,
				Table:   tbl,
				Done:    map[afg.TaskID]float64{"A": 2},
				Running: map[afg.TaskID]float64{"B": 5},
				Down:    map[string]bool{"b-0": true},
				Event:   Deviation{Kind: DeviationHostDown, Host: "b-0", At: 3},
				Costs:   model,
				Hosts:   hosts,
				Net:     net,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range []afg.TaskID{"A", "B"} {
				was, _ := tbl.Get(id)
				is, _ := pl.Table.Get(id)
				if was.Host != is.Host || was.Site != is.Site {
					t.Fatalf("settled task %s moved: %+v -> %+v", id, was, is)
				}
			}
			for _, id := range []afg.TaskID{"C", "D"} {
				if a, _ := pl.Table.Get(id); a.Host == "b-0" {
					t.Fatalf("frontier task %s still on down host", id)
				}
			}
			if _, err := CertifyReplan(g, pl.Table, model, net); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The cheap patch moves only tasks touching a suspect host.
func TestEFTMovesOnlySuspectTasks(t *testing.T) {
	hosts, model, net := reschedEnv()
	g := diamondGraph(t)
	cost := func(id afg.TaskID, h string) float64 { return model(g.Task(id), h) }
	tbl := NewAllocationTable(g.Name)
	tbl.Set(Assignment{Task: "A", Site: "alpha", Host: "a-0", Hosts: []string{"a-0"}, Predicted: cost("A", "a-0")})
	tbl.Set(Assignment{Task: "B", Site: "beta", Host: "b-0", Hosts: []string{"b-0"}, Predicted: cost("B", "b-0")})
	tbl.Set(Assignment{Task: "C", Site: "alpha", Host: "a-1", Hosts: []string{"a-1"}, Predicted: cost("C", "a-1")})
	tbl.Set(Assignment{Task: "D", Site: "beta", Host: "b-1", Hosts: []string{"b-1"}, Predicted: cost("D", "b-1")})
	rp, _ := LookupReplanner("eft")
	pl, err := rp.Replan(&ReplanRequest{
		Graph: g,
		Table: tbl,
		Done:  map[afg.TaskID]float64{"A": 2},
		Down:  map[string]bool{"b-0": true},
		Event: Deviation{Kind: DeviationHostDown, Host: "b-0", At: 2},
		Costs: model,
		Hosts: hosts,
		Net:   net,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Moved != 1 {
		t.Fatalf("Moved = %d, want 1 (only B touches the down host)", pl.Moved)
	}
	for _, id := range []afg.TaskID{"C", "D"} {
		was, _ := tbl.Get(id)
		is, _ := pl.Table.Get(id)
		if was.Host != is.Host {
			t.Fatalf("unaffected task %s moved %s -> %s", id, was.Host, is.Host)
		}
	}
	if b, _ := pl.Table.Get("B"); b.Host == "b-0" {
		t.Fatal("B still on down host")
	}
}

// An overrun deviation routes frontier work away from the straggling host
// without touching the running straggler itself.
func TestOverrunPatchAvoidsStragglerHost(t *testing.T) {
	hosts, model, net := reschedEnv()
	g := diamondGraph(t)
	tbl := tableOn(g, model, "alpha", "a-1")
	rp, _ := LookupReplanner("eft")
	pl, err := rp.Replan(&ReplanRequest{
		Graph:   g,
		Table:   tbl,
		Done:    map[afg.TaskID]float64{"A": 1},
		Running: map[afg.TaskID]float64{"B": 4},
		Event:   Deviation{Kind: DeviationOverrun, Host: "a-1", Task: "B", At: 3, Ratio: 2},
		Costs:   model,
		Hosts:   hosts,
		Net:     net,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := pl.Table.Get("B")
	if b.Host != "a-1" {
		t.Fatalf("running straggler B moved to %s", b.Host)
	}
	for _, id := range []afg.TaskID{"C", "D"} {
		if a, _ := pl.Table.Get(id); a.Host == "a-1" {
			t.Fatalf("frontier task %s left on the straggling host", id)
		}
	}
	if _, err := CertifyReplan(g, pl.Table, model, net); err != nil {
		t.Fatal(err)
	}
}

// dup hedges each re-placed task on an idle host, off the certified table.
func TestDupReplannerHedges(t *testing.T) {
	hosts, model, net := reschedEnv()
	g := afg.New("pair")
	for _, id := range []string{"A", "B"} {
		if err := g.AddTask(&afg.Task{ID: afg.TaskID(id), Function: "synthetic.noop",
			ComputeCost: 3, OutputBytes: 1 << 10}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddLink(afg.Link{From: "A", To: "B"}); err != nil {
		t.Fatal(err)
	}
	tbl := tableOn(g, model, "alpha", "a-0")
	rp, _ := LookupReplanner("dup")
	pl, err := rp.Replan(&ReplanRequest{
		Graph: g,
		Table: tbl,
		Done:  map[afg.TaskID]float64{"A": 3},
		Down:  map[string]bool{"a-0": true},
		Event: Deviation{Kind: DeviationHostDown, Host: "a-0", At: 3},
		Costs: model,
		Hosts: hosts,
		Net:   net,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Duplicates) != 1 || pl.Duplicates[0].Task != "B" {
		t.Fatalf("Duplicates = %+v, want one hedge for B", pl.Duplicates)
	}
	primary, _ := pl.Table.Get("B")
	d := pl.Duplicates[0]
	if d.Host == primary.Host || d.Host == "a-0" {
		t.Fatalf("duplicate landed on %s (primary %s)", d.Host, primary.Host)
	}
	// The hedge is not part of the certified table.
	if _, err := CertifyReplan(g, pl.Table, model, net); err != nil {
		t.Fatal(err)
	}
}

// Satellite: every re-planned table passes ValidateSchedule bit-for-bit
// against Simulate, across re-planners and random layered DAGs.
func TestReplanCertifiedBitForBit(t *testing.T) {
	hosts, model, net := reschedEnv()
	for _, name := range Replanners() {
		for seed := int64(1); seed <= 3; seed++ {
			g := layeredDAG(t, 4, 5, seed)
			tbl := tableRoundRobin(g, model, hosts)
			ids := g.TaskIDs()
			done := map[afg.TaskID]float64{ids[0]: 1.5}
			rp, _ := LookupReplanner(name)
			pl, err := rp.Replan(&ReplanRequest{
				Graph: g,
				Table: tbl,
				Done:  done,
				Down:  map[string]bool{"a-0": true},
				Event: Deviation{Kind: DeviationHostDown, Host: "a-0", At: 1.5},
				Costs: model,
				Hosts: hosts,
				Net:   net,
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			mk, err := Simulate(g, pl.Table, model, net)
			if err != nil {
				t.Fatalf("%s seed %d: simulate: %v", name, seed, err)
			}
			audit, err := CertifyReplan(g, pl.Table, model, net)
			if err != nil {
				t.Fatalf("%s seed %d: certify: %v", name, seed, err)
			}
			if audit.Makespan != mk {
				t.Fatalf("%s seed %d: validator %v != simulator %v", name, seed, audit.Makespan, mk)
			}
		}
	}
}

// No eligible host at all is a hard error, not a silent no-op.
func TestReplanNoEligibleHost(t *testing.T) {
	hosts, model, net := reschedEnv()
	g := diamondGraph(t)
	tbl := tableOn(g, model, "alpha", "a-0")
	down := map[string]bool{}
	for _, h := range hosts {
		down[h.Host] = true
	}
	rp, _ := LookupReplanner("heft")
	_, err := rp.Replan(&ReplanRequest{
		Graph: g, Table: tbl, Down: down,
		Event: Deviation{Kind: DeviationHostDown, Host: "a-0"},
		Costs: model, Hosts: hosts, Net: net,
	})
	if !errors.Is(err, ErrNoEligibleHost) {
		t.Fatalf("err = %v, want ErrNoEligibleHost", err)
	}
}

// parallelDiamond is diamondGraph with C a two-processor parallel task, A
// done on a-0 and C committed on {a-1, b-0}.
func parallelDiamond(t testing.TB, model TimeModel) (*afg.Graph, *AllocationTable) {
	t.Helper()
	g := diamondGraph(t)
	c := g.Task("C")
	c.Mode, c.Processors = afg.Parallel, 2
	tbl := tableOn(g, model, "alpha", "a-0")
	tbl.Set(Assignment{Task: "C", Site: "alpha", Host: "a-1",
		Hosts: []string{"a-1", "b-0"}, Predicted: model(c, "a-1") / 2})
	return g, tbl
}

// A multi-host frontier assignment survives verbatim while every member is
// up, and is re-placed on ONE eligible host once a member is down — under
// every re-planner.
func TestReplanParallelFrontierTask(t *testing.T) {
	hosts, model, net := reschedEnv()
	for _, name := range Replanners() {
		t.Run(name, func(t *testing.T) {
			rp, _ := LookupReplanner(name)
			g, tbl := parallelDiamond(t, model)
			was, _ := tbl.Get("C")
			pl, err := rp.Replan(&ReplanRequest{
				Graph: g, Table: tbl,
				Done:  map[afg.TaskID]float64{"A": 2},
				Down:  map[string]bool{"b-1": true},
				Event: Deviation{Kind: DeviationHostDown, Host: "b-1", At: 2},
				Costs: model, Hosts: hosts, Net: net,
			})
			if err != nil {
				t.Fatal(err)
			}
			if is, _ := pl.Table.Get("C"); !reflect.DeepEqual(is, was) {
				t.Fatalf("intact parallel task changed: %+v -> %+v", was, is)
			}
			if _, err := CertifyReplan(g, pl.Table, model, net); err != nil {
				t.Fatal(err)
			}

			pl, err = rp.Replan(&ReplanRequest{
				Graph: g, Table: tbl,
				Done:  map[afg.TaskID]float64{"A": 2},
				Down:  map[string]bool{"b-0": true},
				Event: Deviation{Kind: DeviationHostDown, Host: "b-0", At: 2},
				Costs: model, Hosts: hosts, Net: net,
			})
			if err != nil {
				t.Fatal(err)
			}
			is, _ := pl.Table.Get("C")
			if len(is.Hosts) != 1 || is.Hosts[0] != is.Host || is.Host == "b-0" {
				t.Fatalf("broken parallel task not re-placed on one live host: %+v", is)
			}
			if is.Predicted != model(g.Task("C"), is.Host) {
				t.Fatalf("re-placed parallel task predicted %v, want the unsplit model value", is.Predicted)
			}
			if _, err := CertifyReplan(g, pl.Table, model, net); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The two start rules: B (waiting on A's data until t≈10) reserves the fast
// host a-1 late, leaving an idle gap before it. heft slides C into the gap
// (insertion); eft starts C after the line's end (append) and so prefers
// another machine.
func TestReplanInsertionVersusAppend(t *testing.T) {
	hosts, model, net := reschedEnv()
	g := afg.New("gap")
	for id, cost := range map[string]float64{"A": 5, "B": 4, "C": 2} {
		if err := g.AddTask(&afg.Task{ID: afg.TaskID(id), Function: "synthetic.noop",
			ComputeCost: cost, OutputBytes: 1 << 10}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddLink(afg.Link{From: "A", To: "B"}); err != nil {
		t.Fatal(err)
	}
	assign := func(id afg.TaskID, site, host string) Assignment {
		return Assignment{Task: id, Site: site, Host: host, Hosts: []string{host},
			Predicted: model(g.Task(id), host)}
	}
	tbl := NewAllocationTable(g.Name)
	tbl.Set(assign("A", "beta", "b-1")) // done at 5/0.5 = 10
	tbl.Set(assign("B", "alpha", "a-1"))
	tbl.Set(assign("C", "alpha", "a-0")) // the host that fails
	for name, wantC := range map[string]string{"heft": "a-1", "eft": "b-0"} {
		rp, _ := LookupReplanner(name)
		pl, err := rp.Replan(&ReplanRequest{
			Graph: g, Table: tbl,
			Done:  map[afg.TaskID]float64{"A": 10},
			Down:  map[string]bool{"a-0": true},
			Event: Deviation{Kind: DeviationHostDown, Host: "a-0", At: 10},
			Costs: model, Hosts: hosts, Net: net,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b, _ := pl.Table.Get("B"); b.Host != "a-1" {
			t.Fatalf("%s: B on %s, want a-1 (the scenario needs the late reservation there)", name, b.Host)
		}
		if c, _ := pl.Table.Get("C"); c.Host != wantC {
			t.Fatalf("%s: C on %s, want %s", name, c.Host, wantC)
		}
		audit, err := CertifyReplan(g, pl.Table, model, net)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Either way C runs beside the critical chain A → B, so the
		// certified makespan is B's finish on a-1.
		if b, _ := audit.Span("B"); audit.Makespan != b.End {
			t.Fatalf("%s: makespan %v, want B's finish %v", name, audit.Makespan, b.End)
		}
	}
}

// Initial scheduling is a re-plan with an empty settled set: heft
// re-planning an unstarted application over the policy's own cost matrix
// returns exactly the heft policy's table.
func TestHEFTReplanOfNothingSettledIsHEFTPolicy(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		env, _, net := equivEnv(t, seed)
		req := *env
		req.Graph = dagen.Scale(120, 8, 6, seed)
		req.Config.Costs = NewCostCache()
		if err := req.PrewarmCosts(); err != nil {
			t.Fatal(err)
		}
		ix, err := req.Graph.Index()
		if err != nil {
			t.Fatal(err)
		}
		cm, err := req.costMatrix(ix)
		if err != nil {
			t.Fatal(err)
		}
		col := map[string]int{}
		for c, h := range cm.hosts {
			col[h.Host] = c
		}
		want, err := runPolicy("heft", &req, req.Graph)
		if err != nil {
			t.Fatal(err)
		}
		rp, _ := LookupReplanner("heft")
		pl, err := rp.Replan(&ReplanRequest{
			Graph: req.Graph,
			Table: NewAllocationTable(req.Graph.Name),
			Costs: func(task *afg.Task, host string) float64 {
				return predAt(cm, ix.Of(task.ID), col[host])
			},
			Hosts: cm.hosts,
			Net:   net,
		})
		if err != nil {
			t.Fatal(err)
		}
		tablesEqual(t, fmt.Sprintf("seed %d", seed), pl.Table, want)
		if pl.Moved != req.Graph.Len() {
			t.Fatalf("seed %d: Moved = %d, want every task (%d)", seed, pl.Moved, req.Graph.Len())
		}
	}
}

// Every refusal of a malformed progress report, pinned by its exact text. A
// settled task the graph does not name is refused, even when the table
// carries an entry for it, and the smallest such done id is reported before
// any running one.
func TestReplanRequestRefusalText(t *testing.T) {
	hosts, model, net := reschedEnv()
	g := diamondGraph(t)
	tbl := tableOn(g, model, "alpha", "a-0")
	withGhost := tableOn(g, model, "alpha", "a-0")
	withGhost.Set(Assignment{Task: "ghost", Site: "alpha", Host: "a-0"})
	partial := NewAllocationTable(g.Name)
	for _, id := range []afg.TaskID{"A", "B", "D"} {
		a, _ := tbl.Get(id)
		partial.Set(a)
	}
	const pre = "scheduler: replan: "
	cases := []struct {
		name          string
		table         *AllocationTable
		done, running map[afg.TaskID]float64
		want          string
	}{
		{"done ghost", tbl, map[afg.TaskID]float64{"A": 2, "ghost": 1}, nil,
			pre + "settled task ghost is not in the graph"},
		{"running ghost", tbl, map[afg.TaskID]float64{"A": 2}, map[afg.TaskID]float64{"B": 4, "ghost": 3},
			pre + "settled task ghost is not in the graph"},
		{"ghost with a table entry", withGhost, map[afg.TaskID]float64{"A": 2, "ghost": 1}, nil,
			pre + "settled task ghost is not in the graph"},
		{"done ghost before running ghost", tbl, map[afg.TaskID]float64{"zz": 1}, map[afg.TaskID]float64{"aa": 1},
			pre + "settled task zz is not in the graph"},
		{"both done and running", tbl, map[afg.TaskID]float64{"A": 2, "B": 4}, map[afg.TaskID]float64{"B": 4},
			pre + "task B both done and running"},
		{"done missing from table", partial, map[afg.TaskID]float64{"A": 2, "C": 4}, nil,
			pre + "done task C missing from table"},
		{"running missing from table", partial, map[afg.TaskID]float64{"A": 2}, map[afg.TaskID]float64{"C": 4},
			pre + "running task C missing from table"},
	}
	for _, tc := range cases {
		for _, name := range Replanners() {
			rp, _ := LookupReplanner(name)
			pl, err := rp.Replan(&ReplanRequest{Graph: g, Table: tc.table, Done: tc.done, Running: tc.running,
				Event: Deviation{Kind: DeviationOverrun, Host: "a-0", At: 2}, Costs: model, Hosts: hosts, Net: net})
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s, %s: got (%v, %v), want error %q", tc.name, name, pl, err, tc.want)
			}
		}
	}
}
