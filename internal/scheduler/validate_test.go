//vdce:ignore-file floateq validator equivalence file: the independent audit must reproduce simulator makespans bit for bit
package scheduler

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/afg"
	"repro/internal/dagen"
	"repro/internal/netsim"
	"repro/internal/repository"
)

// dagenEnv builds a two-site environment whose host speeds come from the
// generator's heterogeneity knob β, so the validator property tests sweep
// the same axis the RANKING experiment does.
func dagenEnv(t testing.TB, beta float64, seed int64) (Request, map[string]*repository.Repository, *netsim.Network) {
	t.Helper()
	const hostsPerSite = 3
	repos := map[string]*repository.Repository{}
	siteNames := []string{"east", "west"}
	for si, name := range siteNames {
		speeds := dagen.SpeedFactors(hostsPerSite, beta, seed+int64(si)*31)
		hosts := map[string][2]float64{}
		for hi, sp := range speeds {
			hosts[fmt.Sprintf("%s-%d", name, hi)] = [2]float64{sp, 0}
		}
		repos[name] = makeRepo(t, name, hosts)
	}
	net := netsim.StarTopology(siteNames, 5*time.Millisecond, 1e7, 1)
	local := &LocalSelector{Site: "east", Repo: repos["east"]}
	remotes := []HostSelector{&LocalSelector{Site: "west", Repo: repos["west"]}}
	env := Request{Local: local, Remotes: remotes, Net: net, Sites: repos,
		Config: NewConfig(WithSeed(seed))}
	return env, repos, net
}

func TestValidateScheduleAcceptsFaithfulSchedule(t *testing.T) {
	env, repos, net := dagenEnv(t, 1, 1)
	g := dagen.Random(dagen.Params{Tasks: 25, CCR: 1, Seed: 3})
	table, err := runPolicy("faithful", &env, g)
	if err != nil {
		t.Fatal(err)
	}
	audit, err := ValidateSchedule(g, table, heftTruth(repos), net)
	if err != nil {
		t.Fatal(err)
	}
	if len(audit.Spans) != g.Len() {
		t.Fatalf("spans = %d, want %d", len(audit.Spans), g.Len())
	}
	if audit.Makespan <= 0 {
		t.Fatalf("makespan = %v", audit.Makespan)
	}
	if _, ok := audit.Span(g.TaskIDs()[0]); !ok {
		t.Fatal("Span lookup failed")
	}
}

func TestValidateScheduleRejectsMalformedTables(t *testing.T) {
	env, repos, net := dagenEnv(t, 1, 1)
	g := dagen.Random(dagen.Params{Tasks: 10, CCR: 1, Seed: 5})
	table, err := runPolicy("faithful", &env, g)
	if err != nil {
		t.Fatal(err)
	}
	truth := heftTruth(repos)

	if _, err := ValidateSchedule(g, nil, truth, net); err == nil {
		t.Fatal("nil table accepted")
	}
	if _, err := ValidateSchedule(afg.New("empty"), table, truth, net); !errors.Is(err, afg.ErrEmpty) {
		t.Fatalf("empty graph: %v", err)
	}

	// A missing task.
	incomplete := NewAllocationTable(g.Name)
	for i, id := range table.Order() {
		if i == 3 {
			continue
		}
		a, _ := table.Get(id)
		incomplete.Set(a)
	}
	if _, err := ValidateSchedule(g, incomplete, truth, net); err == nil {
		t.Fatal("missing task accepted")
	}

	// An assignment for a task the graph does not know.
	stray := NewAllocationTable(g.Name)
	for _, id := range table.Order() {
		a, _ := table.Get(id)
		stray.Set(a)
	}
	stray.Set(Assignment{Task: "ghost", Site: "east", Host: "east-0"})
	if _, err := ValidateSchedule(g, stray, truth, net); err == nil {
		t.Fatal("stray assignment accepted")
	}

	// An empty host.
	hostless := NewAllocationTable(g.Name)
	for _, id := range table.Order() {
		a, _ := table.Get(id)
		hostless.Set(a)
	}
	bad, _ := hostless.Get(table.Order()[0])
	bad.Host, bad.Hosts = "", nil
	hostless.Set(bad)
	if _, err := ValidateSchedule(g, hostless, truth, net); err == nil {
		t.Fatal("empty host accepted")
	}

	// A primary host outside the parallel host set.
	split := NewAllocationTable(g.Name)
	for _, id := range table.Order() {
		a, _ := table.Get(id)
		split.Set(a)
	}
	bad, _ = split.Get(table.Order()[1])
	bad.Hosts = []string{"west-0", "west-1"}
	bad.Host = "east-0"
	split.Set(bad)
	if _, err := ValidateSchedule(g, split, truth, net); err == nil {
		t.Fatal("primary host outside host set accepted")
	}
}

// The invariant checkers must catch corrupted realized schedules — they are
// what makes the validator an oracle rather than a replay.
func TestValidateCheckersCatchViolations(t *testing.T) {
	g := afg.New("pair")
	g.AddTask(&afg.Task{ID: "a", Function: "f", ComputeCost: 1, OutputBytes: 1 << 20})
	g.AddTask(&afg.Task{ID: "b", Function: "f", ComputeCost: 1})
	g.AddLink(afg.Link{From: "a", To: "b"})
	table := NewAllocationTable("pair")
	table.Set(Assignment{Task: "a", Site: "east", Host: "h0", Hosts: []string{"h0"}})
	table.Set(Assignment{Task: "b", Site: "west", Host: "h1", Hosts: []string{"h1"}})
	net := netsim.StarTopology([]string{"east", "west"}, 10*time.Millisecond, 1e6, 1)

	// Child starting before the parent's finish + WAN transfer.
	bad := &ScheduleAudit{Spans: []ScheduledSpan{
		{Task: "a", Site: "east", Hosts: []string{"h0"}, Start: 0, End: 1},
		{Task: "b", Site: "west", Hosts: []string{"h1"}, Start: 1, End: 2}, // transfer ignored
	}}
	ix, err := g.Index()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPrecedence(ix, net, bad); err == nil {
		t.Fatal("transfer-blind schedule accepted")
	}
	// Same instant, same host: double-booked.
	overlap := &ScheduleAudit{Spans: []ScheduledSpan{
		{Task: "a", Hosts: []string{"h0"}, Start: 0, End: 2},
		{Task: "b", Hosts: []string{"h0"}, Start: 1, End: 3},
	}}
	if err := checkHostExclusive(overlap); err == nil {
		t.Fatal("double-booked host accepted")
	}
	// The honest replay of the same table passes both checkers.
	audit, err := ValidateSchedule(g, table, func(task *afg.Task, host string) float64 {
		return task.ComputeCost
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + net.TransferTime("east", "west", 1<<20).Seconds() + 1
	if audit.Makespan != want {
		t.Fatalf("makespan = %v, want %v", audit.Makespan, want)
	}
}

// The property the evaluation stands on: every registered policy, across a
// 36-graph dagen grid spanning size × CCR × shape × heterogeneity (with a
// sprinkling of parallel-mode tasks), yields a table that passes the
// independent validator, and the validator's makespan equals Simulate's bit
// for bit — two implementations of the execution semantics agreeing.
func TestEveryPolicyPassesValidatorOnDagenGrid(t *testing.T) {
	forEachDagenGridSchedule(t, func(_, label string, g *afg.Graph, table *AllocationTable, truth TimeModel, net *netsim.Network) {
		audit, err := ValidateSchedule(g, table, truth, net)
		if err != nil {
			t.Fatalf("%s: validator: %v", label, err)
		}
		mk, err := Simulate(g, table, truth, net)
		if err != nil {
			t.Fatalf("%s: simulate: %v", label, err)
		}
		if audit.Makespan != mk {
			t.Fatalf("%s: validator makespan %v != simulator %v", label, audit.Makespan, mk)
		}
	})
}

// The executor's fault-free run realizes exactly the intervals the
// independent validator audits — per task, start and end agree bit for bit —
// for every registered policy over the dagen grid, and RunChurn with nothing
// scripted is that same run: same makespan, no deviation handled.
func TestExecutorSpansMatchValidatorAudit(t *testing.T) {
	scratchPoolOff = true // the executor's columns stay readable after run returns
	defer func() { scratchPoolOff = false }()
	forEachDagenGridSchedule(t, func(_, label string, g *afg.Graph, table *AllocationTable, truth TimeModel, net *netsim.Network) {
		audit, err := ValidateSchedule(g, table, truth, net)
		if err != nil {
			t.Fatalf("%s: validator: %v", label, err)
		}
		x := executor{g: g, table: table, model: truth, net: net, threshold: defaultOverrunThreshold}
		if err := x.run(); err != nil {
			t.Fatalf("%s: executor: %v", label, err)
		}
		for _, s := range audit.Spans {
			i := x.ix.Of(s.Task)
			if math.Float64bits(x.begin[i]) != math.Float64bits(s.Start) || math.Float64bits(x.end[i]) != math.Float64bits(s.End) {
				t.Fatalf("%s: task %s ran [%v, %v), audited [%v, %v)", label, s.Task, x.begin[i], x.end[i], s.Start, s.End)
			}
		}
		out, err := RunChurn(g, table, truth, net, nil, ChurnTrace{}, ChurnConfig{})
		if err != nil {
			t.Fatalf("%s: RunChurn: %v", label, err)
		}
		if want := (ChurnOutcome{Makespan: audit.Makespan}); *out != want {
			t.Fatalf("%s: unscripted RunChurn = %+v, want %+v", label, *out, want)
		}
	})
}

// Certification at kernel speed: the audit of a 20k-task plan returns in
// seconds. The quadratic ready scan this replaced took 33 s on this plan and
// the counter-fed ready list 0.27 s, so the bound is two orders wide — a
// complexity guard, not a timing assertion.
func TestValidateScheduleLargeGraphBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-task schedule is not -short sized")
	}
	req := xlEnv(t, xlSites, 16) // 128 hosts keep the cost matrix at 20 MB
	req.Graph = dagen.Random(dagen.Params{Tasks: 20_000, CCR: 1, Alpha: 1, OutDegree: 4, Beta: 1, Seed: 42})
	table, err := heftPolicy{}.Schedule(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	truth := heftTruth(req.Sites)
	t0 := time.Now()
	audit, err := ValidateSchedule(req.Graph, table, truth, req.Net)
	if err != nil {
		t.Fatal(err)
	}
	took := time.Since(t0)
	t.Logf("ValidateSchedule of %d tasks took %v", len(audit.Spans), took)
	if took > 5*time.Second {
		t.Fatalf("ValidateSchedule took %v, want under 5s", took)
	}
}

// The structured application graphs go through the same gauntlet: every
// policy's schedule of the Gaussian-elimination and FFT task graphs passes
// the validator and agrees with the simulator.
func TestEveryPolicyPassesValidatorOnStructuredGraphs(t *testing.T) {
	ge, err := dagen.GaussianElimination(6, dagen.Params{CCR: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	fft, err := dagen.FFT(8, dagen.Params{CCR: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	env, repos, net := dagenEnv(t, 1, 23)
	truth := heftTruth(repos)
	for _, g := range []*afg.Graph{ge, fft} {
		for _, name := range Policies() { // every registered policy, a newly registered one included
			if strings.HasPrefix(name, "test-") {
				continue
			}
			p, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			items := (&Batch{Policy: p, Env: env, Workers: 1}).Schedule([]*afg.Graph{g})
			if items[0].Err != nil {
				t.Fatalf("%s on %s: %v", name, g.Name, items[0].Err)
			}
			audit, err := ValidateSchedule(g, items[0].Table, truth, net)
			if err != nil {
				t.Fatalf("%s on %s: validator: %v", name, g.Name, err)
			}
			mk, err := Simulate(g, items[0].Table, truth, net)
			if err != nil {
				t.Fatalf("%s on %s: simulate: %v", name, g.Name, err)
			}
			if audit.Makespan != mk {
				t.Fatalf("%s on %s: validator makespan %v != simulator %v", name, g.Name, audit.Makespan, mk)
			}
		}
	}
}
