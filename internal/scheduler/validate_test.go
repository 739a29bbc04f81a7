//vdce:ignore-file floateq validator equivalence file: the independent audit must reproduce simulator makespans bit for bit
package scheduler

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
	env := Request{Local: local, Remotes: remotes, Net: net,
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
	if err := new(validator).checkPrecedence(ix, net, bad); err == nil {
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
	truth := heftTruth(req.siteRepos())
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

// Every refusal of the validator, pinned by its exact text: a malformed table
// is reported by the smallest offending task id, a double-booked host by the
// smallest host name, whatever the order the schedule reaches them in. (A
// replay deadlock needs a cyclic graph, which afg.Index refuses, so no input
// reaches that error.)
func TestValidateScheduleErrorText(t *testing.T) {
	g := afg.New("pin")
	g.AddTask(&afg.Task{ID: "a", Function: "f", ComputeCost: 1, OutputBytes: 1 << 20})
	g.AddTask(&afg.Task{ID: "b", Function: "f", ComputeCost: 2})
	g.AddTask(&afg.Task{ID: "c", Function: "f", ComputeCost: 3})
	g.AddLink(afg.Link{From: "a", To: "b"})
	g.AddLink(afg.Link{From: "a", To: "c"})
	net := netsim.StarTopology([]string{"east", "west"}, 10*time.Millisecond, 1e6, 1)
	cost := func(task *afg.Task, host string) float64 { return task.ComputeCost }
	table := func(edit func(e map[afg.TaskID]Assignment)) *AllocationTable {
		tb := NewAllocationTable("pin")
		tb.Set(Assignment{Task: "a", Site: "east", Host: "h0"})
		tb.Set(Assignment{Task: "b", Site: "west", Host: "h1", Hosts: []string{"h1", "h2"}})
		tb.Set(Assignment{Task: "c", Site: "east", Host: "h0"})
		if edit == nil {
			return tb
		}
		// Rebuild from the edited map, each entry under its key.
		e := tb.Entries()
		edit(e)
		out := NewAllocationTable("pin")
		for _, id := range sortedIDs(e) {
			out.put(id, e[id])
		}
		return out
	}
	withHosts := func(id afg.TaskID, host string, hosts ...string) func(e map[afg.TaskID]Assignment) {
		return func(e map[afg.TaskID]Assignment) {
			a := e[id]
			a.Host, a.Hosts = host, hosts
			e[id] = a
		}
	}
	// A decoded entry keeps its key, whatever task it names.
	decoded, err := DecodeTable([]byte(`{"app":"pin","entries":{` +
		`"a":{"task":"a","site":"east","host":"h0","predicted":0},` +
		`"b":{"task":"c","site":"east","host":"h0","predicted":0},` +
		`"c":{"task":"c","site":"east","host":"h0","predicted":0}},"order":["a","b","c"]}`))
	if err != nil {
		t.Fatal(err)
	}
	const pre = "scheduler: validate: "
	cases := []struct {
		name  string
		table *AllocationTable
		model TimeModel
		want  string
	}{
		{"unknown task", table(func(e map[afg.TaskID]Assignment) {
			e["ghost"] = Assignment{Task: "ghost", Site: "east", Host: "h0"}
		}), cost, pre + `assignment for unknown task "ghost"`},
		{"missing task", table(func(e map[afg.TaskID]Assignment) { delete(e, "b") }), cost,
			pre + `task "b" missing from allocation table`},
		{"entry names another task", table(func(e map[afg.TaskID]Assignment) {
			e["b"] = Assignment{Task: "c", Site: "east", Host: "h0"}
		}), cost, pre + `entry "b" names task "c"`},
		{"decoded entry names another task", decoded, cost, pre + `entry "b" names task "c"`},
		{"empty host", table(withHosts("c", "")), cost, pre + `task "c" has no host`},
		{"primary host outside its set", table(withHosts("b", "h0", "h1", "h2")), cost,
			pre + `task "b" primary host "h0" not in host set [h1 h2]`},
		{"empty host inside a set", table(withHosts("b", "h1", "h1", "")), cost,
			pre + `task "b" has an empty host in its host set`},
		{"two faults, the smaller id reported", table(func(e map[afg.TaskID]Assignment) {
			withHosts("c", "")(e)
			withHosts("b", "h3", "h1")(e)
		}), cost, pre + `task "b" primary host "h3" not in host set [h1]`},
		{"NaN duration", table(nil), func(task *afg.Task, host string) float64 {
			if task.ID == "c" {
				return math.NaN()
			}
			return 1
		}, pre + `invalid duration NaN for task "c"`},
		{"infinite duration", table(nil), func(task *afg.Task, host string) float64 {
			return math.Inf(1)
		}, pre + `invalid duration +Inf for task "a"`},
	}
	for _, tc := range cases {
		audit, err := ValidateSchedule(g, tc.table, tc.model, net)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: got (%v, %v), want error %q", tc.name, audit, err, tc.want)
		}
	}

	// Host h2's overlap comes first in time, h1's first by name: the error
	// names h1.
	overlaps := &ScheduleAudit{Spans: []ScheduledSpan{
		{Task: "p", Hosts: []string{"h2"}, Start: 0, End: 2},
		{Task: "q", Hosts: []string{"h2", "h3"}, Start: 1, End: 3},
		{Task: "r", Hosts: []string{"h1"}, Start: 4, End: 6},
		{Task: "s", Hosts: []string{"h1"}, Start: 5, End: 7},
	}}
	want := pre + "host h1 double-booked: r [4, 6) overlaps s [5, 7)"
	if err := checkHostExclusive(overlaps); err == nil || err.Error() != want {
		t.Errorf("double-booked: got %v, want %q", err, want)
	}
}

var reuseSeed = flag.Int64("reuse-seed", 0, "seed of TestReusedValidatorMatchesFresh (0: from the clock)")

// One validator driven through a random sequence of tables — the dagen grid
// and its mirror images, serial and parallel, so n grows and shrinks; a table
// repeated; malformed tables and a mid-replay refusal in between — must
// return exactly what a fresh ValidateSchedule returns at every step: the
// same audit, or the same error. A buffer that needs growZero but got grow
// leaks one call's state into the next and shows here.
func TestReusedValidatorMatchesFresh(t *testing.T) {
	type input struct {
		g     *afg.Graph
		table *AllocationTable
		truth TimeModel
		net   *netsim.Network
	}
	// mirror renames g's tasks in reverse order, so its roots take the
	// highest dense indices, where the other graphs hold non-roots.
	mirror := func(g *afg.Graph) *afg.Graph {
		ids := g.TaskIDs()
		rename := map[afg.TaskID]afg.TaskID{}
		for k, id := range ids {
			rename[id] = ids[len(ids)-1-k]
		}
		var tasks []*afg.Task
		for _, id := range ids {
			task := *g.Task(id)
			task.ID = rename[id]
			tasks = append(tasks, &task)
		}
		links := g.Links()
		for k, l := range links {
			links[k].From, links[k].To = rename[l.From], rename[l.To]
		}
		m, err := afg.Build(g.Name+"-mirrored", tasks, links)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	var grid []input
	forEachDagenGridGraph(t, func(label string, env Request, g *afg.Graph, truth TimeModel, net *netsim.Network) {
		for _, g := range []*afg.Graph{g, mirror(g)} {
			for _, policy := range []string{"heft", "eft"} {
				table, err := runPolicy(policy, &env, g)
				if err != nil {
					t.Fatalf("%s on %s: %v", policy, label, err)
				}
				grid = append(grid, input{g, table, truth, net})
			}
		}
	})
	seed := *reuseSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	malformed := func(tb *AllocationTable) *AllocationTable {
		out := NewAllocationTable(tb.App)
		order := tb.Order()
		victim := order[rng.Intn(len(order))]
		kind := rng.Intn(4)
		for _, id := range order {
			a, _ := tb.Get(id)
			if id == victim {
				switch kind {
				case 0:
					continue // missing
				case 1:
					a.Host, a.Hosts = "", nil
				case 2:
					a.Hosts = []string{a.Host + "-elsewhere"}
				case 3:
					out.Set(Assignment{Task: "zz-ghost", Site: a.Site, Host: a.Host})
				}
			}
			out.Set(a)
		}
		return out
	}
	var v validator
	in := grid[0]
	for step := 0; step < 400; step++ {
		what := "repeat"
		switch r := rng.Float64(); {
		case r < 0.15: // the previous input again
		case r < 0.3:
			what, in = "malformed", grid[rng.Intn(len(grid))]
			in.table = malformed(in.table)
		case r < 0.4:
			what, in = "refused duration", grid[rng.Intn(len(grid))]
			victim, truth := in.g.TaskIDs()[rng.Intn(in.g.Len())], in.truth
			in.truth = func(task *afg.Task, host string) float64 {
				if task.ID == victim {
					return math.Inf(-1)
				}
				return truth(task, host)
			}
		default:
			what, in = "grid", grid[rng.Intn(len(grid))]
		}
		got, gotErr := v.validate(in.g, in.table, in.truth, in.net)
		want, wantErr := ValidateSchedule(in.g, in.table, in.truth, in.net)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d step %d (%s, %d tasks): reused validator returned (%v, %v), fresh (%v, %v)",
				seed, step, what, in.g.Len(), got, gotErr, want, wantErr)
		}
	}
}
