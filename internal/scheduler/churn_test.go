package scheduler

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/afg"
	"repro/internal/dagen"
)

// registerForTest installs a re-planner for one test only: the other tests
// walk Replanners(), and -count=N registers again.
func registerForTest(t *testing.T, r Replanner) {
	RegisterReplanner(r)
	t.Cleanup(func() {
		replanners.mu.Lock()
		defer replanners.mu.Unlock()
		delete(replanners.m, r.Name())
	})
}

// countingReplanner records how often it is consulted and repairs nothing.
type countingReplanner struct{ calls *int }

func (countingReplanner) Name() string { return "test-counting" }
func (r countingReplanner) Replan(*ReplanRequest) (*Replan, error) {
	*r.calls++
	return nil, ErrNoEligibleHost
}

// One loop has one cost-model check: a NaN, negative or infinite duration is
// refused by name, identically through both entry points, at the first start
// — before the scripted failure at t=1 can consult the re-planner.
func TestInvalidCostModelRefusedByBothEntryPoints(t *testing.T) {
	calls := 0
	registerForTest(t, countingReplanner{&calls})
	hosts, _, net := reschedEnv()
	g := diamondGraph(t)
	tbl := tableOn(g, unitModel, "alpha", "a-0")
	trace := ChurnTrace{Events: []ChurnEvent{{At: 1, Host: "a-0", Down: true}}}
	for _, bad := range []float64{math.NaN(), -1, math.Inf(1)} {
		model := func(*afg.Task, string) float64 { return bad }
		_, simErr := Simulate(g, tbl, model, net)
		_, churnErr := RunChurn(g, tbl, model, net, hosts, trace, ChurnConfig{Replanner: "test-counting"})
		if simErr == nil || churnErr == nil || simErr.Error() != churnErr.Error() {
			t.Fatalf("duration %v: Simulate says %v, RunChurn says %v; want the same error", bad, simErr, churnErr)
		}
		for _, want := range []string{"invalid duration", `for task "A"`} {
			if !strings.Contains(churnErr.Error(), want) {
				t.Fatalf("duration %v: error %q does not say %q", bad, churnErr, want)
			}
		}
	}
	if calls != 0 {
		t.Fatalf("re-planner consulted %d times on an invalid cost model", calls)
	}
}

// Satellite: a straggler host triggers frontier re-planning exactly once —
// the overrun is detected at threshold × predicted, the frontier moves off
// the host, and no second deviation fires.
func TestChurnStragglerReplansOnce(t *testing.T) {
	hosts, model, net := reschedEnv()
	g := afg.New("chain")
	for _, id := range []string{"A", "B", "C"} {
		if err := g.AddTask(&afg.Task{ID: afg.TaskID(id), Function: "synthetic.noop",
			ComputeCost: 4, OutputBytes: 1 << 10}); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][2]string{{"A", "B"}, {"B", "C"}} {
		if err := g.AddLink(afg.Link{From: afg.TaskID(l[0]), To: afg.TaskID(l[1])}); err != nil {
			t.Fatal(err)
		}
	}
	tbl := tableOn(g, model, "alpha", "a-0")
	trace := ChurnTrace{Straggle: map[string]float64{"a-0": 2.0}}
	for _, name := range Replanners() {
		t.Run(name, func(t *testing.T) {
			out, err := RunChurn(g, tbl, model, net, hosts, trace,
				ChurnConfig{OverrunThreshold: 1.5, Replanner: name})
			if err != nil {
				t.Fatal(err)
			}
			if out.OverrunReplans != 1 || out.Replans != 1 {
				t.Fatalf("replans = %+v, want exactly one overrun re-plan", out)
			}
			if out.HostDownReplans != 0 || out.Killed != 0 {
				t.Fatalf("unexpected failure handling in straggler run: %+v", out)
			}
			// A runs 8s on the straggler; B and C moved to clean machines.
			fair, _ := Simulate(g, tbl, model, net)
			if out.Makespan <= fair {
				t.Fatalf("makespan %v not degraded vs fault-free %v", out.Makespan, fair)
			}
		})
	}
}

// A host failure kills the running task, the re-planner moves it, and the
// run completes on the surviving machines.
func TestChurnHostDownKillsAndReschedules(t *testing.T) {
	hosts, model, net := reschedEnv()
	g := afg.New("single")
	if err := g.AddTask(&afg.Task{ID: "A", Function: "synthetic.noop", ComputeCost: 4}); err != nil {
		t.Fatal(err)
	}
	tbl := tableOn(g, model, "alpha", "a-0")
	trace := ChurnTrace{Events: []ChurnEvent{{At: 2, Host: "a-0", Down: true}}}
	out, err := RunChurn(g, tbl, model, net, hosts, trace, ChurnConfig{Replanner: "eft"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Killed != 1 || out.HostDownReplans != 1 {
		t.Fatalf("outcome = %+v, want one kill and one host-down re-plan", out)
	}
	// A restarts at t=2 on the fast machine a-1 (4/2 = 2s): makespan 4.
	if out.Makespan != 4 { //vdce:ignore floateq exact arithmetic on round inputs pins the restart accounting
		t.Fatalf("makespan = %v, want 4", out.Makespan)
	}
}

// A host failure that kills a parallel task gives back every host the killed
// run held: P (cost 100 on {a-0, a-1}, 50 s each) dies with a-0 at t=10, and
// its re-placed copy may start on a-1 at once instead of at the dead run's
// planned end, t=50. eft and dup keep Q on a-1 behind P (10 + 100/2 + 2/2 =
// 61); heft moves Q off it (60).
func TestChurnKilledParallelTaskFreesLiveHosts(t *testing.T) {
	hosts, model, net := reschedEnv()
	g := afg.New("killed-parallel")
	for _, task := range []*afg.Task{
		{ID: "P", Function: "synthetic.noop", ComputeCost: 100, Mode: afg.Parallel, Processors: 2},
		{ID: "Q", Function: "synthetic.noop", ComputeCost: 2},
	} {
		if err := g.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	tbl := NewAllocationTable(g.Name)
	tbl.Set(Assignment{Task: "P", Site: "alpha", Host: "a-0", Hosts: []string{"a-0", "a-1"},
		Predicted: model(g.Task("P"), "a-0") / 2})
	tbl.Set(Assignment{Task: "Q", Site: "alpha", Host: "a-1", Hosts: []string{"a-1"}, Predicted: model(g.Task("Q"), "a-1")})
	trace := ChurnTrace{Events: []ChurnEvent{{At: 10, Host: "a-0", Down: true}}}
	for name, want := range map[string]float64{"eft": 61, "dup": 61, "heft": 60} {
		out, err := RunChurn(g, tbl, model, net, hosts, trace, ChurnConfig{Replanner: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Killed != 1 || math.Abs(out.Makespan-want) > 1e-9 {
			t.Fatalf("%s: outcome %+v, want one kill and makespan %v", name, out, want)
		}
	}
}

// A promoted duplicate absorbs a second failure: when the re-placed copy's
// host dies too, the dup re-planner's hedge becomes the primary placement.
func TestChurnDuplicatePromoted(t *testing.T) {
	hosts, model, net := reschedEnv()
	g := afg.New("single")
	if err := g.AddTask(&afg.Task{ID: "A", Function: "synthetic.noop", ComputeCost: 4}); err != nil {
		t.Fatal(err)
	}
	tbl := tableOn(g, model, "alpha", "a-0")
	trace := ChurnTrace{Events: []ChurnEvent{
		{At: 2, Host: "a-0", Down: true},
		{At: 3, Host: "a-1", Down: true},
	}}
	out, err := RunChurn(g, tbl, model, net, hosts, trace, ChurnConfig{Replanner: "dup"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Killed != 2 || out.DupRuns != 1 {
		t.Fatalf("outcome = %+v, want two kills and one promoted duplicate", out)
	}
	if out.Makespan <= 4 {
		t.Fatalf("makespan = %v, want > 4 after two failures", out.Makespan)
	}
}

// Fixed seed + fixed config ⇒ bit-identical outcomes, per re-planner.
func TestChurnDeterminism(t *testing.T) {
	hosts, model, net := reschedEnv()
	names := make([]string, len(hosts))
	for i, h := range hosts {
		names[i] = h.Host
	}
	for _, name := range Replanners() {
		t.Run(name, func(t *testing.T) {
			g := layeredDAG(t, 5, 4, 7)
			tbl := tableRoundRobin(g, model, hosts)
			fair, err := Simulate(g, tbl, model, net)
			if err != nil {
				t.Fatal(err)
			}
			trace := GenerateChurnTrace(names, fair, ChurnTraceConfig{
				FailFraction: 0.25, RepairAfter: fair, StraggleFraction: 0.25, StraggleFactor: 2,
			}, 42)
			a, err := RunChurn(g, tbl, model, net, hosts, trace, ChurnConfig{Replanner: name})
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunChurn(g, tbl, model, net, hosts, trace, ChurnConfig{Replanner: name})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("nondeterministic churn outcome:\n%+v\n%+v", a, b)
			}
		})
	}
}

// RunChurn asks its model each (task, host) pair at most once per run,
// across the executor's starts, every re-plan and every certification; a run
// that never deviates asks exactly once per task, as the bare executor does.
func TestRunChurnPricesEachPairOnce(t *testing.T) {
	env, truth, refs, hostNames := churnGoldenEnv(t)
	type pair struct {
		task afg.TaskID
		host string
	}
	for seed := int64(1); seed <= 4; seed++ {
		g := dagen.Random(dagen.Params{Tasks: 50, CCR: 2, Alpha: 1, OutDegree: 4, Beta: 1, Seed: 4000 + seed})
		table, err := runPolicy("heft", &env, g)
		if err != nil {
			t.Fatal(err)
		}
		fair, err := Simulate(g, table, truth, env.Net)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultChurnTrace
		cfg.RepairAfter = 0.15 * fair // repaired hosts rejoin later re-plans
		trace := GenerateChurnTrace(hostNames, fair, cfg, 7000+seed)
		for _, name := range []string{"eft", "heft", "dup"} {
			for _, tr := range []ChurnTrace{trace, {}} {
				asked := map[pair]int{}
				counting := func(task *afg.Task, host string) float64 {
					asked[pair{task.ID, host}]++
					return truth(task, host)
				}
				out, err := RunChurn(g, table, counting, env.Net, refs, tr, ChurnConfig{Replanner: name})
				if err != nil {
					t.Fatalf("%s/seed%d: %v", name, seed, err)
				}
				calls := 0
				for p, n := range asked {
					calls += n
					if n > 1 {
						t.Fatalf("%s/seed%d (%d re-plans): %s priced on %s %d times", name, seed, out.Replans, p.task, p.host, n)
					}
				}
				switch {
				case len(tr.Events) == 0 && calls != g.Len():
					t.Fatalf("%s/seed%d: deviation-free run asked %d prices for %d tasks", name, seed, calls, g.Len())
				case len(tr.Events) > 0 && out.Replans < 2:
					t.Fatalf("%s/seed%d: trace forced %d re-plans, want at least 2", name, seed, out.Replans)
				}
			}
		}
	}
}

func TestGenerateChurnTrace(t *testing.T) {
	names := []string{"h1", "h2", "h3", "h4"}
	a := GenerateChurnTrace(names, 100, DefaultChurnTrace, 1)
	b := GenerateChurnTrace(names, 100, DefaultChurnTrace, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("trace generation not deterministic for a fixed seed")
	}
	for i := 1; i < len(a.Events); i++ {
		if a.Events[i].At < a.Events[i-1].At {
			t.Fatal("events not sorted by time")
		}
	}
	// Even at FailFraction 1 a survivor remains.
	full := GenerateChurnTrace(names, 100, ChurnTraceConfig{FailFraction: 1}, 2)
	failed := map[string]bool{}
	for _, ev := range full.Events {
		if ev.Down {
			failed[ev.Host] = true
		}
	}
	if len(failed) >= len(names) {
		t.Fatalf("no survivor: %d of %d hosts fail", len(failed), len(names))
	}
}

// failingReplanner fails every re-plan with an error that is NOT "no
// eligible host right now".
type failingReplanner struct{}

var errReplannerBroken = errors.New("replanner broken")

func (failingReplanner) Name() string                           { return "test-failing" }
func (failingReplanner) Replan(*ReplanRequest) (*Replan, error) { return nil, errReplannerBroken }

// Only ErrNoEligibleHost is a survivable re-plan failure: anything else —
// a malformed request, a kernel bug — must fail the run, named, instead of
// degrading into a plausible outcome with fewer re-plans.
func TestChurnSurfacesReplannerErrors(t *testing.T) {
	registerForTest(t, failingReplanner{})
	hosts, model, net := reschedEnv()
	g := diamondGraph(t)
	tbl := tableOn(g, model, "alpha", "a-0")
	trace := ChurnTrace{Events: []ChurnEvent{{At: 1, Host: "a-0", Down: true}}}
	_, err := RunChurn(g, tbl, model, net, hosts, trace, ChurnConfig{Replanner: "test-failing"})
	if !errors.Is(err, errReplannerBroken) {
		t.Fatalf("err = %v, want the re-planner's own error", err)
	}
	for _, want := range []string{"test-failing", DeviationHostDown.String()} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}

	// Every host down at once: no eligible host is the documented
	// non-fatal case, and the run proceeds to "stuck", not to a re-plan error.
	var all []ChurnEvent
	for _, h := range hosts {
		all = append(all, ChurnEvent{At: 1, Host: h.Host, Down: true})
	}
	_, err = RunChurn(g, tbl, model, net, hosts, ChurnTrace{Events: all}, ChurnConfig{Replanner: "eft"})
	if err == nil || errors.Is(err, ErrNoEligibleHost) {
		t.Fatalf("err = %v, want the executor's stuck error, not a re-plan failure", err)
	}
}
