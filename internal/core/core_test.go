package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/resource"
	"repro/internal/scheduler"
	"repro/internal/tasklib"
	"repro/internal/workload"
)

func newEnv(t *testing.T, sites ...string) *Environment {
	t.Helper()
	env := NewEnvironment(Options{Seed: 42})
	for _, s := range sites {
		if _, err := env.AddSite(s, 4); err != nil {
			t.Fatal(err)
		}
	}
	return env
}

func TestAddSiteAndLookup(t *testing.T) {
	env := newEnv(t, "syracuse", "rome")
	if _, err := env.AddSite("syracuse", 2); !errors.Is(err, ErrDuplicateSite) {
		t.Fatalf("err = %v", err)
	}
	if _, err := env.Site("nowhere"); !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("err = %v", err)
	}
	if got := env.Sites(); len(got) != 2 || got[0] != "syracuse" {
		t.Fatalf("sites = %v", got)
	}
	if env.HostCount() != 8 {
		t.Fatalf("hosts = %d", env.HostCount())
	}
	if len(env.SortedHostNames()) != 8 {
		t.Fatal("host names incomplete")
	}
}

func TestWANWiredAutomatically(t *testing.T) {
	env := newEnv(t, "a", "b", "c")
	p := env.Net().Path("a", "b")
	if p.Latency <= 0 || p.Latency >= 100*time.Millisecond {
		t.Fatalf("a-b path = %v", p)
	}
	// c was added last: 10ms to a... distances grow with order.
	if env.Net().Path("c", "a").Latency != 10*time.Millisecond {
		t.Fatalf("c-a = %v", env.Net().Path("c", "a"))
	}
}

func TestSubmitLinearSolverAcrossSites(t *testing.T) {
	env := newEnv(t, "syracuse", "rome")
	g, err := workload.LinearSolver(nil, 32, 1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, table, err := env.Submit(context.Background(), "syracuse", g)
	if err != nil {
		t.Fatal(err)
	}
	if table.Len() != 5 {
		t.Fatalf("table = %d entries", table.Len())
	}
	check := res.Outputs["check"]
	if check.Kind != tasklib.KindScalar || check.Scalar > 1e-8 {
		t.Fatalf("residual = %+v", check)
	}
	for _, a := range table.Entries() {
		if env.ResolveHost(a.Host) == nil {
			t.Fatalf("assignment to unknown host %q", a.Host)
		}
	}
}

func TestSubmitC3IScenario(t *testing.T) {
	env := newEnv(t, "syracuse", "rome", "nyc")
	g, err := workload.C3IScenario(nil, 4, 256, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := env.Submit(context.Background(), "rome", g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs["threat"].Kind != tasklib.KindScalar {
		t.Fatalf("threat output = %+v", res.Outputs["threat"])
	}
}

func TestSubmitUnknownSite(t *testing.T) {
	env := newEnv(t, "syracuse")
	g, _ := workload.LinearSolver(nil, 16, 1, false, 0)
	if _, _, err := env.Submit(context.Background(), "mars", g); !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("err = %v", err)
	}
	if _, err := env.Schedule(context.Background(), "mars", "", g); !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("schedule err = %v", err)
	}
}

func TestSchedulerConstruction(t *testing.T) {
	env := newEnv(t, "syracuse", "rome")
	g := workload.Pipeline(5, 0.1, 1024)
	table, err := env.Schedule(context.Background(), "syracuse", "faithful", g)
	if err != nil {
		t.Fatal(err)
	}
	if table.Len() != 5 {
		t.Fatalf("entries = %d", table.Len())
	}
	mk, err := scheduler.Simulate(g, table, env.TruthModel(), env.Net())
	if err != nil {
		t.Fatal(err)
	}
	if mk <= 0 {
		t.Fatalf("makespan = %v", mk)
	}
}

func TestTruthModelFallsBackForUnknownHost(t *testing.T) {
	env := newEnv(t, "syracuse")
	g := workload.Pipeline(1, 2.5, 0)
	model := env.TruthModel()
	if got := model(g.Task("s000"), "ghost"); got != 2.5 {
		t.Fatalf("fallback = %v", got)
	}
}

// A host name two pools share resolves to the site added first on every
// call, not to whichever site map order reaches first.
func TestResolveHostPrefersFirstSiteOnSharedName(t *testing.T) {
	env := newEnv(t, "a", "b")
	a, _ := env.Site("a")
	b, _ := env.Site("b")
	name := a.Pool.Names()[0]
	want := a.Pool.Get(name)
	if err := b.Pool.Add(resource.NewHost(resource.HostSpec{Name: name, Site: "b"}, resource.LoadModel{}, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if got := env.ResolveHost(name); got != want {
			t.Fatalf("call %d: ResolveHost(%q) = %p (site %s), want site a's %p", i, name, got, got.Spec.Site, want)
		}
	}
}

func TestMonitoringAcrossEnvironment(t *testing.T) {
	env := newEnv(t, "syracuse", "rome")
	env.TickMonitors()
	for _, name := range env.Sites() {
		m, _ := env.Site(name)
		for _, rec := range m.Repo.Resources.List() {
			if rec.Dynamic.UpdatedAt.IsZero() {
				t.Fatalf("site %s host %s never measured", name, rec.Static.HostName)
			}
		}
	}
}

func TestFaultToleranceEndToEnd(t *testing.T) {
	env := newEnv(t, "syracuse")
	m, _ := env.Site("syracuse")
	// Fail half the site after the scheduler has seen it healthy.
	names := m.Pool.Names()
	for _, n := range names[:2] {
		m.Pool.Get(n).SetDown(true)
	}
	g, _ := workload.LinearSolver(nil, 16, 1, false, 0)
	res, _, err := env.Submit(context.Background(), "syracuse", g)
	if err != nil {
		t.Fatalf("execution should survive failures: %v", err)
	}
	for id, tr := range res.TaskResults {
		if tr.Host == names[0] || tr.Host == names[1] {
			t.Fatalf("task %s ran on failed host %s", id, tr.Host)
		}
	}
}
