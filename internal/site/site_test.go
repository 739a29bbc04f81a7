package site

import (
	"context"
	"errors"
	"net/rpc"
	"testing"
	"time"

	"repro/internal/afg"
	"repro/internal/netsim"
	"repro/internal/repository"
	"repro/internal/resource"
	"repro/internal/scheduler"
)

func newTestSite(t testing.TB, name string, hosts int, seed int64) *Manager {
	t.Helper()
	pool := resource.GenerateSite(name, hosts, 4, seed)
	m, err := NewManager(name, pool, netsim.NYNET(0.0001), nil, Config{GroupSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func solverGraph(t *testing.T) *afg.Graph {
	t.Helper()
	g := afg.New("linsolver")
	g.AddTask(&afg.Task{ID: "genA", Function: "matrix.generate", Params: map[string]string{"n": "16", "seed": "1"}, ComputeCost: 0.01, OutputBytes: 2048})
	g.AddTask(&afg.Task{ID: "genB", Function: "matrix.vector", Params: map[string]string{"n": "16", "seed": "2"}, ComputeCost: 0.001, OutputBytes: 128})
	g.AddTask(&afg.Task{ID: "solve", Function: "matrix.solve", ComputeCost: 0.01, OutputBytes: 128})
	g.AddLink(afg.Link{From: "genA", To: "solve", Bytes: 2048})
	g.AddLink(afg.Link{From: "genB", To: "solve", Bytes: 128})
	return g
}

func TestNewManagerRegistersEverything(t *testing.T) {
	m := newTestSite(t, "syracuse", 7, 1)
	if got := len(m.Repo.Resources.List()); got != 7 {
		t.Fatalf("resources = %d", got)
	}
	if got := len(m.Groups); got != 3 { // ceil(7/3)
		t.Fatalf("groups = %d", got)
	}
	if len(m.Repo.Tasks.Functions()) < 15 {
		t.Fatalf("task db not seeded: %v", m.Repo.Tasks.Functions())
	}
	rec, err := m.Repo.Tasks.Get("matrix.lu")
	if err != nil || rec.BaseTime <= 0 {
		t.Fatalf("matrix.lu record = %+v err=%v", rec, err)
	}
}

func TestMonitoringUpdatesRepository(t *testing.T) {
	m := newTestSite(t, "syracuse", 4, 2)
	m.TickMonitors()
	for _, rec := range m.Repo.Resources.List() {
		if rec.Dynamic.UpdatedAt.IsZero() {
			t.Fatalf("host %s never updated", rec.Static.HostName)
		}
	}
}

func TestFailureMarksHostDownInRepo(t *testing.T) {
	m := newTestSite(t, "syracuse", 4, 3)
	victim := m.Pool.Names()[0]
	m.TickMonitors()
	m.Pool.Get(victim).SetDown(true)
	m.TickMonitors()
	rec, err := m.Repo.Resources.Get(victim)
	if err != nil || !rec.Dynamic.Down {
		t.Fatalf("down not recorded: %+v err=%v", rec, err)
	}
	m.Pool.Get(victim).SetDown(false)
	m.TickMonitors()
	rec, _ = m.Repo.Resources.Get(victim)
	if rec.Dynamic.Down {
		t.Fatal("recovery not recorded")
	}
}

func TestAuthenticateViaRepo(t *testing.T) {
	m := newTestSite(t, "syracuse", 2, 4)
	m.Repo.Users.Add(repository.UserAccount{UserName: "haluk", Password: "pw"})
	if _, err := m.Authenticate("haluk", "pw"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Authenticate("haluk", "nope"); err == nil {
		t.Fatal("bad password accepted")
	}
}

func TestExecuteLocalSolver(t *testing.T) {
	m := newTestSite(t, "syracuse", 4, 5)
	m.TickMonitors()
	res, table, err := m.ExecuteLocal(context.Background(), solverGraph(t), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if table.Len() != 3 {
		t.Fatalf("table = %+v", table.Entries())
	}
	if res.Outputs["solve"].Kind != "vector" {
		t.Fatalf("solve output = %+v", res.Outputs["solve"])
	}
	// Measured execution times must land in the task-performance DB.
	rec, err := m.Repo.Tasks.Get("matrix.solve")
	if err != nil || len(rec.History) == 0 {
		t.Fatalf("history not recorded: %+v err=%v", rec, err)
	}
}

func TestExecuteLocalSurvivesHostFailure(t *testing.T) {
	m := newTestSite(t, "syracuse", 4, 6)
	m.TickMonitors()
	// Make the sole survivor look unattractive so the scheduler picks a
	// doomed host first, then fail every other host in the pool — but do
	// not tell the repository: the runtime must discover the failures and
	// reschedule onto the survivor.
	names := m.Pool.Names()
	survivor := names[3]
	m.Repo.Resources.UpdateDynamic(survivor, 50, 1<<30, time.Now())
	for _, n := range names[:3] {
		m.Pool.Get(n).SetDown(true)
	}
	res, _, err := m.ExecuteLocal(context.Background(), solverGraph(t), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.TaskResults {
		if tr.Host != survivor {
			t.Fatalf("task ran on %s, want %s: %+v", tr.Host, survivor, tr)
		}
	}
	if res.Rescheduled == 0 {
		t.Fatal("no rescheduling recorded")
	}
}

func TestReschedulerExcludesHosts(t *testing.T) {
	m := newTestSite(t, "syracuse", 3, 7)
	m.TickMonitors()
	resched := m.Rescheduler()
	names := m.Pool.Names()
	task := &afg.Task{ID: "t", Function: "matrix.lu"}
	a, err := resched(context.Background(), task, names[:2])
	if err != nil {
		t.Fatal(err)
	}
	if a.Host != names[2] {
		t.Fatalf("rescheduled to %s, want %s", a.Host, names[2])
	}
	if _, err := resched(context.Background(), task, names); err == nil {
		t.Fatal("all-hosts-excluded should fail")
	}
}

// TestReschedulerPricesTheTaskLikeThePlan: the repaired task is priced by
// the site's own cost model, so it cannot land on a host the constraint
// database or its machine-type preference rules out, however fast.
func TestReschedulerPricesTheTaskLikeThePlan(t *testing.T) {
	m := newTestSite(t, "syracuse", 4, 7)
	m.TickMonitors()
	resched := m.Rescheduler()
	names := m.Pool.Names()
	only := names[3]
	m.Repo.Resources.UpdateDynamic(only, 40, 1<<30, time.Now()) // the slowest choice by far
	m.Repo.Constraints.SetLocation("matrix.lu", only, "/opt/vdce/lu")
	task := &afg.Task{ID: "t", Function: "matrix.lu"}
	a, err := resched(context.Background(), task, names[:1])
	if err != nil {
		t.Fatal(err)
	}
	want := m.Selector.CostModel()(task, only)
	if a.Host != only || a.Predicted != want { //vdce:ignore floateq the rescheduler must report the cost model's own number
		t.Fatalf("rescheduled to %+v, want %s at %v", a, only, want)
	}
	task.MachineType = "cray"
	if _, err := resched(context.Background(), task, nil); !errors.Is(err, scheduler.ErrNoEligibleHost) {
		t.Fatalf("machine-type mismatch: err = %v", err)
	}
}

func TestRunTrialWeights(t *testing.T) {
	m := newTestSite(t, "syracuse", 4, 8)
	m.RunTrialWeights()
	host := m.Pool.Names()[0]
	w, ok := m.Repo.Tasks.Weight("matrix.lu", host)
	if !ok || w <= 0 {
		t.Fatalf("weight = %v ok=%v", w, ok)
	}
	// Affinity differentiates libraries on the same host.
	h := m.Pool.Get(host)
	if string(h.Spec.Arch) == "sgi" {
		wf, _ := m.Repo.Tasks.Weight("fourier.spectrum", host)
		if wf <= w {
			t.Fatalf("sgi should be relatively better at matrix (%v) than fourier (%v)", w, wf)
		}
	}
}

func TestRPCSelectHosts(t *testing.T) {
	m := newTestSite(t, "rome", 4, 9)
	m.TickMonitors()
	addr, stop, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	remote := NewRemoteSelector("rome", addr)
	defer remote.Close()
	choices, err := remote.SelectHosts(solverGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != 3 {
		t.Fatalf("choices = %+v", choices)
	}
	for id, c := range choices {
		if c.Site != "rome" || c.Host == "" || c.Predicted <= 0 {
			t.Fatalf("choice[%s] = %+v", id, c)
		}
	}
}

// TestStopClosesAcceptedConnections: stop shuts the site down for clients
// that dialled earlier, not only for new ones.
func TestStopClosesAcceptedConnections(t *testing.T) {
	m := newTestSite(t, "rome", 2, 9)
	addr, stop, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := rpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var reply PoliciesReply
	if err := client.Call("Site.Policies", PoliciesArgs{}, &reply); err != nil {
		t.Fatalf("call before stop: %v", err)
	}
	stop()
	select {
	case call := <-client.Go("Site.Policies", PoliciesArgs{}, &reply, nil).Done:
		if call.Error == nil {
			t.Fatal("a stopped site served a client dialled before stop")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("call after stop neither served nor failed inside 2 s")
	}
	if c, err := rpc.Dial("tcp", addr); err == nil {
		c.Close()
		t.Fatal("a stopped site accepted a new connection")
	}
}

func TestRPCDistributedScheduling(t *testing.T) {
	local := newTestSite(t, "syracuse", 3, 10)
	remote := newTestSite(t, "rome", 3, 11)
	local.TickMonitors()
	remote.TickMonitors()
	addr, stop, err := remote.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	rsel := NewRemoteSelector("rome", addr)
	defer rsel.Close()

	table, err := local.SchedulePolicy(context.Background(), "faithful", solverGraph(t), []scheduler.HostSelector{rsel})
	if err != nil {
		t.Fatal(err)
	}
	if table.Len() != 3 {
		t.Fatalf("entries = %d", table.Len())
	}
	// Assignments must reference real hosts of whichever site they chose.
	for _, a := range table.Entries() {
		var pool *resource.Pool
		switch a.Site {
		case "syracuse":
			pool = local.Pool
		case "rome":
			pool = remote.Pool
		default:
			t.Fatalf("unknown site %q", a.Site)
		}
		if pool.Get(a.Host) == nil {
			t.Fatalf("assignment names unknown host %q", a.Host)
		}
	}
}

func TestRPCAuthenticate(t *testing.T) {
	m := newTestSite(t, "syracuse", 2, 12)
	m.Repo.Users.Add(repository.UserAccount{UserName: "u", Password: "p", Priority: 2})
	addr, stop, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	sel := NewRemoteSelector("syracuse", addr)
	defer sel.Close()
	client, err := sel.conn()
	if err != nil {
		t.Fatal(err)
	}
	var reply AuthReply
	if err := client.Call("Site.Authenticate", AuthArgs{User: "u", Password: "p"}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Account.Priority != 2 {
		t.Fatalf("account = %+v", reply.Account)
	}
	if err := client.Call("Site.Authenticate", AuthArgs{User: "u", Password: "x"}, &reply); err == nil {
		t.Fatal("bad password accepted over RPC")
	}
}

func TestRPCSubmit(t *testing.T) {
	m := newTestSite(t, "syracuse", 4, 13)
	m.TickMonitors()
	addr, stop, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	sel := NewRemoteSelector("syracuse", addr)
	defer sel.Close()
	client, err := sel.conn()
	if err != nil {
		t.Fatal(err)
	}
	data, err := solverGraph(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	var reply SubmitReply
	if err := client.Call("Site.Submit", SubmitArgs{AFG: data}, &reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.Table) != 3 {
		t.Fatalf("table = %+v", reply.Table)
	}
	if reply.Outputs["solve"] == "" {
		t.Fatalf("outputs = %+v", reply.Outputs)
	}
	if reply.MakespanSec <= 0 {
		t.Fatalf("makespan = %v", reply.MakespanSec)
	}
}

func TestStartMonitorsRuns(t *testing.T) {
	m := newTestSite(t, "syracuse", 3, 14)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.StartMonitors(ctx, time.Millisecond)
	deadline := time.After(2 * time.Second)
	for {
		updated := true
		for _, rec := range m.Repo.Resources.List() {
			if rec.Dynamic.UpdatedAt.IsZero() {
				updated = false
			}
		}
		if updated {
			return
		}
		select {
		case <-deadline:
			t.Fatal("monitors never updated the repository")
		case <-time.After(2 * time.Millisecond):
		}
	}
}
