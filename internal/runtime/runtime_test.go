package runtime

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/afg"
	"repro/internal/datamgr"
	"repro/internal/resource"
	"repro/internal/scheduler"
	"repro/internal/tasklib"
)

// testCluster builds n hosts and a resolver.
func testCluster(n int) (map[string]*resource.Host, func(string) *resource.Host) {
	hosts := map[string]*resource.Host{}
	for i := 0; i < n; i++ {
		name := string(rune('A' + i))
		hosts[name] = resource.NewHost(resource.HostSpec{
			Name: name, Site: "syr", TotalMemory: 1 << 30, SpeedFactor: 1,
		}, resource.LoadModel{}, int64(i))
	}
	return hosts, func(name string) *resource.Host { return hosts[name] }
}

// linSolverGraph builds the paper's Fig 3 linear equation solver AFG.
func linSolverGraph(t *testing.T, n int) *afg.Graph {
	t.Helper()
	g := afg.New("linsolver")
	add := func(id afg.TaskID, fn string, params map[string]string) {
		if err := g.AddTask(&afg.Task{ID: id, Function: fn, Params: params, ComputeCost: 1, OutputBytes: 1 << 10}); err != nil {
			t.Fatal(err)
		}
	}
	ns := map[string]string{"n": itoa(n), "seed": "1"}
	add("genA", "matrix.generate", ns)
	add("genB", "matrix.vector", map[string]string{"n": itoa(n), "seed": "2"})
	add("lu", "matrix.lu", nil)
	add("solve", "matrix.solve", nil)
	add("check", "matrix.residual", nil)
	for _, l := range []afg.Link{
		{From: "genA", To: "lu", Bytes: 1 << 10},
		{From: "lu", To: "solve", Bytes: 1 << 10},
		{From: "genB", To: "solve", Bytes: 1 << 10},
		{From: "genA", To: "check", Bytes: 1 << 10},
		{From: "solve", To: "check", Bytes: 1 << 10},
		{From: "genB", To: "check", Bytes: 1 << 10},
	} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// spreadTable assigns tasks round-robin over hosts.
func spreadTable(g *afg.Graph, hosts []string) *scheduler.AllocationTable {
	table := scheduler.NewAllocationTable(g.Name)
	for i, id := range g.TaskIDs() {
		h := hosts[i%len(hosts)]
		table.Set(scheduler.Assignment{Task: id, Site: "syr", Host: h})
	}
	return table
}

func TestExecuteLinearSolverInMemory(t *testing.T) {
	g := linSolverGraph(t, 24)
	_, resolve := testCluster(3)
	table := spreadTable(g, []string{"A", "B", "C"})
	res, err := Execute(context.Background(), g, table, Options{Hosts: resolve})
	if err != nil {
		t.Fatal(err)
	}
	check := res.Output("check")
	if check.Kind != tasklib.KindScalar || check.Scalar > 1e-8 {
		t.Fatalf("residual = %+v", check)
	}
	if len(res.TaskResults) != 5 {
		t.Fatalf("task results = %d", len(res.TaskResults))
	}
	if res.Rescheduled != 0 {
		t.Fatalf("unexpected rescheduling: %d", res.Rescheduled)
	}
}

func TestExecuteLinearSolverOverSockets(t *testing.T) {
	g := linSolverGraph(t, 16)
	_, resolve := testCluster(3)
	table := spreadTable(g, []string{"A", "B", "C"})
	res, err := Execute(context.Background(), g, table, Options{Hosts: resolve, UseSockets: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output("check").Scalar > 1e-8 {
		t.Fatalf("residual = %v", res.Output("check").Scalar)
	}
}

func TestExecuteValidatesTable(t *testing.T) {
	g := linSolverGraph(t, 8)
	_, resolve := testCluster(1)
	table := scheduler.NewAllocationTable(g.Name) // empty
	if _, err := Execute(context.Background(), g, table, Options{Hosts: resolve}); err == nil {
		t.Fatal("incomplete table accepted")
	}
}

func TestExecuteRequiresHostResolver(t *testing.T) {
	g := linSolverGraph(t, 8)
	table := spreadTable(g, []string{"A"})
	if _, err := Execute(context.Background(), g, table, Options{}); err == nil {
		t.Fatal("nil Hosts accepted")
	}
}

func TestExecuteUnknownHostFails(t *testing.T) {
	g := linSolverGraph(t, 8)
	_, resolve := testCluster(1)
	table := spreadTable(g, []string{"ZZ"})
	_, err := Execute(context.Background(), g, table, Options{Hosts: resolve})
	if !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("err = %v", err)
	}
}

func TestFailedHostTriggersReschedule(t *testing.T) {
	g := linSolverGraph(t, 16)
	hosts, resolve := testCluster(2)
	hosts["A"].SetDown(true) // everything assigned to A must move to B
	table := spreadTable(g, []string{"A"})
	var mu sync.Mutex
	var requests []afg.TaskID
	res, err := Execute(context.Background(), g, table, Options{
		Hosts: resolve,
		Reschedule: func(ctx context.Context, task *afg.Task, exclude []string) (scheduler.Assignment, error) {
			mu.Lock()
			requests = append(requests, task.ID)
			mu.Unlock()
			return scheduler.Assignment{Task: task.ID, Site: "syr", Host: "B"}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rescheduled != 5 {
		t.Fatalf("rescheduled = %d, want 5", res.Rescheduled)
	}
	for _, tr := range res.TaskResults {
		if tr.Host != "B" || tr.Attempts != 2 {
			t.Fatalf("task result = %+v", tr)
		}
	}
	if len(requests) != 5 {
		t.Fatalf("requests = %v", requests)
	}
}

func TestFailedHostWithoutReschedulerFails(t *testing.T) {
	g := linSolverGraph(t, 8)
	hosts, resolve := testCluster(1)
	hosts["A"].SetDown(true)
	table := spreadTable(g, []string{"A"})
	_, err := Execute(context.Background(), g, table, Options{Hosts: resolve})
	if !errors.Is(err, ErrNoReschedule) {
		t.Fatalf("err = %v", err)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	g := afg.New("one")
	g.AddTask(&afg.Task{ID: "t", Function: "synthetic.noop", ComputeCost: 1})
	hosts, resolve := testCluster(2)
	hosts["A"].SetDown(true)
	hosts["B"].SetDown(true)
	table := spreadTable(g, []string{"A"})
	_, err := Execute(context.Background(), g, table, Options{
		Hosts:       resolve,
		MaxAttempts: 2,
		Reschedule: func(ctx context.Context, task *afg.Task, exclude []string) (scheduler.Assignment, error) {
			return scheduler.Assignment{Task: task.ID, Site: "syr", Host: "B"}, nil
		},
	})
	if !errors.Is(err, ErrTooManyRetries) {
		t.Fatalf("err = %v", err)
	}
}

func TestOverloadedHostTriggersReschedule(t *testing.T) {
	g := afg.New("one")
	g.AddTask(&afg.Task{ID: "t", Function: "synthetic.noop", ComputeCost: 1})
	hosts, resolve := testCluster(2)
	// Pile synthetic running tasks onto A to push its load over threshold.
	for i := 0; i < 5; i++ {
		if err := hosts["A"].BeginTask(0); err != nil {
			t.Fatal(err)
		}
	}
	table := spreadTable(g, []string{"A"})
	res, err := Execute(context.Background(), g, table, Options{
		Hosts:         resolve,
		LoadThreshold: 3,
		Reschedule: func(ctx context.Context, task *afg.Task, exclude []string) (scheduler.Assignment, error) {
			return scheduler.Assignment{Task: task.ID, Site: "syr", Host: "B"}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr := res.TaskResult("t"); tr.Host != "B" {
		t.Fatalf("overloaded host not avoided: %+v", tr)
	}
}

func TestTaskErrorAbortsApplication(t *testing.T) {
	g := afg.New("bad")
	g.AddTask(&afg.Task{ID: "gen", Function: "matrix.generate",
		Params: map[string]string{"n": "not-a-number"}, ComputeCost: 1})
	_, resolve := testCluster(1)
	table := spreadTable(g, []string{"A"})
	_, err := Execute(context.Background(), g, table, Options{Hosts: resolve})
	if !errors.Is(err, tasklib.ErrBadParam) {
		t.Fatalf("err = %v", err)
	}
}

func TestDownstreamAbortsWhenUpstreamFails(t *testing.T) {
	g := afg.New("chainfail")
	g.AddTask(&afg.Task{ID: "a", Function: "matrix.generate", Params: map[string]string{"n": "xx"}})
	g.AddTask(&afg.Task{ID: "b", Function: "matrix.lu"})
	g.AddLink(afg.Link{From: "a", To: "b", Bytes: 1})
	_, resolve := testCluster(1)
	table := spreadTable(g, []string{"A"})
	res, err := Execute(context.Background(), g, table, Options{Hosts: resolve})
	if err == nil {
		t.Fatal("expected failure")
	}
	if res == nil || len(res.TaskResults) != 2 {
		t.Fatalf("expected both tasks accounted, got %+v", res)
	}
	if res.Rescheduled != 0 {
		t.Fatalf("Rescheduled = %d, want 0: no task moved", res.Rescheduled)
	}
}

func TestConsoleGatePausesExecution(t *testing.T) {
	gate := datamgr.NewGate()
	gate.Pause()
	g := afg.New("gated")
	g.AddTask(&afg.Task{ID: "t", Function: "synthetic.noop"})
	_, resolve := testCluster(1)
	table := spreadTable(g, []string{"A"})
	done := make(chan *Result, 1)
	go func() {
		res, _ := Execute(context.Background(), g, table, Options{Hosts: resolve, Gate: gate})
		done <- res
	}()
	select {
	case <-done:
		t.Fatal("execution finished while paused")
	case <-time.After(30 * time.Millisecond):
	}
	gate.Resume()
	select {
	case res := <-done:
		if res == nil || res.TaskResult("t").Err != nil {
			t.Fatalf("res = %+v", res)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("resume did not unblock execution")
	}
}

func TestContextCancellation(t *testing.T) {
	g := afg.New("slow")
	g.AddTask(&afg.Task{ID: "t", Function: "synthetic.spin", Params: map[string]string{"work": "100000"}})
	_, resolve := testCluster(1)
	table := spreadTable(g, []string{"A"})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := Execute(ctx, g, table, Options{Hosts: resolve})
	if err == nil {
		t.Fatal("cancellation ignored")
	}
}

func TestParallelTaskMode(t *testing.T) {
	g := afg.New("par")
	g.AddTask(&afg.Task{ID: "genA", Function: "matrix.generate", Params: map[string]string{"n": "64", "seed": "1"}})
	g.AddTask(&afg.Task{ID: "genB", Function: "matrix.generate", Params: map[string]string{"n": "64", "seed": "2"}})
	g.AddTask(&afg.Task{ID: "mult", Function: "matrix.multiply", Mode: afg.Parallel, Processors: 4})
	g.AddLink(afg.Link{From: "genA", To: "mult", Bytes: 1})
	g.AddLink(afg.Link{From: "genB", To: "mult", Bytes: 1})
	_, resolve := testCluster(2)
	table := spreadTable(g, []string{"A", "B"})
	res, err := Execute(context.Background(), g, table, Options{Hosts: resolve})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output("mult").Matrix == nil || res.Output("mult").Matrix.Rows != 64 {
		t.Fatalf("mult output = %+v", res.Output("mult"))
	}
}

func TestOnTaskDoneObserver(t *testing.T) {
	g := linSolverGraph(t, 8)
	_, resolve := testCluster(2)
	table := spreadTable(g, []string{"A", "B"})
	var mu sync.Mutex
	seen := map[afg.TaskID]bool{}
	_, err := Execute(context.Background(), g, table, Options{
		Hosts: resolve,
		OnTaskDone: func(tr TaskResult) {
			mu.Lock()
			seen[tr.Task] = true
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 5 {
		t.Fatalf("observer saw %d tasks", len(seen))
	}
}

func TestExitOutputs(t *testing.T) {
	g := linSolverGraph(t, 8)
	_, resolve := testCluster(1)
	table := spreadTable(g, []string{"A"})
	res, err := Execute(context.Background(), g, table, Options{Hosts: resolve})
	if err != nil {
		t.Fatal(err)
	}
	exits := ExitOutputs(g, res)
	if len(exits) != 1 {
		t.Fatalf("exits = %v", exits)
	}
	if _, ok := exits["check"]; !ok {
		t.Fatal("check output missing")
	}
}

func TestHostAccountingBalanced(t *testing.T) {
	g := linSolverGraph(t, 16)
	hosts, resolve := testCluster(2)
	table := spreadTable(g, []string{"A", "B"})
	if _, err := Execute(context.Background(), g, table, Options{Hosts: resolve}); err != nil {
		t.Fatal(err)
	}
	for name, h := range hosts {
		if h.Load() != 0 {
			t.Fatalf("host %s load leaked: %v", name, h.Load())
		}
		if h.AvailableMemory() != 1<<30 {
			t.Fatalf("host %s memory leaked: %d", name, h.AvailableMemory())
		}
	}
	if hosts["A"].Completed()+hosts["B"].Completed() != 5 {
		t.Fatal("completed-task accounting wrong")
	}
}

// TestFrontierReplanMovesWholeFrontier: when a host is dead, the first
// failing task fires ONE whole-frontier re-plan and every task lands on the
// replacement host without any per-task Reschedule (Options.Reschedule is
// nil, so falling back would fail the run).
func TestFrontierReplanMovesWholeFrontier(t *testing.T) {
	g := linSolverGraph(t, 16)
	hosts, resolve := testCluster(2)
	hosts["A"].SetDown(true)
	table := spreadTable(g, []string{"A"})
	var mu sync.Mutex
	calls := 0
	res, err := Execute(context.Background(), g, table, Options{
		Hosts: resolve,
		FrontierReplan: func(ctx context.Context, g *afg.Graph, table *scheduler.AllocationTable, settled map[afg.TaskID]bool, down []string) (map[afg.TaskID]scheduler.Assignment, error) {
			mu.Lock()
			calls++
			mu.Unlock()
			if len(down) != 1 || down[0] != "A" {
				t.Errorf("down = %q, want [A]", down)
			}
			moved := map[afg.TaskID]scheduler.Assignment{}
			for _, id := range g.TaskIDs() {
				if !settled[id] {
					moved[id] = scheduler.Assignment{Task: id, Site: "syr", Host: "B"}
				}
			}
			return moved, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("frontier re-plan fired %d times, want once per failed host", calls)
	}
	if res.FrontierReplans != 1 {
		t.Fatalf("FrontierReplans = %d", res.FrontierReplans)
	}
	for _, tr := range res.TaskResults {
		id := tr.Task
		if tr.Host != "B" {
			t.Fatalf("task %s ran on %s, want B", id, tr.Host)
		}
	}
}

// TestFrontierRefusalsCounted: a re-planner that refuses every call is told
// about the down host once, its refusal is counted apart from re-plans that
// moved nothing, and the per-task Reschedule still finishes the run.
func TestFrontierRefusalsCounted(t *testing.T) {
	g := linSolverGraph(t, 16)
	hosts, resolve := testCluster(2)
	hosts["A"].SetDown(true)
	table := spreadTable(g, []string{"A"})
	var calls atomic.Int32
	res, err := Execute(context.Background(), g, table, Options{
		Hosts: resolve,
		Reschedule: func(ctx context.Context, task *afg.Task, exclude []string) (scheduler.Assignment, error) {
			return scheduler.Assignment{Task: task.ID, Site: "syr", Host: "B"}, nil
		},
		FrontierReplan: func(context.Context, *afg.Graph, *scheduler.AllocationTable, map[afg.TaskID]bool, []string) (map[afg.TaskID]scheduler.Assignment, error) {
			calls.Add(1)
			return nil, errors.New("cannot certify")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 || res.FrontierRefusals != 1 || res.FrontierReplans != 0 {
		t.Fatalf("re-planner called %d times; FrontierRefusals = %d, FrontierReplans = %d, want 1, 1 and 0",
			calls.Load(), res.FrontierRefusals, res.FrontierReplans)
	}
	if res.Rescheduled == 0 {
		t.Fatal("no task was rescheduled off the down host")
	}
}

// TestDeviationsChannelTriggersReplan: a monitor-reported host failure
// arriving on Options.Deviations re-plans the frontier before any task of
// this application touches the dead host.
func TestDeviationsChannelTriggersReplan(t *testing.T) {
	g := linSolverGraph(t, 16)
	hosts, resolve := testCluster(2)
	table := spreadTable(g, []string{"B"}) // everything planned onto B
	gate := datamgr.NewGate()
	gate.Pause()
	dev := make(chan string, 1)
	done := make(chan struct {
		res *Result
		err error
	}, 1)
	go func() {
		res, err := Execute(context.Background(), g, table, Options{
			Hosts:      resolve,
			Gate:       gate,
			Deviations: dev,
			FrontierReplan: func(ctx context.Context, g *afg.Graph, table *scheduler.AllocationTable, settled map[afg.TaskID]bool, down []string) (map[afg.TaskID]scheduler.Assignment, error) {
				moved := map[afg.TaskID]scheduler.Assignment{}
				for _, id := range g.TaskIDs() {
					if !settled[id] {
						moved[id] = scheduler.Assignment{Task: id, Site: "syr", Host: "A"}
					}
				}
				return moved, nil
			},
		})
		done <- struct {
			res *Result
			err error
		}{res, err}
	}()
	dev <- "B" // monitor reports B down while all tasks wait at the gate
	time.Sleep(50 * time.Millisecond)
	gate.Resume()
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.FrontierReplans != 1 {
		t.Fatalf("FrontierReplans = %d", out.res.FrontierReplans)
	}
	for _, tr := range out.res.TaskResults {
		id := tr.Task
		if tr.Host != "A" {
			t.Fatalf("task %s ran on %s, want A after the deviation", id, tr.Host)
		}
	}
	if hosts["B"].Completed() != 0 {
		t.Fatalf("dead host still ran %d tasks", hosts["B"].Completed())
	}
}

// TestConcurrentHostFailuresShareOneDeadSet: two hosts are dead and tasks
// find one each at the same moment. The stub re-planner avoids only the
// hosts it is told about, so recovery works only if the execution pools
// what every task learnt: re-plans run one at a time, each told every dead
// host any earlier one was, and the per-task fallback excludes them all —
// no task walks onto a sibling's corpse until its retry budget is gone.
func TestConcurrentHostFailuresShareOneDeadSet(t *testing.T) {
	g := afg.New("quad")
	for _, id := range []afg.TaskID{"a", "b", "c", "d"} {
		if err := g.AddTask(&afg.Task{ID: id, Function: "synthetic.noop", ComputeCost: 1}); err != nil {
			t.Fatal(err)
		}
	}
	hosts, resolve := testCluster(3)
	hosts["A"].SetDown(true)
	hosts["B"].SetDown(true)
	table := spreadTable(g, []string{"A", "B"})
	firstNotIn := func(avoid []string) string {
		for _, h := range []string{"A", "B", "C"} {
			if !slices.Contains(avoid, h) {
				return h
			}
		}
		return ""
	}
	var mu sync.Mutex
	var calls [][]string
	inFlight := 0
	res, err := Execute(context.Background(), g, table, Options{
		Hosts:       resolve,
		MaxAttempts: 3,
		FrontierReplan: func(ctx context.Context, g *afg.Graph, table *scheduler.AllocationTable, settled map[afg.TaskID]bool, down []string) (map[afg.TaskID]scheduler.Assignment, error) {
			mu.Lock()
			if inFlight++; inFlight > 1 {
				t.Error("two re-plans ran at once")
			}
			for _, earlier := range calls {
				for _, h := range earlier {
					if !slices.Contains(down, h) {
						t.Errorf("re-plan told %v after an earlier one was told %v", down, earlier)
					}
				}
			}
			calls = append(calls, down)
			mu.Unlock()
			time.Sleep(20 * time.Millisecond) // the other corpse is found meanwhile
			mu.Lock()
			inFlight--
			mu.Unlock()
			moved := map[afg.TaskID]scheduler.Assignment{}
			for _, id := range g.TaskIDs() {
				if !settled[id] {
					moved[id] = scheduler.Assignment{Task: id, Site: "syr", Host: firstNotIn(down)}
				}
			}
			return moved, nil
		},
		Reschedule: func(ctx context.Context, task *afg.Task, exclude []string) (scheduler.Assignment, error) {
			return scheduler.Assignment{Task: task.ID, Site: "syr", Host: firstNotIn(exclude)}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) == 0 || len(calls) > 2 {
		t.Fatalf("re-plan calls = %v, want one per newly learnt host at most", calls)
	}
	for _, tr := range res.TaskResults {
		id := tr.Task
		if tr.Host != "C" {
			t.Fatalf("task %s ran on %s, want the one live host C", id, tr.Host)
		}
	}
}

// TestFullHostIsNotADeadHost: two independent tasks the table put on one
// host whose memory holds only one of them. Each task function blocks until
// both are running, so they must overlap: the one the host refuses is
// rescheduled alone, and the healthy host neither joins the dead set nor
// fires a frontier re-plan.
func TestFullHostIsNotADeadHost(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var running sync.WaitGroup
	running.Add(2)
	bothRunning := make(chan struct{})
	go func() { running.Wait(); close(bothRunning) }()
	reg := tasklib.NewRegistry()
	if err := reg.Register(tasklib.Spec{Name: "test.overlap", Fn: func(ctx context.Context, _ tasklib.Args) (tasklib.Value, error) {
		running.Done()
		select {
		case <-bothRunning:
			return tasklib.Value{}, nil
		case <-ctx.Done():
			return tasklib.Value{}, ctx.Err()
		}
	}}); err != nil {
		t.Fatal(err)
	}

	g := afg.New("full")
	g.AddTask(&afg.Task{ID: "t1", Function: "test.overlap", ComputeCost: 1, MemReq: 600 << 20})
	g.AddTask(&afg.Task{ID: "t2", Function: "test.overlap", ComputeCost: 1, MemReq: 600 << 20})
	_, resolve := testCluster(2) // 1 GiB each
	table := spreadTable(g, []string{"A"})
	res, err := Execute(ctx, g, table, Options{
		Registry: reg,
		Hosts:    resolve,
		Reschedule: func(ctx context.Context, task *afg.Task, exclude []string) (scheduler.Assignment, error) {
			if !slices.Equal(exclude, []string{"A"}) {
				t.Errorf("exclude = %q, want the one full host [A]", exclude)
			}
			return scheduler.Assignment{Task: task.ID, Site: "syr", Host: "B"}, nil
		},
		FrontierReplan: func(context.Context, *afg.Graph, *scheduler.AllocationTable, map[afg.TaskID]bool, []string) (map[afg.TaskID]scheduler.Assignment, error) {
			t.Error("frontier re-plan fired for a host that is only full")
			return nil, errors.New("unexpected")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FrontierReplans != 0 || res.Rescheduled != 1 {
		t.Fatalf("FrontierReplans = %d, Rescheduled = %d, want 0 and 1", res.FrontierReplans, res.Rescheduled)
	}
	on := []string{res.TaskResult("t1").Host, res.TaskResult("t2").Host}
	slices.Sort(on)
	if !slices.Equal(on, []string{"A", "B"}) {
		t.Fatalf("tasks ran on %q, want one on A and the refused one on B", on)
	}
}

// TestNegativeMemoryRequestFailsOnce: a task asking for negative memory is
// refused by its host with a task error, not an overload, so it fails on
// its first dispatch instead of spending its retries.
func TestNegativeMemoryRequestFailsOnce(t *testing.T) {
	g := afg.New("hostile")
	g.AddTask(&afg.Task{ID: "t", Function: "synthetic.noop", ComputeCost: 1, MemReq: -1 << 40})
	hosts, resolve := testCluster(2)
	rescheduled := 0
	res, err := Execute(context.Background(), g, spreadTable(g, []string{"A"}), Options{
		Hosts: resolve,
		Reschedule: func(_ context.Context, task *afg.Task, _ []string) (scheduler.Assignment, error) {
			rescheduled++
			return scheduler.Assignment{Task: task.ID, Site: "syr", Host: "B"}, nil
		},
	})
	if !errors.Is(err, resource.ErrNegativeMemory) {
		t.Fatalf("err = %v, want ErrNegativeMemory", err)
	}
	if tr := res.TaskResult("t"); tr.Attempts != 1 || rescheduled != 0 || res.Rescheduled != 0 {
		t.Fatalf("attempts = %d, reschedules = %d/%d, want one dispatch and none", tr.Attempts, rescheduled, res.Rescheduled)
	}
	if got := hosts["A"].AvailableMemory(); got != 1<<30 {
		t.Fatalf("host A available = %d, want all of it", got)
	}
}
