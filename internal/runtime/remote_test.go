package runtime

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/afg"
	"repro/internal/datamgr"
	"repro/internal/scheduler"
	"repro/internal/tasklib"
)

// TestRemoteExecPath exercises the cross-site execution hook: hosts the
// resolver does not know are forwarded to RemoteExec with the gathered
// inputs in parent order.
func TestRemoteExecPath(t *testing.T) {
	g := linSolverGraph(t, 16)
	_, resolve := testCluster(1) // only host "A" exists locally
	table := scheduler.NewAllocationTable(g.Name)
	for i, id := range g.TaskIDs() {
		host := "A"
		site := "syr"
		if i%2 == 1 {
			host = "remote-host"
			site = "rome"
		}
		table.Set(scheduler.Assignment{Task: id, Site: site, Host: host})
	}
	reg := tasklib.Default()
	var mu sync.Mutex
	remoteRuns := 0
	res, err := Execute(context.Background(), g, table, Options{
		Hosts: resolve,
		RemoteExec: func(ctx context.Context, assign scheduler.Assignment, task *afg.Task, inputs []tasklib.Value) (tasklib.Value, error) {
			mu.Lock()
			remoteRuns++
			mu.Unlock()
			procs := 1
			if task.Mode == afg.Parallel {
				procs = task.Processors
			}
			return reg.Execute(ctx, task.Function, tasklib.Args{
				Params: task.Params, Inputs: inputs, Processors: procs,
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if remoteRuns == 0 {
		t.Fatal("remote exec never invoked")
	}
	if res.Output("check").Scalar > 1e-8 {
		t.Fatalf("residual = %v", res.Output("check").Scalar)
	}
	for _, tr := range res.TaskResults {
		id := tr.Task
		want, _ := table.Get(id)
		if tr.Host != want.Host || tr.Site != want.Site {
			t.Fatalf("task %s result %+v does not match assignment %+v", id, tr, want)
		}
	}
}

func TestRemoteExecErrorFailsTask(t *testing.T) {
	g := afg.New("one")
	g.AddTask(&afg.Task{ID: "t", Function: "synthetic.noop"})
	_, resolve := testCluster(1)
	table := scheduler.NewAllocationTable(g.Name)
	table.Set(scheduler.Assignment{Task: "t", Site: "rome", Host: "nowhere"})
	boom := errors.New("wire cut")
	_, err := Execute(context.Background(), g, table, Options{
		Hosts: resolve,
		RemoteExec: func(ctx context.Context, a scheduler.Assignment, task *afg.Task, in []tasklib.Value) (tasklib.Value, error) {
			return tasklib.Value{}, boom
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestSocketModeWithFailureRescheduling(t *testing.T) {
	// Sockets + failure + rescheduling together: the communication
	// proxies must keep working when a task moves host.
	g := linSolverGraph(t, 8)
	hosts, resolve := testCluster(2)
	hosts["A"].SetDown(true)
	table := spreadTable(g, []string{"A"})
	res, err := Execute(context.Background(), g, table, Options{
		Hosts:      resolve,
		UseSockets: true,
		Reschedule: func(ctx context.Context, task *afg.Task, exclude []string) (scheduler.Assignment, error) {
			return scheduler.Assignment{Task: task.ID, Site: "syr", Host: "B"}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rescheduled != 5 {
		t.Fatalf("rescheduled = %d", res.Rescheduled)
	}
	if res.Output("check").Scalar > 1e-8 {
		t.Fatalf("residual = %v", res.Output("check").Scalar)
	}
}

func TestConcurrentApplications(t *testing.T) {
	// Several applications share the same host pool concurrently; host
	// accounting must stay balanced and results correct.
	hosts, resolve := testCluster(4)
	const apps = 6
	var wg sync.WaitGroup
	errs := make([]error, apps)
	for i := 0; i < apps; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := linSolverGraph(t, 12)
			table := spreadTable(g, []string{"A", "B", "C", "D"})
			res, err := Execute(context.Background(), g, table, Options{Hosts: resolve})
			if err != nil {
				errs[i] = err
				return
			}
			if res.Output("check").Scalar > 1e-8 {
				errs[i] = errors.New("bad residual")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("app %d: %v", i, err)
		}
	}
	for name, h := range hosts {
		if h.Load() != 0 {
			t.Fatalf("host %s load leaked: %v", name, h.Load())
		}
	}
}

// TestKnownDeadRemoteHostIsNotDispatched: a task still assigned to a host
// the execution knows dead goes to the per-task path without a dispatch.
// Every task is planned onto rome's host R, R is reported dead while they
// wait at the gate, and the re-planner refuses; each task must be moved once,
// to local host A by Reschedule, and R must never be asked to run one.
func TestKnownDeadRemoteHostIsNotDispatched(t *testing.T) {
	g := linSolverGraph(t, 16)
	_, resolve := testCluster(1)
	table := scheduler.NewAllocationTable(g.Name)
	for _, id := range g.TaskIDs() {
		table.Set(scheduler.Assignment{Task: id, Site: "rome", Host: "R"})
	}
	gate := datamgr.NewGate()
	gate.Pause()
	dev := make(chan string, 1)
	refused := make(chan struct{}, 1)
	var remote atomic.Int32
	done := make(chan error, 1)
	var res *Result
	go func() {
		var err error
		res, err = Execute(context.Background(), g, table, Options{
			Hosts:      resolve,
			Gate:       gate,
			Deviations: dev,
			RemoteExec: func(context.Context, scheduler.Assignment, *afg.Task, []tasklib.Value) (tasklib.Value, error) {
				remote.Add(1)
				return tasklib.Value{}, errors.New("rome/R is down")
			},
			FrontierReplan: func(context.Context, *afg.Graph, *scheduler.AllocationTable, map[afg.TaskID]bool, []string) (map[afg.TaskID]scheduler.Assignment, error) {
				select {
				case refused <- struct{}{}:
				default:
				}
				return nil, errors.New("cannot certify")
			},
			Reschedule: func(_ context.Context, task *afg.Task, exclude []string) (scheduler.Assignment, error) {
				return scheduler.Assignment{Task: task.ID, Site: "syr", Host: "A"}, nil
			},
		})
		done <- err
	}()
	dev <- "R"
	<-refused // R is in the dead set before any task passes the gate
	gate.Resume()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := remote.Load(); n != 0 {
		t.Fatalf("%d tasks dispatched to R, known dead", n)
	}
	for _, tr := range res.TaskResults {
		id := tr.Task
		if tr.Host != "A" || tr.Attempts != 2 {
			t.Fatalf("task %s ran on %s, placed %d times; want A, placed twice", id, tr.Host, tr.Attempts)
		}
	}
}
