package runtime

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/afg"
	"repro/internal/dagen"
	"repro/internal/tasklib"
)

// chainGraph builds a chain of n tasks running fn, each feeding the next.
func chainGraph(t *testing.T, n int, fn string) *afg.Graph {
	t.Helper()
	tasks := make([]*afg.Task, n)
	links := make([]afg.Link, 0, n-1)
	for i := range tasks {
		tasks[i] = &afg.Task{ID: afg.TaskID(fmt.Sprintf("c%05d", i)), Function: fn, ComputeCost: 1}
		if i > 0 {
			links = append(links, afg.Link{From: tasks[i-1].ID, To: tasks[i].ID, Bytes: 1})
		}
	}
	g, err := afg.Build("chain", tasks, links)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestChainRunsOneTaskAtATime pins the ready rule: a task starts when its
// last parent delivers, so a chain has one task goroutine at a time however
// long it is, where a goroutine parked per task on its inputs would count
// the whole chain.
func TestChainRunsOneTaskAtATime(t *testing.T) {
	var peak atomic.Int64
	reg := tasklib.NewRegistry()
	if err := reg.Register(tasklib.Spec{Name: "test.goroutines", Fn: func(context.Context, tasklib.Args) (tasklib.Value, error) {
		n := int64(goruntime.NumGoroutine())
		for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
		}
		return tasklib.Value{}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	g := chainGraph(t, 2000, "test.goroutines")
	_, resolve := testCluster(4)
	table := spreadTable(g, []string{"A", "B", "C", "D"})
	res, err := Execute(context.Background(), g, table, Options{Registry: reg, Hosts: resolve})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != g.Len() {
		t.Fatalf("outputs = %d, want %d", len(res.Outputs), g.Len())
	}
	if p := peak.Load(); p > 32 {
		t.Fatalf("peak goroutines = %d over a %d-task chain, want at most 32", p, g.Len())
	}
}

// TestChainRunsOnOneGoroutine: a task that readies one child runs that child
// itself, on its own goroutine, so a chain starts one goroutine however long
// it is instead of one per task.
func TestChainRunsOnOneGoroutine(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	reg := tasklib.NewRegistry()
	if err := reg.Register(tasklib.Spec{Name: "test.goid", Fn: func(context.Context, tasklib.Args) (tasklib.Value, error) {
		// The header of a goroutine's own stack trace is "goroutine N [...]".
		buf := make([]byte, 64)
		id := string(bytes.Fields(buf[:goruntime.Stack(buf, false)])[1])
		mu.Lock()
		seen[id]++
		mu.Unlock()
		return tasklib.Value{}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	g := chainGraph(t, 2000, "test.goid")
	_, resolve := testCluster(4)
	table := spreadTable(g, []string{"A", "B", "C", "D"})
	if _, err := Execute(context.Background(), g, table, Options{Registry: reg, Hosts: resolve}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 {
		t.Fatalf("a %d-task chain ran on %d goroutines, want 1", g.Len(), len(seen))
	}
}

// TestUpstreamFailureLaunchesNoDescendant: a failed head launches none of
// the chain behind it; every task is still accounted, the unlaunched ones
// with the cancellation, and nothing counts as rescheduled.
func TestUpstreamFailureLaunchesNoDescendant(t *testing.T) {
	for _, sockets := range []bool{false, true} {
		t.Run(fmt.Sprintf("sockets=%v", sockets), func(t *testing.T) {
			g := chainGraph(t, 3, "synthetic.noop")
			g.Task("c00000").Function = "no.such.function"
			_, resolve := testCluster(1)
			table := spreadTable(g, []string{"A"})
			res, err := Execute(context.Background(), g, table, Options{Hosts: resolve, UseSockets: sockets})
			if err == nil {
				t.Fatal("expected failure")
			}
			if len(res.TaskResults) != 3 || res.Rescheduled != 0 {
				t.Fatalf("task results = %d, Rescheduled = %d, want 3 and 0", len(res.TaskResults), res.Rescheduled)
			}
			for _, id := range []afg.TaskID{"c00001", "c00002"} {
				if tr := res.TaskResults[id]; !errors.Is(tr.Err, context.Canceled) || tr.Attempts != 0 {
					t.Fatalf("%s = %+v, want never launched", id, tr)
				}
			}
		})
	}
}

// TestHundredThousandNoopTasks is a bounded-time run of a 100k-task
// synthetic.noop graph on 16 hosts: the runtime holds a few slices per task
// and a goroutine per running task, so it finishes in seconds.
func TestHundredThousandNoopTasks(t *testing.T) {
	if testing.Short() || underRace {
		t.Skip("100k-task execution")
	}
	g := dagen.Random(dagen.Params{Tasks: 100_000, CCR: 1, OutDegree: 4, Seed: 1})
	hosts := make([]string, 16)
	for i := range hosts {
		hosts[i] = string(rune('A' + i))
	}
	_, resolve := testCluster(len(hosts))
	table := spreadTable(g, hosts)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	begin := time.Now()
	res, err := Execute(ctx, g, table, Options{Hosts: resolve})
	if err != nil {
		t.Fatalf("after %v: %v", time.Since(begin), err)
	}
	if len(res.Outputs) != g.Len() {
		t.Fatalf("outputs = %d, want %d", len(res.Outputs), g.Len())
	}
	t.Logf("%d tasks in %v", g.Len(), time.Since(begin))
}

var underRace bool // set by race_test.go when the race detector is on
