package vis

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/resource"
	"repro/internal/runtime"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

func TestGanttKnownTimeline(t *testing.T) {
	base := time.Unix(1000, 0)
	res := &runtime.Result{
		App: "demo",
		TaskResults: []runtime.TaskResult{
			{Task: "a", Host: "h1", Started: base, Elapsed: 10 * time.Millisecond},
			{Task: "b", Host: "h1", Started: base.Add(10 * time.Millisecond), Elapsed: 10 * time.Millisecond},
			{Task: "c", Host: "h2", Started: base, Elapsed: 20 * time.Millisecond},
		},
	}
	out := Gantt(res, 40)
	if !strings.Contains(out, "h1") || !strings.Contains(out, "h2") {
		t.Fatalf("hosts missing:\n%s", out)
	}
	if !strings.Contains(out, "a = a") || !strings.Contains(out, "b = b") {
		t.Fatalf("legend missing:\n%s", out)
	}
	// h2's single task spans the whole width: no leading/trailing dots.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "h2") {
			if strings.Contains(line, ".") {
				t.Fatalf("h2 row should be fully busy: %q", line)
			}
		}
	}
}

func TestGanttEmptyAndErrored(t *testing.T) {
	out := Gantt(&runtime.Result{App: "x"}, 40)
	if out != "no completed tasks\n" {
		t.Fatalf("out = %q", out)
	}
	res := &runtime.Result{
		App: "y",
		TaskResults: []runtime.TaskResult{
			{Task: "bad", Host: "h", Err: context.Canceled},
		},
	}
	if Gantt(res, 40) != "no completed tasks\n" {
		t.Fatal("errored tasks should not be drawn")
	}
}

func TestGanttFromRealExecution(t *testing.T) {
	g, err := workload.LinearSolver(nil, 32, 1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	hosts := map[string]*resource.Host{
		"h1": resource.NewHost(resource.HostSpec{Name: "h1", TotalMemory: 1 << 30}, resource.LoadModel{}, 1),
		"h2": resource.NewHost(resource.HostSpec{Name: "h2", TotalMemory: 1 << 30}, resource.LoadModel{}, 2),
	}
	table := scheduler.NewAllocationTable(g.Name)
	for i, id := range g.TaskIDs() {
		h := "h1"
		if i%2 == 1 {
			h = "h2"
		}
		table.Set(scheduler.Assignment{Task: id, Site: "s", Host: h})
	}
	res, err := runtime.Execute(context.Background(), g, table, runtime.Options{
		Hosts: func(n string) *resource.Host { return hosts[n] },
	})
	if err != nil {
		t.Fatal(err)
	}
	out := Gantt(res, 60)
	for _, want := range []string{"h1", "h2", "lu", "solve"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}
