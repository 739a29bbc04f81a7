package vis

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/repository"
	"repro/internal/runtime"
)

func sampleResult() *runtime.Result {
	return &runtime.Result{
		App:      "demo",
		Makespan: 3 * time.Millisecond,
		TaskResults: []runtime.TaskResult{
			{Task: "a", Host: "h1", Site: "syr", Elapsed: 2 * time.Millisecond, Attempts: 1},
			{Task: "b", Host: "h2", Site: "syr", Elapsed: time.Millisecond, Attempts: 2},
			{Task: "c", Host: "h1", Site: "syr", Attempts: 1, Err: errors.New("boom")},
		},
		Rescheduled: 1,
	}
}

func TestApplicationPerformance(t *testing.T) {
	out := ApplicationPerformance(sampleResult())
	for _, want := range []string{"demo", "h1", "h2", "rescheduled ×1", "ERROR: boom", "makespan"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Task order is sorted.
	if strings.Index(out, "\na ") > strings.Index(out, "\nb ") {
		t.Fatalf("tasks unsorted:\n%s", out)
	}
}

func TestApplicationPerformanceCSV(t *testing.T) {
	out := ApplicationPerformanceCSV(sampleResult())
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "task,host,site,elapsed_us,attempts,error" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "a,h1,syr,2000,1,") {
		t.Fatalf("row = %q", lines[1])
	}
	if !strings.Contains(out, "boom") {
		t.Fatal("error column lost")
	}
}

func TestWorkload(t *testing.T) {
	recs := []repository.ResourceRecord{
		{Static: repository.ResourceStatic{HostName: "n1", Arch: "sgi"},
			Dynamic: repository.ResourceDynamic{Load: 1.5, AvailableMemory: 64 << 20}},
		{Static: repository.ResourceStatic{HostName: "n2", Arch: "alpha"},
			Dynamic: repository.ResourceDynamic{Load: 0.2, AvailableMemory: 128 << 20, Down: true}},
	}
	out := Workload(recs)
	for _, want := range []string{"n1", "sgi", "1.50", "DOWN", "64", "128"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestComparative(t *testing.T) {
	runs := []ComparativeRun{
		{Label: "1 host", Makespan: 8 * time.Second},
		{Label: "4 hosts", Makespan: 2 * time.Second},
	}
	out := Comparative("linsolver", runs)
	if !strings.Contains(out, "4.00x") {
		t.Fatalf("speedup missing:\n%s", out)
	}
	if !strings.Contains(out, "1.00x") {
		t.Fatalf("baseline speedup missing:\n%s", out)
	}
	if Comparative("x", nil) != "no runs\n" {
		t.Fatal("empty runs not handled")
	}
}

func TestSeriesRenderAndCSV(t *testing.T) {
	s := Series{
		Title:   "Fig 5 — host selection",
		XLabel:  "hosts",
		YLabels: []string{"vdce", "random"},
		Rows:    [][]float64{{4, 1.5, 3.2}, {8, 1.1, 3.0}},
	}
	out := s.Render()
	if !strings.Contains(out, "Fig 5") || !strings.Contains(out, "random") {
		t.Fatalf("render:\n%s", out)
	}
	csv := s.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "hosts,vdce,random" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if lines[1] != "4,1.5,3.2" {
		t.Fatalf("csv row = %q", lines[1])
	}
}

func TestBarClamping(t *testing.T) {
	if len(bar(2)) != barWidth {
		t.Fatal("bar over 1 should clamp")
	}
	if bar(-1) != strings.Repeat(".", barWidth) {
		t.Fatal("bar under 0 should be empty")
	}
	if bar(1) != strings.Repeat("#", barWidth) {
		t.Fatal("bar at 1 should be full")
	}
}
