package core

import (
	"context"
	"sort"
	"testing"

	"repro/internal/workload"
)

// Regression test for the failure mode examples/faulttolerance used to
// expose with a literal "<-- BUG" print: once a monitoring round has
// reported hosts down, a new schedule must never place a task on a down
// host and needs no runtime recovery.
func TestMonitorRoundExcludesDownHostsFromPlacement(t *testing.T) {
	env := NewEnvironment(Options{Seed: 13})
	m, err := env.AddSite("syracuse", 6)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.LinearSolver(nil, 64, 2, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	_, table, err := env.Submit(ctx, "syracuse", g)
	if err != nil {
		t.Fatal(err)
	}

	// Fail the two hosts the scheduler liked best.
	used := map[string]bool{}
	for _, a := range table.Entries {
		used[a.Host] = true
	}
	victims := make([]string, 0, len(used))
	for h := range used {
		victims = append(victims, h)
	}
	sort.Strings(victims)
	if len(victims) > 2 {
		victims = victims[:2]
	}

	for _, h := range victims {
		m.Pool.Get(h).SetDown(true)
	}
	env.TickMonitors() // Fig 6 keep-alive: the repository learns of the failures

	res, table2, err := env.Submit(ctx, "syracuse", g)
	if err != nil {
		t.Fatal(err)
	}
	for id, a := range table2.Entries {
		if m.Pool.Get(a.Host).IsDown() {
			t.Errorf("task %s placed on down host %s after a monitoring round", id, a.Host)
		}
	}
	// The repository already knew, so the run needs no runtime retries.
	if res.Rescheduled != 0 || res.FrontierReplans != 0 {
		t.Errorf("informed schedule still rescheduled: per-task %d, frontier %d",
			res.Rescheduled, res.FrontierReplans)
	}
}

// TestMidFlightFailureRecoversViaFrontierReplan pins the other half of the
// story: hosts dying mid-flight — before any monitoring round — are handled
// by the runtime's frontier re-plan and the application still completes.
func TestMidFlightFailureRecoversViaFrontierReplan(t *testing.T) {
	env := NewEnvironment(Options{Seed: 13})
	m, err := env.AddSite("syracuse", 6)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.LinearSolver(nil, 64, 2, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	_, table, err := env.Submit(ctx, "syracuse", g)
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, a := range table.Entries {
		used[a.Host] = true
	}
	victims := make([]string, 0, len(used))
	for h := range used {
		victims = append(victims, h)
	}
	sort.Strings(victims)
	if len(victims) > 2 {
		victims = victims[:2]
	}
	// Fail them without telling the repository: the next schedule walks
	// straight into the dead hosts and must recover at runtime.
	for _, h := range victims {
		m.Pool.Get(h).SetDown(true)
	}

	res, _, err := env.Submit(ctx, "syracuse", g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rescheduled+res.FrontierReplans == 0 {
		t.Fatal("no rescheduling recorded despite dead hosts in the plan")
	}
	for id, tr := range res.TaskResults {
		if m.Pool.Get(tr.Host) != nil && m.Pool.Get(tr.Host).IsDown() {
			t.Errorf("task %s reported success on down host %s", id, tr.Host)
		}
	}
	if out := res.Outputs["check"]; out.Scalar > 1e-8 {
		t.Errorf("residual after recovery = %v", out.Scalar)
	}
}
