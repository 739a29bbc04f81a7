package core

import (
	"bytes"
	"context"
	"sort"
	"testing"

	"repro/internal/runtime"
	"repro/internal/site"
	"repro/internal/tasklib"
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
	for _, a := range table.Entries() {
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
	for id, a := range table2.Entries() {
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
	for _, a := range table.Entries() {
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
	for _, tr := range res.TaskResults {
		id := tr.Task
		if m.Pool.Get(tr.Host) != nil && m.Pool.Get(tr.Host).IsDown() {
			t.Errorf("task %s reported success on down host %s", id, tr.Host)
		}
	}
	if out := res.Output("check"); out.Scalar > 1e-8 {
		t.Errorf("residual after recovery = %v", out.Scalar)
	}
}

// TestFrontierReplanKeepsPeerWork: a two-site plan that keeps work on the
// peer, then a local host down. The local cost model cannot price the
// peer's hosts, so the site's frontier re-planner must price the work the
// table keeps there by the table's own prediction; priced NaN, every
// repair failed certification and only per-task rescheduling moved work.
// The re-plan must run, and the outputs stay the serial evaluation's.
func TestFrontierReplanKeepsPeerWork(t *testing.T) {
	g, err := workload.LinearSolver(nil, 64, 3, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	newEnv := func() *Environment {
		env := NewEnvironment(Options{Seed: 5, SiteConfig: site.Config{Policy: "roundrobin"}})
		for _, s := range []struct {
			name  string
			hosts int
		}{{"syracuse", 5}, {"rome", 3}} {
			if _, err := env.AddSite(s.name, s.hosts); err != nil {
				t.Fatal(err)
			}
		}
		return env
	}
	table, err := newEnv().Schedule(ctx, "syracuse", "roundrobin", g)
	if err != nil {
		t.Fatal(err)
	}
	var victim string
	peerWork := 0
	for _, id := range table.Order() {
		a, _ := table.Get(id)
		switch {
		case a.Site == "rome":
			peerWork++
		case victim == "":
			victim = a.Host
		}
	}
	if peerWork == 0 || victim == "" {
		t.Fatalf("the plan keeps %d tasks on rome and puts none on syracuse (%q): not the case under test", peerWork, victim)
	}
	env := newEnv()
	env.ResolveHost(victim).SetDown(true)
	res, _, err := env.Submit(ctx, "syracuse", g)
	if err != nil {
		t.Fatal(err)
	}
	if res.FrontierReplans < 1 {
		t.Errorf("with %s down and %d tasks on rome: %d frontier re-plans, want at least 1", victim, peerWork, res.FrontierReplans)
	}
	want := serialExits(t, tasklib.Default(), g)
	for id, got := range encodeExits(t, g, runtime.ExitOutputs(g, res)) {
		if !bytes.Equal(got, want[id]) {
			t.Errorf("exit %s differs from the serial evaluation", id)
		}
	}
}
