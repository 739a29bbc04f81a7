package core

import (
	"bytes"
	"cmp"
	"context"
	"maps"
	"slices"
	"testing"

	"repro/internal/afg"
	"repro/internal/scheduler"
	"repro/internal/site"
	"repro/internal/tasklib"
	"repro/internal/workload"
)

// serialExits evaluates g without any scheduler, site or runtime: every task
// in topological order through Registry.Execute, with its inputs in
// input-port order and its own Processors. It returns each exit task's
// output as Value.Encode bytes.
func serialExits(t *testing.T, g *afg.Graph) map[afg.TaskID][]byte {
	t.Helper()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	vals := make(map[afg.TaskID]tasklib.Value, len(order))
	for _, id := range order {
		task := g.Task(id)
		parents := slices.Clone(g.Parents(id))
		slices.SortFunc(parents, func(a, b afg.Link) int { return cmp.Compare(a.Port, b.Port) })
		var inputs []tasklib.Value
		for _, l := range parents {
			inputs = append(inputs, vals[l.From])
		}
		v, err := tasklib.Default().Execute(context.Background(), task.Function,
			tasklib.Args{Params: task.Params, Inputs: inputs, Processors: task.Processors})
		if err != nil {
			t.Fatalf("%s: serial %s: %v", g.Name, id, err)
		}
		vals[id] = v
	}
	return encodeExits(t, g, vals)
}

// encodeExits encodes the exit tasks' values; a missing one is an error.
func encodeExits(t *testing.T, g *afg.Graph, vals map[afg.TaskID]tasklib.Value) map[afg.TaskID][]byte {
	t.Helper()
	out := map[afg.TaskID][]byte{}
	for _, id := range g.Exits() {
		v, ok := vals[id]
		if !ok {
			t.Fatalf("%s: no output for exit task %s", g.Name, id)
		}
		b, err := v.Encode()
		if err != nil {
			t.Fatal(err)
		}
		out[id] = b
	}
	return out
}

// TestExitOutputsMatchSerialEvaluation: what an application computes does
// not depend on how it was run. The Fig 3 linear solver (serial LU, and
// parallel LU on 4 processors), the Fourier pipeline and the C3I scenario
// run on two sites under every registered policy, with the Data Manager in
// memory and over sockets, and with and without one host down before
// execution. Every run's exit outputs must equal, byte for byte, a serial
// evaluation of the graph.
//
// The down host is the one the fault-free run placed its first task on,
// failed in a fresh environment without a monitoring round, so the same
// schedule walks into it and the runtime must move the work. Syracuse keeps
// four live hosts, as many as the parallel LU asks for.
func TestExitOutputsMatchSerialEvaluation(t *testing.T) {
	apps := []struct {
		name  string
		build func() (*afg.Graph, error)
	}{
		{"linsolver", func() (*afg.Graph, error) { return workload.LinearSolver(nil, 64, 3, false, 0) }},
		{"linsolver-par4", func() (*afg.Graph, error) { return workload.LinearSolver(nil, 64, 3, true, 4) }},
		{"fourier", func() (*afg.Graph, error) { return workload.FourierPipeline(nil, 256, 17, 5) }},
		{"c3i", func() (*afg.Graph, error) { return workload.C3IScenario(nil, 3, 128, 7) }},
	}
	ctx := context.Background()
	wants := map[string]map[afg.TaskID][]byte{}
	frontierReplans := 0
	run := func(t *testing.T, g *afg.Graph, cfg site.Config, down string) (map[afg.TaskID][]byte, *scheduler.AllocationTable) {
		t.Helper()
		env := NewEnvironment(Options{Seed: 5, SiteConfig: cfg})
		if _, err := env.AddSite("syracuse", 5); err != nil {
			t.Fatal(err)
		}
		if _, err := env.AddSite("rome", 3); err != nil {
			t.Fatal(err)
		}
		if down != "" {
			h := env.ResolveHost(down)
			if h == nil {
				t.Fatalf("no host %s", down)
			}
			h.SetDown(true)
		}
		res, table, err := env.Submit(ctx, "syracuse", g)
		if err != nil {
			t.Fatalf("down=%q: %v", down, err)
		}
		if down != "" && res.Rescheduled+res.FrontierReplans == 0 {
			t.Errorf("down=%q: the run moved no task off the down host", down)
		}
		frontierReplans += res.FrontierReplans
		return encodeExits(t, g, res.Outputs), table
	}
	for _, app := range apps {
		g, err := app.build()
		if err != nil {
			t.Fatal(err)
		}
		want := serialExits(t, g)
		wants[app.name] = want
		// The parallel LU computes the serial one's bits, so the solver's
		// answer does not depend on its mode either.
		if app.name == "linsolver-par4" && !maps.EqualFunc(want, wants["linsolver"], bytes.Equal) {
			t.Error("linsolver-par4: serial evaluation differs from linsolver's")
		}
		for _, policy := range scheduler.Policies() {
			for _, sockets := range []bool{false, true} {
				cfg := site.Config{Policy: policy, UseSockets: sockets}
				got, table := run(t, g, cfg, "")
				first, _ := table.Get(table.Order()[0])
				victim := first.Host
				gotDown, _ := run(t, g, cfg, victim)
				for id, w := range want {
					if !bytes.Equal(got[id], w) || !bytes.Equal(gotDown[id], w) {
						t.Errorf("%s policy=%s sockets=%v: exit %s differs from the serial evaluation (fault-free equal: %v, with %s down equal: %v)",
							app.name, policy, sockets, id, bytes.Equal(got[id], w), victim, bytes.Equal(gotDown[id], w))
					}
				}
			}
		}
	}
	// Every site runs a frontier re-planner: some recoveries go through it.
	if frontierReplans == 0 {
		t.Error("no run re-planned its frontier around the down host")
	}
}
