// The paper's Fig 3 walkthrough in full: the Linear Equation Solver built
// through the Application Editor's task/link/run modes, executed in both
// computational modes (sequential and parallel LU), and compared with the
// comparative visualization service.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/afg"
	"repro/internal/core"
	"repro/internal/editor"
	"repro/internal/vis"
)

const n = 256

func buildWithEditor(parallelLU bool) (*afg.Graph, error) {
	// Task mode: place tasks from the matrix-operations menu.
	b := editor.New("linear-solver", nil)
	ns := fmt.Sprintf("%d", n)
	type placement struct {
		id     afg.TaskID
		fn     string
		params map[string]string
	}
	for _, p := range []placement{
		{"genA", "matrix.generate", map[string]string{"n": ns, "seed": "1"}},
		{"genB", "matrix.vector", map[string]string{"n": ns, "seed": "2"}},
		{"lu", "matrix.lu", map[string]string{"n": ns}},
		{"solve", "matrix.solve", map[string]string{"n": ns}},
		{"check", "matrix.residual", map[string]string{"n": ns}},
	} {
		if err := b.AddTask(p.id, p.fn, p.params); err != nil {
			return nil, err
		}
	}
	// The pop-up properties panel (paper Fig 3, right): parallel mode on
	// two nodes of Solaris machines.
	if parallelLU {
		if err := b.SetProperties("lu", afg.Parallel, 2, ""); err != nil {
			return nil, err
		}
	}
	// Link mode: draw the dataflow.
	b.SetMode(editor.LinkMode)
	for _, l := range [][2]afg.TaskID{
		{"genA", "lu"}, {"lu", "solve"}, {"genB", "solve"},
		{"genA", "check"}, {"solve", "check"}, {"genB", "check"},
	} {
		if err := b.Connect(l[0], l[1]); err != nil {
			return nil, err
		}
	}
	// Run mode: validate and submit.
	b.SetMode(editor.RunMode)
	return b.Graph()
}

func main() {
	env := core.NewEnvironment(core.Options{Seed: 3})
	if _, err := env.AddSite("syracuse", 4); err != nil {
		log.Fatal(err)
	}

	var runs []vis.ComparativeRun
	for _, cfg := range []struct {
		label    string
		parallel bool
	}{
		{"sequential LU", false},
		{"parallel LU (2 nodes)", true},
	} {
		g, err := buildWithEditor(cfg.parallel)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, _, err := env.Submit(context.Background(), "syracuse", g)
		if err != nil {
			log.Fatal(err)
		}
		runs = append(runs, vis.ComparativeRun{Label: cfg.label, Makespan: time.Since(start)})
		fmt.Printf("%-24s residual %.3g\n", cfg.label, res.Output("check").Scalar)
		fmt.Print(vis.ApplicationPerformance(res))
		fmt.Println()
	}
	fmt.Print(vis.Comparative("linear-solver n=256", runs))
}
