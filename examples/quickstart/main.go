// Quickstart: build a two-site VDCE, submit the paper's Linear Equation
// Solver (Fig 3), and print where every task ran.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/vis"
	"repro/internal/workload"
)

func main() {
	// 1. Assemble the environment: two sites, four hosts each, connected
	//    by a simulated WAN (delays compressed 1000x).
	env := core.NewEnvironment(core.Options{Seed: 7})
	for _, site := range []string{"syracuse", "rome"} {
		if _, err := env.AddSite(site, 4); err != nil {
			log.Fatal(err)
		}
	}

	// 2. Build the application flow graph: solve A·x = b via LU
	//    decomposition for a 128×128 system, checked by a residual task.
	g, err := workload.LinearSolver(nil, 128, 1, false, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Application %q: %d tasks, %d links\n", g.Name, g.Len(), len(g.Links()))

	// 3. Submit at the Syracuse site: the Application Scheduler multicasts
	//    the graph, collects host selections, builds the allocation table,
	//    and the Runtime System executes it.
	res, table, err := env.Submit(context.Background(), "syracuse", g)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Inspect the outcome.
	fmt.Println("\nResource allocation table:")
	for _, id := range table.Order() {
		a, _ := table.Get(id)
		fmt.Printf("  %-8s -> %s/%s (predicted %.4gs)\n", id, a.Site, a.Host, a.Predicted)
	}
	fmt.Println()
	fmt.Print(vis.ApplicationPerformance(res))
	fmt.Printf("\nResidual ‖A·x − b‖∞ = %.3g (zero means the answer is right)\n",
		res.Outputs["check"].Scalar)
}
