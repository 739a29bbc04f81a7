// A C3I (command, control, communication, and information) scenario across
// three VDCE sites: two sensor clusters are fused, the fused tracks are
// correlated for association, and the primary track is scored for threat —
// the application family the paper's C3I task library targets (the Rome
// Laboratory use case). Also demonstrates the workload visualization
// service over the sites' resource-performance databases.
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
	env := core.NewEnvironment(core.Options{Seed: 11})
	for _, site := range []string{"syracuse", "rome", "nyc"} {
		if _, err := env.AddSite(site, 4); err != nil {
			log.Fatal(err)
		}
	}
	// A few monitoring rounds so the repositories hold fresh loads.
	for i := 0; i < 5; i++ {
		env.TickMonitors()
	}

	fmt.Println("Workload visualization (per site):")
	for _, name := range env.Sites() {
		m, err := env.Site(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("-- %s --\n%s", name, vis.Workload(m.Repo.Resources.List()))
	}

	g, err := workload.C3IScenario(nil, 6, 2048, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSubmitting %q (%d tasks) at rome\n\n", g.Name, g.Len())
	res, table, err := env.Submit(context.Background(), "rome", g)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Placement:")
	for _, id := range table.Order() {
		a, _ := table.Get(id)
		fmt.Printf("  %-10s -> %s/%s\n", id, a.Site, a.Host)
	}
	fmt.Println()
	fmt.Print(vis.ApplicationPerformance(res))

	corr := res.Output("correlate").Scalar
	threat := res.Output("threat").Scalar
	fmt.Printf("\nTrack correlation: %.3f  (≈1 ⇒ both clusters see the same target)\n", corr)
	fmt.Printf("Threat score:      %.2f ", threat)
	switch {
	case threat > 3:
		fmt.Println("— HIGH: fast-closing target")
	case threat > 0.5:
		fmt.Println("— elevated")
	default:
		fmt.Println("— nominal")
	}
}
