// Fault tolerance: hosts fail after the scheduler has placed work on them,
// and the Runtime System recovers on two levels — a whole-frontier re-plan
// through the site's configured re-planner (scheduler.Replanners: full HEFT
// rescan, EFT patching, or duplication) backed by the per-task rescheduling
// request of §2.3.1, then, once a monitoring round has reported the
// failures, schedules that avoid the dead hosts outright ("the machine is
// marked as 'down' ... to prevent further task mappings").
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/internal/core"
	"repro/internal/site"
	"repro/internal/vis"
	"repro/internal/workload"
)

func main() {
	env := core.NewEnvironment(core.Options{
		Seed:       13,
		SiteConfig: site.Config{Replanner: "eft"}, // the frontier re-planner executions run
	})
	m, err := env.AddSite("syracuse", 6)
	if err != nil {
		log.Fatal(err)
	}

	g, err := workload.LinearSolver(nil, 128, 2, false, 0)
	if err != nil {
		log.Fatal(err)
	}

	// Run once on the healthy site.
	res, table, err := env.Submit(context.Background(), "syracuse", g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Healthy run:")
	fmt.Print(vis.ApplicationPerformance(res))

	// Fail the hosts the scheduler liked best — without telling the
	// repository, so the next schedule walks straight into them and the
	// runtime has to recover mid-flight.
	victims := map[string]bool{}
	for _, a := range table.Entries {
		victims[a.Host] = true
	}
	used := make([]string, 0, len(victims))
	for h := range victims {
		used = append(used, h)
	}
	sort.Strings(used)
	if len(used) > 2 {
		used = used[:2] // keep some survivors
	}
	fmt.Println("\nFailing hosts mid-flight:")
	for _, h := range used {
		fmt.Printf("  %s goes down\n", h)
		m.Pool.Get(h).SetDown(true)
	}

	res2, _, err := env.Submit(context.Background(), "syracuse", g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nRun with failures (note the reschedule annotations):")
	fmt.Print(vis.ApplicationPerformance(res2))
	fmt.Printf("\nFrontier re-plans: %d, per-task reschedules: %d — residual still %.3g\n",
		res2.FrontierReplans, res2.Rescheduled, res2.Outputs["check"].Scalar)

	// The monitoring plane catches up: after a Group Manager round the
	// repository knows, and since no prediction outlives a walk, future
	// schedules avoid the dead hosts without any runtime retries.
	// internal/core's TestMonitorRoundExcludesDownHostsFromPlacement pins
	// this as a regression test; the example just demonstrates it.
	env.TickMonitors()
	res3, table3, err := env.Submit(context.Background(), "syracuse", g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAfter a monitoring round: %d reschedules (repository already knew)\n", res3.Rescheduled)
	fmt.Println("Placement now avoids the failed hosts:")
	for _, id := range table3.Order() {
		a := table3.Entries[id]
		if m.Pool.Get(a.Host).IsDown() {
			log.Fatalf("task %s placed on down host %s", id, a.Host)
		}
		fmt.Printf("  %-8s -> %s\n", id, a.Host)
	}
}
