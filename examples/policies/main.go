// Policies: the pluggable scheduling-policy API. Every scheduling
// heuristic — the paper-faithful Site Scheduler, its earliest-finish-time
// variants, the HEFT and CPOP list heuristics of Topcuoglu et al., and the
// naive baselines — registers under a name and is selected as data:
//
//	p, _ := scheduler.Lookup("heft")
//	table, _ := p.Schedule(ctx, scheduler.NewRequest(g, local, remotes, net))
//
// This example compares five policies selected by name on the
// 6×1000-task / 32-site batch, scored by combined simulated makespan:
// every application replayed against the same host pool at once. The
// paper-faithful objective (predicted + transfer, every application blind
// to the others) dog-piles the fastest machines; earliest-finish placement
// with per-application timelines ("eft") recovers most of that; and one
// shared cross-application load ledger ("ledger") removes the contention
// between applications that no per-application walk can see. It then
// shows the registry's unknown-name error, which lists what IS registered.
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/scheduler"
)

func main() {
	fmt.Printf("registered policies: %v\n\n", scheduler.Policies())

	names := []string{"cpop", "eft", "faithful", "heft", "ledger"} // comparison rows come back sorted
	res, err := experiments.PolicyComparisonFor(1, names)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n\n", res.Series.Title)
	for i, row := range res.Series.Rows {
		fmt.Printf("  %-10s combined makespan %8.1f s   (scheduled in %.2f s)\n",
			names[i], row[1], row[2])
	}
	ledger := res.Metrics["makespan_ledger"]
	fmt.Printf("\n  shared ledger vs faithful batch:  %5.1fx shorter\n",
		res.Metrics["makespan_faithful"]/ledger)
	fmt.Printf("  shared ledger vs private EFT:     %5.1f%% shorter\n",
		100*(1-ledger/res.Metrics["makespan_eft"]))

	if _, err := scheduler.Lookup("my-heuristic"); err != nil {
		fmt.Printf("\nunknown policy error:\n  %v\n", err)
	}
}
