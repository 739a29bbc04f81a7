package experiments

import (
	"fmt"
	"time"

	"repro/internal/afg"
	"repro/internal/scheduler"
	"repro/internal/vis"
)

// mergeForSimulation folds a batch of independently scheduled applications
// into one disjoint-union graph and one allocation table, so a single
// Simulate run charges the cross-application host contention that per-graph
// replays cannot see: two applications that both promised the same fast
// host really do queue on it.
func mergeForSimulation(graphs []*afg.Graph, items []scheduler.BatchItem) (*afg.Graph, *scheduler.AllocationTable, error) {
	merged, err := mergeGraphs(graphs)
	if err != nil {
		return nil, nil, err
	}
	table, err := mergeTables(graphs, items)
	if err != nil {
		return nil, nil, err
	}
	return merged, table, nil
}

// mergeGraphs builds the disjoint-union graph (tasks prefixed per source
// graph). Split from the table merge so harnesses replaying many policies
// over one batch build the union — and its dense index — once.
func mergeGraphs(graphs []*afg.Graph) (*afg.Graph, error) {
	total := 0
	for _, g := range graphs {
		total += g.Len()
	}
	tasks := make([]*afg.Task, 0, total)
	var links []afg.Link
	for gi, g := range graphs {
		prefix := fmt.Sprintf("g%02d/", gi)
		for _, id := range g.TaskIDs() {
			t := g.Task(id).Clone()
			t.ID = afg.TaskID(prefix + string(id))
			tasks = append(tasks, t)
		}
		for _, l := range g.Links() {
			l.From = afg.TaskID(prefix + string(l.From))
			l.To = afg.TaskID(prefix + string(l.To))
			links = append(links, l)
		}
	}
	return afg.Build("combined", tasks, links)
}

// mergeTables folds the batch's per-graph allocation tables onto the
// union graph's prefixed task ids.
func mergeTables(graphs []*afg.Graph, items []scheduler.BatchItem) (*scheduler.AllocationTable, error) {
	total := 0
	for _, g := range graphs {
		total += g.Len()
	}
	table := scheduler.NewAllocationTableSized("combined", total)
	for gi := range graphs {
		if items[gi].Err != nil {
			return nil, fmt.Errorf("graph %d: %w", gi, items[gi].Err)
		}
		prefix := fmt.Sprintf("g%02d/", gi)
		for _, id := range items[gi].Table.Order() {
			a, _ := items[gi].Table.Get(id)
			a.Task = afg.TaskID(prefix + string(id))
			table.Set(a)
		}
	}
	return table, nil
}

// runLedgerPolicy schedules graphs under one site policy against fresh
// (seed-identical) site repositories and returns the combined simulated
// makespan plus the scheduling wall time.
func runLedgerPolicy(seed int64, policy string, graphs []*afg.Graph) (mk, wall float64, err error) {
	p, err := scheduler.Lookup(policy)
	if err != nil {
		return 0, 0, err
	}
	env, repos := scaleEnv(seed, 1)
	// Serial batch for every policy: the ledger path needs it for
	// determinism (each graph sees exactly the reservations of the graphs
	// before it; with concurrent workers the spreading still happens, but
	// the tables depend on completion order), and the others match so the
	// per-policy wall times compare placement modes, not worker counts.
	// The batch itself supplies the "ledger" policy's shared ledger.
	b := &scheduler.Batch{Policy: p, Env: env, Workers: 1}
	t0 := time.Now()
	items := b.Schedule(graphs)
	wall = time.Since(t0).Seconds()

	merged, table, err := mergeForSimulation(graphs, items)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", policy, err)
	}
	mk, err = scheduler.Simulate(merged, table, truthFromRepos(repos), nil)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: simulate: %w", policy, err)
	}
	return mk, wall, nil
}

// AvailabilityScheduling (the ROADMAP's scale direction, round two): the
// SCALE workload — 6×1000-task graphs batched against 32 sites × 4 hosts —
// scored on combined simulated makespan (all applications replayed against
// the same host pool at once) instead of dispatch wall time, across the
// three site policies:
//
//  1. "faithful" — predicted + transfer, every graph scheduled blind to
//     the others (the ledger-free concurrent batch of PR 1);
//  2. "eft" — earliest-finish-time placement, but each graph still walks
//     its own private host timeline, so the batch's graphs queue behind
//     each other on the same attractive hosts;
//  3. "ledger" — earliest-finish-time with one cross-application load
//     ledger threaded through the batch, so each graph spreads around the
//     busy seconds the others already promised.
//
// The claim: EFT recovers most of the intra-application queueing cost the
// faithful objective cannot see (an order of magnitude here), and the
// shared ledger takes the rest — the cross-application dog-pile — for a
// further double-digit percentage.
func AvailabilityScheduling(seed int64) (*Result, error) {
	res := &Result{ID: "LEDGER", Metrics: map[string]float64{}}
	res.Series = vis.Series{
		Title: fmt.Sprintf("Ledger — combined makespan of %d×%d-task apps on %d sites (faithful vs EFT vs shared ledger)",
			scaleGraphs, scaleTasks, scaleSites),
		XLabel:  "config", // 1 = faithful, 2 = EFT no ledger, 3 = EFT shared ledger
		YLabels: []string{"combined_makespan_s", "sched_wall_s"},
	}
	graphs := scaleGraphSet(seed)
	for pi, policy := range []string{"faithful", "eft", "ledger"} {
		mk, wall, err := runLedgerPolicy(seed, policy, graphs)
		if err != nil {
			return nil, fmt.Errorf("ledger: %w", err)
		}
		res.Series.Rows = append(res.Series.Rows, []float64{float64(pi + 1), mk, wall})
		res.Metrics["makespan_"+policy] = mk
	}
	res.Metrics["ledger_over_faithful"] =
		res.Metrics["makespan_faithful"] / res.Metrics["makespan_ledger"]
	res.Metrics["ledger_improvement_pct"] =
		100 * (1 - res.Metrics["makespan_ledger"]/res.Metrics["makespan_eft"])
	return res, nil
}
