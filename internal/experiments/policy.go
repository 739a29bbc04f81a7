package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/scheduler"
	"repro/internal/vis"
)

// policyWANLatency/policyWANBandwidth shape the star WAN connecting the 32
// sites of the POLICY experiment, so the heuristics' transfer terms (HEFT's
// mean communication costs, the faithful walk's transfer_time) price real
// network distance instead of free communication.
const (
	policyWANLatency  = 5 * time.Millisecond
	policyWANBand     = 1e7 // bytes/second
	policyConfigLabel = "policy#"
)

// PolicyComparison scores every registered scheduling policy on the SCALE
// workload — 6×1000-task graphs batched against 32 sites × 4 hosts over a
// star WAN — by combined simulated makespan: all applications replayed
// against the same host pool at once, so cross-application contention
// counts. One row per policy, in registry (sorted-name) order.
func PolicyComparison(seed int64) (*Result, error) {
	return PolicyComparisonFor(seed, nil)
}

// PolicyComparisonFor is PolicyComparison restricted to the named policies
// (nil = every registered policy). Every policy runs against one shared,
// seed-deterministic environment — policies never mutate the repositories,
// so sharing is observationally identical to the old fresh-per-policy
// rebuild — and one shared cost-matrix cache, so the batched per-(task,
// host) gather happens once per graph across the whole comparison instead
// of once per policy per graph. Scheduling is serial so the ledger
// policy's tables are deterministic and the wall times compare algorithms,
// not worker counts.
func PolicyComparisonFor(seed int64, names []string) (*Result, error) {
	if len(names) == 0 {
		names = scheduler.Policies()
	} else {
		names = append([]string(nil), names...)
		sort.Strings(names)
	}
	res := &Result{ID: "POLICY", Metrics: map[string]float64{}}
	res.Series = vis.Series{
		Title: fmt.Sprintf("Policy comparison — combined makespan of %d×%d-task apps on %d sites (%s)",
			scaleGraphs, scaleTasks, scaleSites, strings.Join(names, ", ")),
		XLabel:  policyConfigLabel,
		YLabels: []string{"combined_makespan_s", "sched_wall_s"},
	}
	graphs := scaleGraphSet(seed)

	local, remotes, repos := scaleSelectors(seed)
	var siteNames []string
	for name := range repos {
		siteNames = append(siteNames, name)
	}
	sort.Strings(siteNames)
	net := netsim.StarTopology(siteNames, policyWANLatency, policyWANBand, 1)
	env := scheduler.Request{Local: local, Remotes: remotes, Net: net,
		Sites: repos,
		Config: scheduler.NewConfig(scheduler.WithSeed(seed),
			scheduler.WithCostCache(scheduler.NewCostCache()))}
	truth := truthFromRepos(repos)
	merged, err := mergeGraphs(graphs)
	if err != nil {
		return nil, err
	}
	// Charge the shared gather work to setup, not to whichever policy
	// happens to run first: PrewarmCosts fills the cost-matrix cache, so
	// the matrix-consuming policies' sched_wall_s column compares
	// algorithms, whatever subset of policies is selected.
	for _, g := range graphs {
		req := env
		req.Graph = g
		if err := req.PrewarmCosts(); err != nil {
			return nil, fmt.Errorf("prewarm costs: %w", err)
		}
	}

	for pi, name := range names {
		p, err := scheduler.Lookup(name)
		if err != nil {
			return nil, err
		}
		// The "ledger" policy gets its batch-wide shared ledger from
		// Batch.Schedule itself — cross-application awareness is its point.
		b := &scheduler.Batch{Policy: p, Env: env, Workers: 1}
		t0 := time.Now()
		items := b.Schedule(graphs)
		wall := time.Since(t0).Seconds()

		table, err := mergeTables(graphs, items)
		if err != nil {
			return nil, fmt.Errorf("policy %s: %w", name, err)
		}
		mk, err := scheduler.Simulate(merged, table, truth, net)
		if err != nil {
			return nil, fmt.Errorf("policy %s: simulate: %w", name, err)
		}
		res.Series.Rows = append(res.Series.Rows, []float64{float64(pi + 1), mk, wall})
		res.Metrics["makespan_"+name] = mk
	}
	if f, ok := res.Metrics["makespan_faithful"]; ok {
		if h, ok := res.Metrics["makespan_heft"]; ok && h > 0 {
			res.Metrics["faithful_over_heft"] = f / h
		}
		if c, ok := res.Metrics["makespan_cpop"]; ok && c > 0 {
			res.Metrics["faithful_over_cpop"] = f / c
		}
	}
	return res, nil
}
