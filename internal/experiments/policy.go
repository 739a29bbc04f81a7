package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/afg"
	"repro/internal/dagen"
	"repro/internal/netsim"
	"repro/internal/repository"
	"repro/internal/scheduler"
	"repro/internal/vis"
)

// The POLICY batch: well past the paper's testbed (which topped out at a
// handful of sites) — 6 × 1000-task graphs against 32 sites × 4 hosts,
// over a star WAN whose latency and bandwidth the heuristics' transfer
// terms (HEFT's mean communication costs, the faithful walk's
// transfer_time) price as real network distance.
const (
	scaleSites        = 32
	scaleHostsPerSite = 4
	scaleTasks        = 1000
	scaleGraphs       = 6
	scaleKinds        = 12

	policyWANLatency  = 5 * time.Millisecond
	policyWANBand     = 1e7 // bytes/second
	policyConfigLabel = "policy#"
)

// repoScaleSite builds one site's repository the way a live site.Manager
// leaves it: hosts registered with dynamic load data, and a tail of
// measured execution history for the synthetic task — the record a walk
// copies once per task kind, not once per (task, host). It records no
// trial-run weight, so every host is priced with predict.WeightFromSpeed
// (1/SpeedFactor): what a trial run would measure under truthFromRepos,
// which the batch's makespans are replayed under.
func repoScaleSite(name string, hosts int, seed int64) *repository.Repository {
	repo := repoSiteSkewed(name, hosts, 6, seed)
	rec := repository.TaskRecord{Function: "synthetic.noop", BaseTime: 0.5, MemReq: 1 << 20}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 64; i++ {
		rec.History = append(rec.History, repository.ExecutionSample{
			Host:    fmt.Sprintf("%s-%02d", name, rng.Intn(hosts)),
			Elapsed: time.Duration(rng.Intn(1000)) * time.Millisecond,
		})
	}
	repo.Tasks.Put(rec)
	return repo
}

func scaleGraphSet(seed int64) []*afg.Graph {
	graphs := make([]*afg.Graph, scaleGraphs)
	for i := range graphs {
		graphs[i] = dagen.Scale(scaleTasks, 25, scaleKinds, seed+int64(i)*101)
	}
	return graphs
}

// mergeGraphs builds the disjoint-union graph of a batch (tasks prefixed
// per source graph), so a single Simulate run charges the
// cross-application host contention that per-graph replays cannot see:
// two applications that both promised the same fast host really do queue
// on it. Split from the table merge so the union — and its dense index —
// is built once for every policy replayed over the batch.
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

// PolicyComparison scores every registered scheduling policy on the batch
// — 6×1000-task graphs against 32 sites × 4 hosts over a star WAN — by
// combined simulated makespan: all applications replayed against the same
// host pool at once, so cross-application contention counts. One row per
// policy, in registry (sorted-name) order.
//
// The contrasts it exists to show: "faithful" (predicted + transfer, every
// graph blind to the others) dog-piles the fastest hosts; "eft" places by
// earliest finish but on per-graph private timelines, so the batch's
// graphs still queue behind each other; "ledger" threads one
// cross-application load ledger through the batch, so each graph spreads
// around the busy seconds the others already promised.
func PolicyComparison(seed int64) (*Result, error) {
	return PolicyComparisonFor(seed, nil)
}

// PolicyComparisonFor is PolicyComparison restricted to the named policies
// (nil = every registered policy); a name that is not registered or is
// listed twice is refused before anything is scheduled. Every policy runs
// against one shared, seed-deterministic environment (policies never
// mutate the repositories) and one shared cost-matrix cache, so the
// batched per-(task, host) gather happens once per graph across the whole
// comparison instead of once per policy per graph. Scheduling is serial so
// the ledger policy's tables are deterministic and the wall times compare
// algorithms, not worker counts.
func PolicyComparisonFor(seed int64, names []string) (*Result, error) {
	if len(names) == 0 {
		names = scheduler.Policies()
	} else {
		names = append([]string(nil), names...)
		sort.Strings(names)
	}
	policies := make([]scheduler.Policy, len(names))
	for i, name := range names {
		if i > 0 && name == names[i-1] {
			return nil, fmt.Errorf("policy %q named twice", name)
		}
		p, err := scheduler.Lookup(name)
		if err != nil {
			return nil, err
		}
		policies[i] = p
	}
	res := &Result{ID: "POLICY", Metrics: map[string]float64{}}
	res.Series = vis.Series{
		Title: fmt.Sprintf("Policy comparison — combined makespan of %d×%d-task apps on %d sites (%s)",
			scaleGraphs, scaleTasks, scaleSites, strings.Join(names, ", ")),
		XLabel:  policyConfigLabel,
		YLabels: []string{"combined_makespan_s", "sched_wall_s"},
	}
	graphs := scaleGraphSet(seed)

	repos := make(map[string]*repository.Repository, scaleSites)
	siteNames := make([]string, scaleSites)
	selectors := make([]*scheduler.LocalSelector, scaleSites)
	for i := range selectors {
		siteNames[i] = fmt.Sprintf("site%02d", i)
		repos[siteNames[i]] = repoScaleSite(siteNames[i], scaleHostsPerSite, seed+int64(i))
		selectors[i] = &scheduler.LocalSelector{Site: siteNames[i], Repo: repos[siteNames[i]]}
	}
	var remotes []scheduler.HostSelector
	for _, sel := range selectors[1:] {
		remotes = append(remotes, sel)
	}
	net := netsim.StarTopology(siteNames, policyWANLatency, policyWANBand, 1)
	env := scheduler.Request{Local: selectors[0], Remotes: remotes, Net: net,
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
		// The "ledger" policy gets its batch-wide shared ledger from
		// Batch.Schedule itself — cross-application awareness is its point.
		b := &scheduler.Batch{Policy: policies[pi], Env: env, Workers: 1}
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
