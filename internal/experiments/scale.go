package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/afg"
	"repro/internal/dagen"
	"repro/internal/repository"
	"repro/internal/scheduler"
	"repro/internal/vis"
)

// Scale-scheduling experiment parameters: well past the paper's testbed
// (which topped out at a handful of sites) and at the floor the scale
// benchmark promises — ≥1000-task graphs against ≥32 sites.
const (
	scaleSites        = 32
	scaleHostsPerSite = 4
	scaleTasks        = 1000
	scaleGraphs       = 6
	scaleKinds        = 12
)

// repoScaleSite builds one site's repository the way a live site.Manager
// leaves it: hosts registered with dynamic load data, trial-run weights for
// the synthetic task, and a tail of measured execution history — the
// record a walk copies once per task kind, not once per (task, host).
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
	for i := 0; i < hosts; i++ {
		host := fmt.Sprintf("%s-%02d", name, i)
		repo.Tasks.SetWeight("synthetic.noop", host, 0.5+rng.Float64())
	}
	return repo
}

// scaleSelectors builds the SCALE workload's multi-site environment: one
// LocalSelector per site over fresh (seed-deterministic) repositories,
// returned with the repositories by site name for truth-model building.
func scaleSelectors(seed int64) (local *scheduler.LocalSelector, remotes []scheduler.HostSelector, repos map[string]*repository.Repository) {
	repos = make(map[string]*repository.Repository, scaleSites)
	selector := func(i int) *scheduler.LocalSelector {
		name := fmt.Sprintf("site%02d", i)
		repos[name] = repoScaleSite(name, scaleHostsPerSite, seed+int64(i))
		return &scheduler.LocalSelector{Site: name, Repo: repos[name]}
	}
	local = selector(0)
	for i := 1; i < scaleSites; i++ {
		remotes = append(remotes, selector(i))
	}
	return local, remotes, repos
}

// scaleEnv assembles the batch environment over the scaleSelectors sites;
// concurrency is the fan-out worker bound (1 = the serial path).
func scaleEnv(seed int64, concurrency int) (scheduler.Request, map[string]*repository.Repository) {
	local, remotes, repos := scaleSelectors(seed)
	env := scheduler.NewRequest(nil, local, remotes, nil, scheduler.WithConcurrency(concurrency))
	return *env, repos
}

func scaleGraphSet(seed int64) []*afg.Graph {
	graphs := make([]*afg.Graph, scaleGraphs)
	for i := range graphs {
		graphs[i] = dagen.Scale(scaleTasks, 25, scaleKinds, seed+int64(i)*101)
	}
	return graphs
}

// tablesMatch reports whether two allocation tables assign every task
// identically, in the same order.
func tablesMatch(a, b *scheduler.AllocationTable) bool {
	ao, bo := a.Order(), b.Order()
	if len(ao) != len(bo) {
		return false
	}
	for i := range ao {
		if ao[i] != bo[i] {
			return false
		}
		x, _ := a.Get(ao[i])
		y, _ := b.Get(bo[i])
		//vdce:ignore floateq bit-identity is the contract: concurrent scheduling must reproduce the serial tables exactly
		if x.Site != y.Site || x.Host != y.Host || x.Predicted != y.Predicted || len(x.Hosts) != len(y.Hosts) {
			return false
		}
		for j := range x.Hosts {
			if x.Hosts[j] != y.Hosts[j] {
				return false
			}
		}
	}
	return true
}

// ScaleScheduling (not a paper figure — the ROADMAP's scale direction):
// dispatch throughput of the Application Scheduler on 6×1000-task graphs
// against 32 sites, serial walk (one site at a time, one graph at a time)
// versus the concurrent subsystem (bounded fan-out across sites, batch
// scheduling of all graphs at once). Both price the same way, so on one
// core the two wall times are close; the merge is deterministic, so both
// paths must produce identical allocation tables — the experiment fails
// loudly if they differ.
func ScaleScheduling(seed int64) (*Result, error) {
	res := &Result{ID: "SCALE", Metrics: map[string]float64{}}
	res.Series = vis.Series{
		Title: fmt.Sprintf("Scale — batch scheduling throughput, %d×%d tasks on %d sites (serial vs concurrent)",
			scaleGraphs, scaleTasks, scaleSites),
		XLabel:  "config", // 1 = serial, 2 = concurrent
		YLabels: []string{"sched_s", "tasks_per_s"},
	}
	graphs := scaleGraphSet(seed)
	totalTasks := 0
	for _, g := range graphs {
		totalTasks += g.Len()
	}

	faithful, err := scheduler.Lookup("faithful")
	if err != nil {
		return nil, err
	}

	// Serial path: fan-out bound 1, one graph at a time.
	serial, _ := scaleEnv(seed, 1)
	t0 := time.Now()
	serialItems := (&scheduler.Batch{Policy: faithful, Env: serial, Workers: 1}).Schedule(graphs)
	serialSec := time.Since(t0).Seconds()

	// Concurrent path: GOMAXPROCS fan-out and batch workers, all graphs in
	// flight against shared site state.
	conc, _ := scaleEnv(seed, 0)
	t1 := time.Now()
	concItems := (&scheduler.Batch{Policy: faithful, Env: conc}).Schedule(graphs)
	concSec := time.Since(t1).Seconds()

	for i := range graphs {
		if serialItems[i].Err != nil {
			return nil, fmt.Errorf("scale: serial graph %d: %w", i, serialItems[i].Err)
		}
		if concItems[i].Err != nil {
			return nil, fmt.Errorf("scale: concurrent graph %d: %w", i, concItems[i].Err)
		}
		if !tablesMatch(serialItems[i].Table, concItems[i].Table) {
			return nil, fmt.Errorf("scale: graph %d: concurrent table diverges from serial", i)
		}
	}

	res.Series.Rows = [][]float64{
		{1, serialSec, float64(totalTasks) / serialSec},
		{2, concSec, float64(totalTasks) / concSec},
	}
	res.Metrics["serial_s"] = serialSec
	res.Metrics["concurrent_s"] = concSec
	res.Metrics["speedup"] = serialSec / concSec
	res.Metrics["tasks_per_s"] = float64(totalTasks) / concSec
	return res, nil
}
