package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/afg"
	"repro/internal/monitor"
	"repro/internal/repository"
	"repro/internal/resource"
	"repro/internal/scheduler"
)

// schedule runs the named registered policy on req.
func schedule(policy string, req *scheduler.Request) (*scheduler.AllocationTable, error) {
	p, err := scheduler.Lookup(policy)
	if err != nil {
		return nil, err
	}
	return p.Schedule(context.Background(), req)
}

// runGrid evaluates cell over every run of a seeded grid on a bounded
// worker pool and returns the results in serial cell order. Each worker
// owns the state newWorker builds (a seeded environment), each cell writes
// only its own index, and every input is a pure function of the sweep
// config and the cell — so the slice is byte-identical to a serial run for
// any worker count; on failure the first error in serial cell order is
// returned, also independent of goroutine scheduling. workers = 1 runs in
// the calling goroutine; 0 or negative uses GOMAXPROCS.
func runGrid[W, C any](runs []rankingRun, workers int, newWorker func() W, cell func(W, rankingRun) (C, error)) ([]C, error) {
	cells := make([]C, len(runs))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(runs) {
		workers = len(runs)
	}
	if workers <= 1 {
		w := newWorker()
		for i, r := range runs {
			c, err := cell(w, r)
			if err != nil {
				return nil, err
			}
			cells[i] = c
		}
		return cells, nil
	}
	errs := make([]error, len(runs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newWorker()
			for i := range idx {
				cells[i], errs[i] = cell(w, runs[i])
			}
		}()
	}
	for i := range runs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// blockMeans folds a grid's cells into one series row per (size, CCR)
// block, in rankingGrid order (sizes outer, CCRs inner): the size, the CCR,
// then the mean of each column of vals over the block's perCell
// consecutive cells. Blocks are taken by position, never by comparing axis
// values, so a value listed twice on an axis still yields one well-formed
// row per listing.
func blockMeans[C any](sizes []int, ccrs []float64, perCell int, cells []C, vals func(C) []float64) [][]float64 {
	rows := make([][]float64, 0, len(sizes)*len(ccrs))
	for _, size := range sizes {
		for _, ccr := range ccrs {
			block := cells[len(rows)*perCell : (len(rows)+1)*perCell]
			sums := make([]float64, len(vals(block[0])))
			for _, c := range block {
				for p, v := range vals(c) {
					sums[p] += v
				}
			}
			row := []float64{float64(size), ccr}
			for _, s := range sums {
				row = append(row, s/float64(perCell))
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// repoSite builds a repository for a homogeneous-speed site with uniform
// random loads in [0, loadMax).
func repoSite(name string, hosts int, speed, loadMax float64, seed int64) *repository.Repository {
	repo := repository.New()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < hosts; i++ {
		host := fmt.Sprintf("%s-%02d", name, i)
		repo.Resources.Register(repository.ResourceStatic{
			HostName: host, Site: name, Arch: "solaris",
			TotalMemory: 1 << 30, SpeedFactor: speed,
		})
		repo.Resources.UpdateDynamic(host, rng.Float64()*loadMax, 1<<30, time.Now())
	}
	return repo
}

// repoSiteSpeeds builds a site with explicit per-host speed factors and
// idle loads (fully deterministic — used by the Fig 4 experiment).
func repoSiteSpeeds(name string, speeds []float64) *repository.Repository {
	repo := repository.New()
	for i, sp := range speeds {
		host := fmt.Sprintf("%s-%02d", name, i)
		repo.Resources.Register(repository.ResourceStatic{
			HostName: host, Site: name, Arch: "solaris",
			TotalMemory: 1 << 30, SpeedFactor: sp,
		})
		repo.Resources.UpdateDynamic(host, 0, 1<<30, time.Now())
	}
	return repo
}

// repoSiteSkewed builds a heterogeneous site with speed spread and a heavy
// load skew: half the hosts idle, half heavily loaded.
func repoSiteSkewed(name string, hosts int, spread float64, seed int64) *repository.Repository {
	repo := repository.New()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < hosts; i++ {
		host := fmt.Sprintf("%s-%02d", name, i)
		speed := 1 + rng.Float64()*(spread-1)
		repo.Resources.Register(repository.ResourceStatic{
			HostName: host, Site: name, Arch: "solaris",
			TotalMemory: 1 << 30, SpeedFactor: speed,
		})
		load := rng.Float64() * 0.3
		if i%2 == 1 {
			load = 2 + rng.Float64()*3
		}
		repo.Resources.UpdateDynamic(host, load, 1<<30, time.Now())
	}
	return repo
}

// truthFromRepos builds the ground-truth time model directly from the
// repositories' recorded speeds/loads (the repositories ARE the truth in
// these closed-world experiments).
func truthFromRepos(sites map[string]*repository.Repository) scheduler.TimeModel {
	specs := map[string]repository.ResourceRecord{}
	// Sorted site order: duplicate host names across repositories resolve
	// by last write, which must not depend on map iteration order.
	names := make([]string, 0, len(sites))
	for name := range sites {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, rec := range sites[name].Resources.List() {
			specs[rec.Static.HostName] = rec
		}
	}
	return func(task *afg.Task, host string) float64 {
		rec, ok := specs[host]
		if !ok {
			return task.ComputeCost
		}
		return task.ComputeCost / rec.Static.SpeedFactor * (1 + rec.Dynamic.Load)
	}
}

// independentTasks builds a graph of n unconnected tasks (pure placement
// benchmark: no precedence effects).
func independentTasks(n int, maxCost float64, seed int64) *afg.Graph {
	rng := rand.New(rand.NewSource(seed))
	name := fmt.Sprintf("independent-%d", n)
	tasks := make([]*afg.Task, n)
	for i := range tasks {
		tasks[i] = &afg.Task{
			ID:          afg.TaskID(fmt.Sprintf("t%03d", i)),
			Function:    "synthetic.noop",
			ComputeCost: 0.2 + rng.Float64()*maxCost,
		}
	}
	g, err := afg.Build(name, tasks, nil)
	if err != nil { // ids are the generator's own: a refusal is a bug here
		panic(fmt.Sprintf("experiments: %s: %v", name, err))
	}
	return g
}

// genHosts builds n hosts; the first busyFrac×n are volatile shared
// machines, the rest are idle workstations with constant load.
func genHosts(n int, busyFrac float64, seed int64) []*resource.Host {
	busy := int(busyFrac*float64(n) + 0.5)
	var out []*resource.Host
	for i := 0; i < n; i++ {
		model := resource.LoadModel{Baseline: 0.05, Volatility: 0, Rho: 0.9}
		if i < busy {
			model = resource.LoadModel{Baseline: 0.6, Volatility: 0.3, Rho: 0.6}
		}
		out = append(out, resource.NewHost(
			resource.HostSpec{Name: fmt.Sprintf("h%02d", i), Site: "syr", TotalMemory: 1 << 30},
			model, seed+int64(i)))
	}
	return out
}

// countingSink tallies Group Manager output.
type countingSink struct {
	updates int
	downs   int
	ups     int
}

func (s *countingSink) UpdateWorkload(monitor.Measurement) { s.updates++ }
func (s *countingSink) HostDown(string, time.Time)         { s.downs++ }
func (s *countingSink) HostUp(string, time.Time)           { s.ups++ }

// runMonitorRounds runs 100 monitoring rounds over 32 hosts (busyFrac of
// them volatile) and returns the number of forwarded updates.
func runMonitorRounds(busyFrac float64, disableFilter bool, seed int64) int {
	hosts := genHosts(32, busyFrac, seed)
	cfg := monitor.DefaultConfig
	cfg.DisableFilter = disableFilter
	sink := &countingSink{}
	gm := monitor.NewGroupManager("g", "syr", hosts, sink, cfg, nil)
	for r := 0; r < 100; r++ {
		gm.Tick()
	}
	return gm.Stats().Forwarded
}
