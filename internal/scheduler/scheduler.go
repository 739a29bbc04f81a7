// Package scheduler implements the VDCE Application Scheduler (paper §2.2):
// level-priority list scheduling driven by per-(task, resource) performance
// prediction, with the paper's two built-in algorithms — the Host Selection
// Algorithm (Fig 5) run at every site, and the Site Scheduler Algorithm
// (Fig 4) run at the local site — plus the baseline schedulers used by the
// evaluation benchmarks.
package scheduler

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/afg"
	"repro/internal/predict"
	"repro/internal/repository"
)

// Common errors.
var (
	ErrNoEligibleHost = errors.New("scheduler: no eligible host for task")
	ErrNoSites        = errors.New("scheduler: no sites available")
)

// Assignment maps one task to its execution resources.
type Assignment struct {
	Task      afg.TaskID `json:"task"`
	Site      string     `json:"site"`
	Host      string     `json:"host"`            // primary host
	Hosts     []string   `json:"hosts,omitempty"` // all hosts for parallel tasks
	Predicted float64    `json:"predicted"`       // predicted execution seconds
}

// AllocationTable is the scheduler's output: the resource allocation table
// the Site Manager multicasts to the Group Managers involved in execution.
type AllocationTable struct {
	App     string                    `json:"app"`
	Entries map[afg.TaskID]Assignment `json:"entries"`
	order   []afg.TaskID              // assignment order, for inspection
}

// NewAllocationTable returns an empty table for the named application.
func NewAllocationTable(app string) *AllocationTable {
	return &AllocationTable{App: app, Entries: make(map[afg.TaskID]Assignment)}
}

// NewAllocationTableSized is NewAllocationTable with a capacity hint:
// callers that know the task count up front (dense placement, table
// merges) size the map and order slice once instead of growing them
// assignment by assignment.
func NewAllocationTableSized(app string, n int) *AllocationTable {
	return &AllocationTable{
		App:     app,
		Entries: make(map[afg.TaskID]Assignment, n),
		order:   make([]afg.TaskID, 0, n),
	}
}

// Set records an assignment.
//
//vdce:ignore allocflow the allocation table is the published id-keyed artifact (the JSON wire form the Site Manager multicasts); one probe plus an amortized append per placement committed
func (t *AllocationTable) Set(a Assignment) {
	if _, ok := t.Entries[a.Task]; !ok {
		t.order = append(t.order, a.Task)
	}
	t.Entries[a.Task] = a
}

// Get returns the assignment for a task.
//
//vdce:ignore allocflow id-keyed boundary read; hot consumers (Simulate) resolve the table into dense arrays once up front
func (t *AllocationTable) Get(id afg.TaskID) (Assignment, bool) {
	a, ok := t.Entries[id]
	return a, ok
}

// Order returns task ids in assignment order.
//
//vdce:ignore allocflow defensive copy, one allocation per call; callers take it once per table, not per task
func (t *AllocationTable) Order() []afg.TaskID {
	return append([]afg.TaskID(nil), t.order...)
}

// Sites returns the distinct sites used, sorted.
func (t *AllocationTable) Sites() []string {
	seen := map[string]bool{}
	for _, a := range t.Entries {
		seen[a.Site] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// PerSite extracts the "related portion of the resource allocation table"
// for one site (§2.3.1: the Site Manager multicasts it to Group Managers).
func (t *AllocationTable) PerSite(site string) []Assignment {
	var out []Assignment
	for _, id := range t.order {
		if a := t.Entries[id]; a.Site == site {
			out = append(out, a)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Host Selection Algorithm (paper Fig 5)
// ---------------------------------------------------------------------------

// Choice is a host-selection result for one task at one site.
type Choice struct {
	Site      string   `json:"site"`
	Host      string   `json:"host"`
	Hosts     []string `json:"hosts,omitempty"` // parallel-mode machine set
	Predicted float64  `json:"predicted"`
}

// HostSelector is a site-local scheduling service: given an AFG it returns,
// for every task, the best machine within the site and its predicted
// execution time. The Site Scheduler multicasts the AFG and collects these
// (local call in-process; RPC across real sites via internal/site).
type HostSelector interface {
	SiteName() string
	SelectHosts(g *afg.Graph) (map[afg.TaskID]Choice, error)
}

// LocalSelector implements the Host Selection Algorithm against a site
// repository: it retrieves task-specific parameters from the
// task-performance database, resource-specific parameters from the
// resource-performance database, and assigns each task the resource
// minimising Predict(task, R).
type LocalSelector struct {
	Site string
	Repo *repository.Repository

	// Cache optionally memoizes assembled prediction inputs per
	// (task kind, size, host) so repeated walks skip the task- and
	// resource-database lookups. The owner (site.Manager) invalidates a
	// host's entries whenever a monitor update changes its dynamic state.
	// Cached entries hold the raw recorded load; Forecast composes freely
	// with the cache because it is applied at lookup time, never stored.
	Cache *predict.Cache

	// Forecast optionally maps a host's last recorded load to the load
	// value used in predictions (workload forecasting, §2.2.1). nil uses
	// the recorded value directly. Applied per prediction, after any
	// cache lookup, so stateful forecasters always see fresh calls.
	Forecast func(host string, recorded float64) float64

	// Priority orders the task queue for the Fig 5 walk; nil uses the
	// paper's level rule (ByLevel). Because each assignment bumps its
	// host's queued load, the walk order decides which tasks get the
	// fastest machines — FIFOPriority here is the level-rule ablation.
	Priority PriorityFunc
}

// SiteName implements HostSelector.
func (s *LocalSelector) SiteName() string { return s.Site }

// SelectHosts implements HostSelector (the paper's Fig 5 loop) in the
// paper-faithful mode: each assignment adds one queued-load unit to its
// chosen host(s), so a wide application does not dog-pile the single best
// machine.
func (s *LocalSelector) SelectHosts(g *afg.Graph) (map[afg.TaskID]Choice, error) {
	return s.selectHosts(g, false, nil)
}

// selectHosts is the Fig 5 walk behind SelectHosts. The task queue is
// walked in level-priority order and each assignment updates the walk's own
// view of its chosen host(s): one queued-load unit in the paper-faithful
// mode, or — when avail is set, by the availability-aware site policies —
// an estimated host-free timeline, where each task takes the host(s)
// minimising earliest finish time (free time + predicted execution) and its
// finish pushes those hosts' free times out. A non-nil ledger seeds that
// timeline with the busy seconds other applications have reserved;
// reservations themselves are made by the site-level walk, never here.
//
//vdce:ignore allocflow generic HostSelector form, invoked once per (site, schedule): walk state is host-keyed (sites hold few hosts) and the id-keyed output map is the interface contract — selectHostsDense is the allocation-policed twin
func (s *LocalSelector) selectHosts(g *afg.Graph, avail bool, ledger *LoadLedger) (map[afg.TaskID]Choice, error) {
	// Generation snapshot BEFORE the repository read: a monitor update
	// landing between List() and a Store() bumps the generation past the
	// snapshot, so stale inputs are never cached as current.
	var gens map[string]uint64
	if s.Cache != nil {
		gens = s.Cache.Generations()
	}
	resources := s.Repo.Resources.List()
	levels, err := g.Levels()
	if err != nil {
		return nil, err
	}
	prio := s.Priority
	if prio == nil {
		prio = ByLevel
	}
	queued := make(map[string]float64) // paper mode: placed tasks per host
	freeAt := make(map[string]float64) // availability mode: est host-free times
	if ledger != nil {
		freeAt = ledger.Snapshot()
	}
	out := make(map[afg.TaskID]Choice, g.Len())
	var buf []scored
	// One host-name slab backs every sequential task's committed host set
	// (schedule output): one allocation per walk instead of one per task.
	slab := make([]string, g.Len())
	for _, id := range prio(g.TaskIDs(), levels) {
		task := g.Task(id)
		var choice Choice
		var finish float64
		choice, finish, buf, slab, err = s.selectFor(task, resources, avail, queued, freeAt, gens, buf, slab)
		if err != nil {
			return nil, fmt.Errorf("task %q at site %s: %w", id, s.Site, err)
		}
		for _, h := range choice.Hosts {
			if avail {
				freeAt[h] = finish
			} else {
				queued[h]++
			}
		}
		out[id] = choice
	}
	return out, nil
}

// scored is one candidate of a selectFor evaluation.
type scored struct {
	host string
	pred float64 // predicted execution seconds
	key  float64 // ranking key (finish time in availability mode)
}

// selectFor evaluates Predict(task, R) for every eligible resource and
// returns the minimiser — of the prediction alone in the paper-faithful
// mode, of the earliest finish time (host free time + prediction) in
// availability-aware mode — plus the estimated finish of the choice.
// Parallel tasks select task.Processors machines (the paper's "the host
// selection algorithm is updated to select the number of machines required
// within the site"). buf is a caller-owned scratch slice and slab a
// caller-owned host-name arena for the committed sets, both returned
// (maybe consumed or grown) for reuse across the walk: the steady-state
// sequential walk step allocates nothing at all.
func (s *LocalSelector) selectFor(task *afg.Task, resources []repository.ResourceRecord, avail bool, queued, freeAt map[string]float64, gens map[string]uint64, buf []scored, slab []string) (Choice, float64, []scored, []string, error) {
	cands := buf[:0]
	for _, r := range resources {
		if !s.eligible(task, r) {
			continue
		}
		host := r.Static.HostName
		//vdce:ignore allocflow queued and freeAt are host-keyed walk state (a site's hosts are few); the probes allocate nothing
		pred := s.predictOn(task, r, queued[host], gens)
		key := pred
		if avail {
			//vdce:ignore allocflow host-keyed walk state, one probe per candidate
			key = freeAt[host] + pred
		}
		//vdce:ignore allocflow cands reuses the caller-owned scratch buf: growth amortizes across the walk and the steady state appends in place
		cands = append(cands, scored{host, pred, key})
	}
	if len(cands) == 0 {
		return Choice{}, 0, cands, slab, ErrNoEligibleHost
	}
	n := task.Processors
	if task.Mode != afg.Parallel {
		n = 1
	}
	if n > len(cands) {
		n = len(cands)
	}
	// Partial selection by (key, host): only the n winners matter, so each
	// of the n rounds swaps the minimum of the remainder into place —
	// O(n·C) against the former full insertion sort's O(C²), and n is 1
	// for every sequential task. The (key, host) pair is a strict total
	// order (host names are unique), so the selected prefix and its order
	// are identical to any comparison sort of the whole candidate list.
	for i := 0; i < n; i++ {
		m := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].key < cands[m].key || (cands[j].key == cands[m].key && cands[j].host < cands[m].host) {
				m = j
			}
		}
		cands[i], cands[m] = cands[m], cands[i]
	}
	var hosts []string
	if n == 1 && len(slab) > 0 {
		// Carve the single-host set from the caller's slab: full-capacity
		// reslice, so the committed set can never grow into its neighbour.
		hosts = slab[:1:1]
		slab = slab[1:]
	} else {
		//vdce:ignore allocflow parallel machine sets (and a drained slab) are the rare path; the set is schedule output escaping inside the Choice
		hosts = make([]string, n)
	}
	var maxPred, start float64
	for i := 0; i < n; i++ {
		hosts[i] = cands[i].host
		if cands[i].pred > maxPred {
			maxPred = cands[i].pred
		}
		//vdce:ignore allocflow host-keyed walk state, one probe per selected host
		if f := freeAt[cands[i].host]; f > start {
			start = f
		}
	}
	// Parallel-mode prediction: the slowest selected machine bounds each
	// share; an ideal row split divides the work n ways.
	pred := maxPred / float64(n)
	return Choice{Site: s.Site, Host: hosts[0], Hosts: hosts, Predicted: pred}, start + pred, cands, slab, nil
}

// eligible applies the Fig 5 resource filters: the host is up, matches the
// task's machine-type preference, and passes the constraint database.
func (s *LocalSelector) eligible(task *afg.Task, r repository.ResourceRecord) bool {
	if r.Dynamic.Down {
		return false
	}
	if task.MachineType != "" && r.Static.Arch != task.MachineType {
		return false
	}
	//vdce:ignore allocflow the constraint database is name-keyed by contract (the paper's cut-through checks); one probe per candidate, no allocation
	return s.Repo.Constraints.CanRun(task.Function, r.Static.HostName)
}

// denseHostCosts is the batched per-host cost gather behind the HEFT/CPOP
// cost matrix: for every task, the pure predicted execution seconds on
// every eligible host at this site. One pass over (task × resource) fills a
// contiguous prediction slab — columns are the site's hosts ascending by
// name (the repository's List order), NaN marks ineligible pairs — with no
// per-task map or slice allocation. Unlike SelectHosts it models no
// queueing, because the caller prices contention itself; the Forecast hook
// and prediction cache apply as usual. A task no host can run fails the
// whole site.
func (s *LocalSelector) denseHostCosts(ix *afg.Index) ([]string, []float64, error) {
	var gens map[string]uint64
	if s.Cache != nil {
		gens = s.Cache.Generations()
	}
	//vdce:ignore allocflow resource-list snapshot, one repository read per site walk
	resources := s.Repo.Resources.List() // sorted by host name
	hosts := make([]string, len(resources))
	for k, r := range resources {
		hosts[k] = r.Static.HostName
	}
	v := ix.Len()
	pred := make([]float64, v*len(resources))
	for t := 0; t < v; t++ {
		task := ix.Task(t)
		row := pred[t*len(resources) : (t+1)*len(resources)]
		eligible := 0
		for k, r := range resources {
			if !s.eligible(task, r) {
				row[k] = math.NaN()
				continue
			}
			row[k] = s.predictOn(task, r, 0, gens)
			eligible++
		}
		if eligible == 0 {
			//vdce:ignore allocflow cold failure path: the error aborts the whole site walk
			return nil, nil, fmt.Errorf("task %q at site %s: %w", ix.ID(t), s.Site, ErrNoEligibleHost)
		}
	}
	return hosts, pred, nil
}

// selectHostsDense is the slice-indexed form of selectHosts: the same
// Fig 5 walk, but the priority order comes from dense levels sorted by
// integer index and the result is addressed by dense task index — no
// level map, no id sort, no output map. A selector carrying its own
// Priority rule falls back to the generic walk.
func (s *LocalSelector) selectHostsDense(g *afg.Graph, avail bool, ledger *LoadLedger) ([]Choice, error) {
	ix, err := g.Index()
	if err != nil {
		return nil, err
	}
	if s.Priority != nil {
		m, err := s.selectHosts(g, avail, ledger)
		if err != nil {
			return nil, err
		}
		return denseChoices(ix, m), nil
	}
	var gens map[string]uint64
	if s.Cache != nil {
		gens = s.Cache.Generations()
	}
	resources := s.Repo.Resources.List()
	queued := make(map[string]float64)
	freeAt := make(map[string]float64)
	if ledger != nil {
		freeAt = ledger.Snapshot()
	}
	sc := getScratch()
	defer sc.release()
	out := make([]Choice, ix.Len()) // schedule output
	sc.order = rankOrderDesc(ix.Levels(), nil, sc.order)
	// One host-name slab backs every sequential task's committed host set
	// (schedule output): one allocation per walk instead of one per task.
	slab := make([]string, ix.Len())
	buf := sc.scored
	for _, t := range sc.order {
		task := ix.Task(int(t))
		var choice Choice
		var finish float64
		choice, finish, buf, slab, err = s.selectFor(task, resources, avail, queued, freeAt, gens, buf, slab)
		if err != nil {
			sc.scored = buf
			return nil, fmt.Errorf("task %q at site %s: %w", ix.ID(int(t)), s.Site, err)
		}
		for _, h := range choice.Hosts {
			if avail {
				freeAt[h] = finish
			} else {
				queued[h]++
			}
		}
		out[t] = choice
	}
	sc.scored = buf
	return out, nil
}

// predictOn evaluates the prediction function for one task on one resource;
// queuedLoad is the load contribution of tasks this selector already placed
// on the resource during the current SelectHosts walk. gens is the cache
// generation snapshot taken at walk start (nil when caching is off). The
// cache stores raw recorded loads; Forecast is applied here, per call, so
// memoized entries never bake in a store-time forecast value.
func (s *LocalSelector) predictOn(task *afg.Task, r repository.ResourceRecord, queuedLoad float64, gens map[string]uint64) float64 {
	var in predict.Inputs
	if s.Cache == nil {
		//vdce:ignore allocflow cache-off compatibility mode pays the repository probes per prediction by design; production walks install a Cache
		in = s.assembleInputs(task, r)
	} else {
		key := predict.CacheKey{
			Kind:     task.Function,
			Cost:     task.ComputeCost,
			MemReq:   task.MemReq,
			Resource: r.Static.HostName,
		}
		var ok bool
		//vdce:ignore allocflow the prediction cache is the amortizing boundary: a hit is one struct-keyed probe and no allocation
		in, ok = s.Cache.Lookup(key)
		//vdce:ignore allocflow the miss path assembles and stores once per (task kind, host, generation); every later prediction on the pair hits the cache
		if !ok {
			in = s.assembleInputs(task, r)
			s.Cache.Store(key, in, gens[key.Resource])
		}
	}
	if s.Forecast != nil {
		in.CPULoad = s.Forecast(r.Static.HostName, in.CPULoad)
	}
	in.CPULoad += queuedLoad
	return predict.Seconds(in)
}

// assembleInputs gathers the prediction parameters for one (task, resource)
// pair from the task- and resource-performance databases — the per-pair
// repository work the prediction cache memoizes. The queued-load and
// Forecast terms are deliberately excluded: both are per-evaluation state,
// applied by predictOn after any cache lookup.
func (s *LocalSelector) assembleInputs(task *afg.Task, r repository.ResourceRecord) predict.Inputs {
	base := task.ComputeCost
	memReq := task.MemReq
	weight, haveWeight := s.Repo.Tasks.Weight(task.Function, r.Static.HostName)
	if rec, err := s.Repo.Tasks.Get(task.Function); err == nil {
		if base <= 0 {
			base = rec.BaseTime
		}
		if memReq <= 0 {
			memReq = rec.MemReq
		}
	}
	if base <= 0 {
		base = 1e-6 // unknown task: negligible but positive cost
	}
	if !haveWeight {
		weight = predict.WeightFromSpeed(r.Static.SpeedFactor)
	}
	return predict.Inputs{
		BaseTime: base,
		Weight:   weight,
		MemReq:   memReq,
		MemAvail: r.Dynamic.AvailableMemory,
		CPULoad:  r.Dynamic.Load, // raw recorded load; Forecast applies at lookup
	}
}

// ---------------------------------------------------------------------------
// Priorities
// ---------------------------------------------------------------------------

// ByLevel sorts ready task ids by descending level (the paper's priority:
// "the node with a higher level value will have a higher priority"), with
// id as the deterministic tie-break.
func ByLevel(ids []afg.TaskID, levels map[afg.TaskID]float64) []afg.TaskID {
	out := append([]afg.TaskID(nil), ids...)
	sort.Slice(out, func(i, j int) bool {
		li, lj := levels[out[i]], levels[out[j]]
		if li != lj {
			return li > lj
		}
		return out[i] < out[j]
	})
	return out
}
