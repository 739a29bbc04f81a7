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

// effectiveHosts returns the hosts an assignment occupies: the parallel
// host set when present, else the single primary host.
func effectiveHosts(a Assignment) []string {
	if len(a.Hosts) > 0 {
		return a.Hosts
	}
	return []string{a.Host}
}

// sharesHost reports whether two host sets intersect. Host sets are tiny
// (the paper's parallel tasks span a few workstations), so the quadratic
// scan beats building a map.
func sharesHost(a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
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
func (t *AllocationTable) Set(a Assignment) {
	if _, ok := t.Entries[a.Task]; !ok {
		t.order = append(t.order, a.Task)
	}
	t.Entries[a.Task] = a
}

// Get returns the assignment for a task.
func (t *AllocationTable) Get(id afg.TaskID) (Assignment, bool) {
	a, ok := t.Entries[id]
	return a, ok
}

// Order returns task ids in assignment order.
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

	// Cache optionally counts the walks' pricing work (kind-row cells
	// resolved, predictions priced). Counters only: it never changes what
	// a walk computes.
	Cache *predict.Cache

	// Forecast optionally maps a host's last recorded load to the load
	// value used in predictions (workload forecasting, §2.2.1). nil uses
	// the recorded value directly. Applied per prediction, so stateful
	// forecasters always see fresh calls.
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
func (s *LocalSelector) selectHosts(g *afg.Graph, avail bool, ledger *LoadLedger) (map[afg.TaskID]Choice, error) {
	p := s.newPricing()
	defer p.count()
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
		choice, finish, buf, slab, err = p.selectFor(task, avail, queued, freeAt, buf, slab)
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
func (p *pricing) selectFor(task *afg.Task, avail bool, queued, freeAt map[string]float64, buf []scored, slab []string) (Choice, float64, []scored, []string, error) {
	cands := buf[:0]
	row := p.row(task.Function)
	for k := range p.resources {
		if !p.eligible(task, row, k) {
			continue
		}
		host := p.resources[k].Static.HostName
		pred := p.predictOn(task, row, k, queued[host])
		key := pred
		if avail {
			key = freeAt[host] + pred
		}
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
		hosts = make([]string, n)
	}
	var maxPred, start float64
	for i := 0; i < n; i++ {
		hosts[i] = cands[i].host
		if cands[i].pred > maxPred {
			maxPred = cands[i].pred
		}
		if f := freeAt[cands[i].host]; f > start {
			start = f
		}
	}
	// Parallel-mode prediction: the slowest selected machine bounds each
	// share; an ideal row split divides the work n ways.
	pred := maxPred / float64(n)
	return Choice{Site: p.s.Site, Host: hosts[0], Hosts: hosts, Predicted: pred}, start + pred, cands, slab, nil
}

// denseHostCosts is the batched per-host cost gather behind the HEFT/CPOP
// cost matrix: for every task, the pure predicted execution seconds on
// every eligible host at this site. One pass over (task × resource) fills a
// contiguous prediction slab — columns are the site's hosts ascending by
// name (the repository's List order), NaN marks ineligible pairs — with no
// per-task map or slice allocation. Unlike SelectHosts it models no
// queueing, because the caller prices contention itself; the Forecast hook
// applies as usual. A task no host can run fails the whole site.
func (s *LocalSelector) denseHostCosts(ix *afg.Index) ([]string, []float64, error) {
	p := s.newPricing() // resources sorted by host name
	defer p.count()
	h := len(p.resources)
	hosts := make([]string, h)
	for k := range p.resources {
		hosts[k] = p.resources[k].Static.HostName
	}
	v := ix.Len()
	pred := make([]float64, v*h)
	for t := 0; t < v; t++ {
		task := ix.Task(t)
		kind := p.row(task.Function)
		row := pred[t*h : (t+1)*h]
		eligible := 0
		for k := range row {
			if !p.eligible(task, kind, k) {
				row[k] = math.NaN()
				continue
			}
			row[k] = p.predictOn(task, kind, k, 0)
			eligible++
		}
		if eligible == 0 {
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
	p := s.newPricing()
	defer p.count()
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
		choice, finish, buf, slab, err = p.selectFor(task, avail, queued, freeAt, buf, slab)
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

// kindRow is what one walk knows about one task kind: the
// task-performance database's base time and memory requirement and, per
// column of the walk's resource snapshot, the computing-power weight (the
// trial-run weight, else WeightFromSpeed) and the constraint database's
// verdict. The task contributes its own scalars, the resource record the
// host's dynamic state; everything else a prediction reads is here.
type kindRow struct {
	base   float64 // 0 when the kind is unknown to the task database
	memReq int64
	weight []float64
	canRun []bool
}

// pricing is one walk's view of the site: the resource snapshot it took and
// the kind rows resolved against it so far. It lives for the walk only, so
// nothing outlives the repository state it read and there is nothing to
// invalidate. Not safe for concurrent use.
type pricing struct {
	s         *LocalSelector
	resources []repository.ResourceRecord // sorted by host name
	rows      map[string]*kindRow
	priced    uint64
}

func (s *LocalSelector) newPricing() *pricing {
	resources := s.Repo.Resources.List()
	return &pricing{s: s, resources: resources, rows: make(map[string]*kindRow)}
}

// count adds the walk's totals to the selector's counters, if it has any.
func (p *pricing) count() {
	p.s.Cache.Count(p.priced, uint64(len(p.rows)*len(p.resources)))
}

// row returns the kind's row, resolving it against the repository the
// first time the walk meets the kind: one Tasks.Get and one CanRun per
// resource column.
func (p *pricing) row(kind string) *kindRow {
	if row, ok := p.rows[kind]; ok {
		return row
	}
	rec, _ := p.s.Repo.Tasks.Get(kind) // unknown kind: the zero record, no weights
	row := &kindRow{
		base:   rec.BaseTime,
		memReq: rec.MemReq,
		weight: make([]float64, len(p.resources)),
		canRun: make([]bool, len(p.resources)),
	}
	for k := range p.resources {
		st := &p.resources[k].Static
		w, ok := rec.Weights[st.HostName]
		if !ok {
			w = predict.WeightFromSpeed(st.SpeedFactor)
		}
		row.weight[k] = w
		row.canRun[k] = p.s.Repo.Constraints.CanRun(kind, st.HostName)
	}
	p.rows[kind] = row
	return row
}

// allows applies the filters that do not depend on the host being up: the
// task's machine-type preference and the constraint database.
func (p *pricing) allows(task *afg.Task, row *kindRow, k int) bool {
	return (task.MachineType == "" || p.resources[k].Static.Arch == task.MachineType) && row.canRun[k]
}

// eligible applies the Fig 5 resource filters: the host is up, matches the
// task's machine-type preference, and passes the constraint database.
func (p *pricing) eligible(task *afg.Task, row *kindRow, k int) bool {
	return !p.resources[k].Dynamic.Down && p.allows(task, row, k)
}

// predictOn evaluates the prediction function for one task on resource
// column k; queuedLoad is the load contribution of tasks this walk already
// placed on the resource. The task's own cost and memory requirement win
// over the kind's; Forecast is applied here, per call.
func (p *pricing) predictOn(task *afg.Task, row *kindRow, k int, queuedLoad float64) float64 {
	r := &p.resources[k]
	base, memReq := task.ComputeCost, task.MemReq
	if base <= 0 {
		base = row.base
	}
	if memReq <= 0 {
		memReq = row.memReq
	}
	if base <= 0 {
		base = 1e-6 // unknown task: negligible but positive cost
	}
	load := r.Dynamic.Load
	if p.s.Forecast != nil {
		load = p.s.Forecast(r.Static.HostName, load)
	}
	p.priced++
	return predict.Seconds(predict.Inputs{
		BaseTime: base,
		Weight:   row.weight[k],
		MemReq:   memReq,
		MemAvail: r.Dynamic.AvailableMemory,
		CPULoad:  load + queuedLoad,
	})
}

// CostModel returns the site's prediction as a TimeModel over one
// repository snapshot taken now: NaN for a host the site does not know, a
// machine-type mismatch or a constraint refusal. Down hosts stay priced —
// work already settled on them must still replay under CertifyReplan — so
// callers exclude them from the candidates themselves. The model is for one
// goroutine and one recovery action; take a new one for the next.
func (s *LocalSelector) CostModel() TimeModel {
	p := s.newPricing()
	col := make(map[string]int, len(p.resources))
	for k := range p.resources {
		col[p.resources[k].Static.HostName] = k
	}
	return func(task *afg.Task, host string) float64 {
		k, ok := col[host]
		if !ok {
			return math.NaN()
		}
		row := p.row(task.Function)
		if !p.allows(task, row, k) {
			return math.NaN()
		}
		return p.predictOn(task, row, k, 0)
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
