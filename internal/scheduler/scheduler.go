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
}

// SiteName implements HostSelector.
func (s *LocalSelector) SiteName() string { return s.Site }

// SelectHosts implements HostSelector (the paper's Fig 5 loop) in the
// paper-faithful mode and level order: each assignment adds one queued-load
// unit to its chosen host(s), so a wide application does not dog-pile the
// single best machine. The id-keyed map is the interface's and the RPC
// reply's form of the dense walk's answer.
func (s *LocalSelector) SelectHosts(g *afg.Graph) (map[afg.TaskID]Choice, error) {
	ix, err := g.Index()
	if err != nil {
		return nil, err
	}
	choices, err := s.selectHostsDense(ix, rankOrderDesc(ix.Levels(), nil, nil), false, nil)
	if err != nil {
		return nil, err
	}
	out := make(map[afg.TaskID]Choice, len(choices))
	for t, c := range choices {
		out[ix.ID(t)] = c
	}
	return out, nil
}

// selectHostsDense is the Fig 5 walk. The task queue is walked in the given
// priority order (dense indices; the result is addressed the same way) and
// each assignment updates the walk's own view of its chosen host(s), kept
// per column of the pricing's resource snapshot: one queued-load unit in the
// paper-faithful mode, or — when avail is set, by the availability-aware
// site policies — an estimated host-free timeline, where each task takes the
// host(s) minimising earliest finish time (free time + predicted execution)
// and its finish pushes those hosts' free times out. A non-nil ledger seeds
// that timeline with the busy seconds other applications have reserved;
// reservations themselves are made by the site-level walk, never here.
// order is only read: the Site Scheduler hands one slice to every site's walk.
//
//vdce:hot allocs=18
func (s *LocalSelector) selectHostsDense(ix *afg.Index, order []int32, avail bool, ledger *LoadLedger) ([]Choice, error) {
	p := s.newPricing()
	defer p.count()
	sc := getScratch()
	defer sc.release()
	sc.queued = growZero(sc.queued, len(p.resources))
	sc.freeAt = growZero(sc.freeAt, len(p.resources))
	if ledger != nil {
		for k := range p.resources {
			sc.freeAt[k] = ledger.Busy(p.resources[k].Static.HostName)
		}
	}
	out := make([]Choice, ix.Len()) // schedule output
	// One host-name slab backs every sequential task's committed host set
	// (schedule output): one allocation per walk instead of one per task.
	slab := make([]string, ix.Len())
	for _, t := range order {
		var err error
		out[t], sc.scored, slab, err = p.selectFor(ix.Task(int(t)), avail, sc.queued, sc.freeAt, sc.scored, slab)
		if err != nil {
			return nil, fmt.Errorf("task %q at site %s: %w", ix.ID(int(t)), s.Site, err)
		}
	}
	return out, nil
}

// scored is one candidate of a selectFor evaluation.
type scored struct {
	col  int32   // resource column
	pred float64 // predicted execution seconds
	key  float64 // ranking key (finish time in availability mode)
}

// selectFor evaluates Predict(task, R) for every eligible resource and
// commits the minimiser — of the prediction alone in the paper-faithful
// mode, of the earliest finish time (host free time + prediction) in
// availability-aware mode — to the walk's per-column view: one more queued
// task, or the choice's estimated finish as the new free time.
// Parallel tasks select task.Processors machines (the paper's "the host
// selection algorithm is updated to select the number of machines required
// within the site"). buf is a caller-owned scratch slice and slab a
// caller-owned host-name arena for the committed sets, both returned
// (maybe consumed or grown) for reuse across the walk: the steady-state
// sequential walk step allocates nothing at all.
func (p *pricing) selectFor(task *afg.Task, avail bool, queued, freeAt []float64, buf []scored, slab []string) (Choice, []scored, []string, error) {
	cands := buf[:0]
	row := p.row(task.Function)
	for k := range p.resources {
		if !p.eligible(task, row, k) {
			continue
		}
		pred := p.predictOn(task, row, k, queued[k])
		key := pred
		if avail {
			key = freeAt[k] + pred
		}
		cands = append(cands, scored{int32(k), pred, key})
	}
	if len(cands) == 0 {
		return Choice{}, cands, slab, ErrNoEligibleHost
	}
	n := task.Processors
	if task.Mode != afg.Parallel {
		n = 1
	}
	if n > len(cands) {
		n = len(cands)
	}
	// Partial selection by (key, column): only the n winners matter, so each
	// of the n rounds swaps the minimum of the remainder into place —
	// O(n·C) against a full sort's O(C log C), and n is 1 for every
	// sequential task. Columns ascend by host name, so (key, column) is the
	// strict total order (key, host) and the selected prefix and its order
	// are identical to any comparison sort of the whole candidate list.
	for i := 0; i < n; i++ {
		m := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].key < cands[m].key || (cands[j].key == cands[m].key && cands[j].col < cands[m].col) {
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
	for i, c := range cands[:n] {
		hosts[i] = p.resources[c.col].Static.HostName
		if c.pred > maxPred {
			maxPred = c.pred
		}
		if f := freeAt[c.col]; f > start {
			start = f
		}
	}
	// Parallel-mode prediction: the slowest selected machine bounds each
	// share; an ideal row split divides the work n ways.
	pred := maxPred / float64(n)
	for _, c := range cands[:n] {
		if avail {
			freeAt[c.col] = start + pred
		} else {
			queued[c.col]++
		}
	}
	return Choice{Site: p.s.Site, Host: hosts[0], Hosts: hosts, Predicted: pred}, cands, slab, nil
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
