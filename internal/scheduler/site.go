package scheduler

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/afg"
	"repro/internal/netsim"
)

// siteScheduler is the Site Scheduler Algorithm (paper Fig 4) at the local
// site — the site where the execution request arrived — assembled per run by
// the registered site policies ("faithful", "eft", "ledger").
//
// Steps (numbering follows the figure):
//  1. receive the AFG,
//  2. select the k nearest neighbour sites,
//  3. multicast the AFG to them,
//  4. run the Host Selection Algorithm locally and remotely,
//  5. collect (machine, predicted time) pairs per task per site,
//  6. initialise the ready set with entry tasks,
//  7. walk the ready set in level-priority order, assigning each task to
//     the site minimising predicted time (entry tasks) or
//     transfer time from the parents' sites + predicted time (others).
type siteScheduler struct {
	// req is the scheduling problem: graph, selectors, network, Config.
	req *Request

	// avail replaces step 7's predicted+transfer objective with earliest
	// finish time: the walk tracks an estimated free-time timeline for
	// every host across all sites and places each task on the site/host
	// set minimising
	//
	//	max(parent finishes + transfer, host free, ledger wait) + predicted.
	avail bool

	// ledger, when non-nil, is the cross-application load ledger consulted
	// and updated by the availability-aware walk: placements from
	// concurrent schedules (scheduler.Batch) reserve predicted busy seconds
	// per host, so applications scheduled in the same batch spread around
	// each other instead of dog-piling the fastest machines.
	ledger *LoadLedger
}

// sitePolicy wraps the Site Scheduler engine as a registered Policy:
// "faithful" is the paper's Fig 4 walk, "eft" the earliest-finish-time
// variant, and "ledger" eft with a cross-application load ledger (the
// request's shared ledger when provided, else a private one).
type sitePolicy struct {
	name   string
	eft    bool
	ledger bool
}

// Name implements Policy.
func (p sitePolicy) Name() string { return p.name }

// Schedule implements Policy by assembling the engine from the request.
// The walk is availability-aware iff the policy is "eft"/"ledger" or the
// request carries a ledger (reservations only mean something on a host
// timeline).
func (p sitePolicy) Schedule(ctx context.Context, req *Request) (*AllocationTable, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := &siteScheduler{req: req, ledger: req.Config.Ledger}
	if p.ledger && s.ledger == nil {
		s.ledger = NewLoadLedger()
	}
	s.avail = p.eft || s.ledger != nil
	return s.run()
}

// run is the Site Scheduler engine. The walk is slice-indexed end to end:
// site results address tasks by dense index, the ready set is a priority
// heap over dense levels, and the transfer term reads CSR parent arcs. The
// original map-keyed walk is retained in oracle_test.go; equivalence tests
// pin the tables.
func (s *siteScheduler) run() (*AllocationTable, error) {
	g, cfg := s.req.Graph, &s.req.Config
	if s.req.Local == nil {
		return nil, ErrNoSites
	}
	if g.Len() == 0 {
		return nil, afg.ErrEmpty
	}
	ix, err := g.Index()
	if err != nil {
		return nil, err
	}

	// Steps 2–3: pick the k nearest neighbours and "multicast" the AFG.
	selectors := append([]HostSelector{s.req.Local},
		nearestSelectors(s.req.Local, s.req.Remotes, s.req.Net, cfg.K)...)

	// Steps 4–5: gather host selections per site, fanning out across the
	// worker pool. A site that cannot host some task (constraints) is
	// skipped for that task rather than failing the whole application:
	// a failed site is dropped entirely (recorded on Diag when set); the
	// local site failing is fatal only if no site can host a task.
	results, transient := s.collectSelections(ix, g, selectors)
	if len(results) == 0 {
		return nil, noSitesErr(transient)
	}

	if s.avail {
		return s.scheduleAvailabilityAware(ix, g, results)
	}

	table := NewAllocationTable(g.Name)

	// Steps 6–7: ready-set walk in level-priority order.
	walk, err := newReadyWalk(ix, g, cfg.Priority)
	if err != nil {
		return nil, err
	}
	n := ix.Len()
	site := make([]string, n) // assigned site per task; "" = unplaced
	for done := 0; done < n; done++ {
		t, err := walk.next(done)
		if err != nil {
			return nil, err
		}

		best := Choice{Predicted: math.Inf(1)}
		bestTotal := math.Inf(1)
		found := false
		entryLike := isEntryLikeDense(ix, t)
		for si := range results {
			sr := &results[si]
			choice := sr.choices[t]
			if choice.Host == "" {
				continue
			}
			total := choice.Predicted
			if cfg.TransferAware && !entryLike {
				total += transferCostDense(s.req.Net, ix, t, sr.name, site)
			}
			if total < bestTotal || (total == bestTotal && sr.name < best.Site) {
				best, bestTotal, found = choice, total, true
			}
		}
		if !found {
			return nil, fmt.Errorf("%w: %q", ErrNoEligibleHost, ix.ID(t))
		}
		table.Set(Assignment{
			Task:      ix.ID(t),
			Site:      best.Site,
			Host:      best.Host,
			Hosts:     best.Hosts,
			Predicted: best.Predicted,
		})
		site[t] = best.Site
		walk.complete(t)
	}
	return table, nil
}

// scheduleAvailabilityAware is the earliest-finish-time variant of steps
// 6–7: the ready-set walk keeps an estimated free-time timeline for every
// host it has placed work on (seeded, per task, from one bulk snapshot of
// the shared ledger's cross-application reservations) and an estimated
// finish time per scheduled task, and sends each task to the site/host
// set whose estimated finish — parents' data arrival plus queueing wait
// plus predicted execution — is smallest.
//
//vdce:hot allocs=80
func (s *siteScheduler) scheduleAvailabilityAware(ix *afg.Index, g *afg.Graph, results []siteResult) (*AllocationTable, error) {
	table := NewAllocationTable(g.Name)
	net := s.req.Net
	n := ix.Len()
	estFinish := make([]float64, n)
	site := make([]string, n)        // assigned site per task; "" = unplaced
	phosts := make([][]string, n)    // assigned host set per task
	hostFree := map[string]float64{} // this walk's own host timeline
	own := map[string]float64{}      // busy seconds this walk reserved in the ledger
	// view folds the ledger's view of OTHER applications' in-flight work
	// into this walk's own timeline. Refreshed once per task — one bulk
	// snapshot revalidation instead of a ledger lock per candidate — so a
	// placement made by a concurrent Schedule goroutine moves this walk
	// off the host it just claimed from the next task onward.
	view := s.ledger.View()
	freeAt := func(h string) float64 {
		f := hostFree[h]
		if view != nil {
			if other := view.Busy(h) - own[h]; other > f {
				f = other
			}
		}
		return f
	}
	releaseOwn := func() {
		if s.ledger == nil {
			return
		}
		//vdce:ignore maporder one Release per distinct host key: updates touch disjoint ledger entries, so order commutes
		for h, sec := range own {
			s.ledger.Release(h, sec)
		}
	}

	walk, err := newReadyWalk(ix, g, s.req.Config.Priority)
	if err != nil {
		return nil, err
	}
	for done := 0; done < n; done++ {
		t, err := walk.next(done)
		if err != nil {
			releaseOwn()
			return nil, err
		}
		view.Refresh()

		var best Choice
		var bestHosts []string
		bestFinish := math.Inf(1)
		found := false
		for si := range results {
			sr := &results[si]
			choice := sr.choices[t]
			if choice.Host == "" {
				continue
			}
			hosts := effectiveHosts(Assignment{Host: choice.Host, Hosts: choice.Hosts})
			// Data arrival: every scheduled parent's estimated finish,
			// plus the site-to-site transfer unless a host is shared.
			start := 0.0
			for _, a := range ix.Parents(t) {
				arrive := estFinish[a.Peer]
				if net != nil && site[a.Peer] != "" {
					if a.Bytes > 0 && !sharesHost(phosts[a.Peer], hosts) {
						arrive += net.TransferTime(site[a.Peer], sr.name, a.Bytes).Seconds()
					}
				}
				start = math.Max(start, arrive)
			}
			for _, h := range hosts {
				start = math.Max(start, freeAt(h))
			}
			finish := start + choice.Predicted
			if finish < bestFinish || (finish == bestFinish && sr.name < best.Site) {
				best, bestHosts, bestFinish, found = choice, hosts, finish, true
			}
		}
		if !found {
			releaseOwn()
			return nil, fmt.Errorf("%w: %q", ErrNoEligibleHost, ix.ID(t))
		}
		table.Set(Assignment{
			Task:      ix.ID(t),
			Site:      best.Site,
			Host:      best.Host,
			Hosts:     best.Hosts,
			Predicted: best.Predicted,
		})
		estFinish[t] = bestFinish
		site[t] = best.Site
		phosts[t] = bestHosts
		for _, h := range bestHosts {
			hostFree[h] = bestFinish
			if view != nil {
				view.Reserve(h, best.Predicted)
				own[h] += best.Predicted
			}
		}
		walk.complete(t)
	}
	return table, nil
}

// readyWalk yields dense task indices in ready-set priority order. With
// the default level rule the ready set is a priority heap over dense
// levels — O(V log V) for the whole walk instead of a full re-sort per
// step. A custom PriorityFunc keeps the original Tracker-and-re-sort walk
// (the rule sees the whole ready set, so there is nothing to incrementalise).
type readyWalk struct {
	ix *afg.Index

	// Dense path (nil PriorityFunc):
	heap    prioHeap
	dlevels []float64
	pending []int32

	// Generic path:
	tracker *afg.Tracker
	prio    PriorityFunc
	levels  map[afg.TaskID]float64
}

func newReadyWalk(ix *afg.Index, g *afg.Graph, prio PriorityFunc) (*readyWalk, error) {
	w := &readyWalk{ix: ix}
	if prio == nil {
		n := ix.Len()
		w.dlevels = ix.Levels()
		w.pending = make([]int32, n)
		// One entry per task ever enters the heap; capacity n keeps Push
		// growth-free.
		w.heap = make(prioHeap, 0, n)
		for i := 0; i < n; i++ {
			w.pending[i] = int32(ix.NumParents(i))
			if w.pending[i] == 0 {
				w.heap = append(w.heap, prioItem{w.dlevels[i], int32(i)})
			}
		}
		w.heap.Init()
		return w, nil
	}
	levels, err := g.Levels()
	if err != nil {
		return nil, err
	}
	w.tracker, w.prio, w.levels = afg.NewTracker(g), prio, levels
	return w, nil
}

// next returns the highest-priority ready task; done is the count of
// completed tasks (for the empty-ready-set diagnostic).
func (w *readyWalk) next(done int) (int, error) {
	if w.tracker == nil {
		if len(w.heap) == 0 {
			return 0, fmt.Errorf("scheduler: ready set empty with %d tasks remaining", w.ix.Len()-done)
		}
		return int(w.heap.Pop().idx), nil
	}
	ready := w.prio(w.tracker.Ready(), w.levels)
	if len(ready) == 0 {
		return 0, fmt.Errorf("scheduler: ready set empty with %d tasks remaining", w.tracker.Remaining())
	}
	return w.ix.Of(ready[0]), nil
}

// complete marks t scheduled, admitting children whose parents are done.
func (w *readyWalk) complete(t int) {
	if w.tracker == nil {
		for _, a := range w.ix.Children(t) {
			w.pending[a.Peer]--
			if w.pending[a.Peer] == 0 {
				w.heap.Push(prioItem{w.dlevels[a.Peer], a.Peer})
			}
		}
		return
	}
	w.tracker.Complete(w.ix.ID(t))
}

// isEntryLikeDense reports whether the task "is an entry task or does not
// require any input file from its parent node tasks" (Fig 4, step 7): it
// has no parents or none of its input links moves data.
func isEntryLikeDense(ix *afg.Index, t int) bool {
	for _, a := range ix.Parents(t) {
		if a.Bytes > 0 {
			return false
		}
	}
	return true
}

// transferCostDense sums transfer_time(Sparent, Sj) over the task's
// already scheduled parents, reading CSR arcs and the dense site table.
// (The paper's formula names a single parent site; with several parents
// each contributes its own transfer, so we sum — a co-located parent
// contributes its cheap LAN term.)
func transferCostDense(net *netsim.Network, ix *afg.Index, t int, siteName string, site []string) float64 {
	if net == nil {
		return 0
	}
	var total float64
	for _, a := range ix.Parents(t) {
		if site[a.Peer] == "" {
			continue // parent unscheduled (possible only for cross runs)
		}
		total += net.TransferTime(site[a.Peer], siteName, a.Bytes).Seconds()
	}
	return total
}

// siteResult is one site's contribution to steps 4–5: the site's offer per
// task, addressed by dense task index (an empty Host marks "no offer").
type siteResult struct {
	name    string
	choices []Choice
	err     error
}

// collectSelections runs the Host Selection Algorithm on every selector —
// serially when Concurrency is 1, otherwise through a bounded worker pool —
// and merges the successful results deterministically by site name.
// In-process selectors run the dense slice-indexed walk; RPC remotes
// answer with maps that are flattened onto the dense index once. Failed
// sites are dropped and recorded on Diag, classified as capacity refusals
// vs transient losses.
//
// Availability-aware scheduling is propagated into in-process selectors:
// the EFT walk prices queueing itself, so the per-site walks must report
// pure predictions (a queued-load-bumped prediction would double-count the
// wait). Remote sites decide their own mode — the RPC selector cannot see
// this walk's mode — which only perturbs which host a remote site offers,
// not the EFT accounting.
func (s *siteScheduler) collectSelections(ix *afg.Index, g *afg.Graph, selectors []HostSelector) ([]siteResult, []SiteError) {
	gathered := make([]siteResult, len(selectors))
	gather := func(i int, sel HostSelector) {
		name := sel.SiteName()
		if ls, ok := sel.(*LocalSelector); ok {
			cs, err := ls.selectHostsDense(g, s.avail, s.ledger)
			gathered[i] = siteResult{name: name, choices: cs, err: err}
			return
		}
		m, err := sel.SelectHosts(g)
		if err != nil {
			gathered[i] = siteResult{name: name, err: err}
			return
		}
		gathered[i] = siteResult{name: name, choices: denseChoices(ix, m)}
	}
	if s.req.Config.Concurrency == 1 || len(selectors) == 1 {
		for i, sel := range selectors {
			gather(i, sel)
		}
	} else {
		workers := s.req.Config.Concurrency
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > len(selectors) {
			workers = len(selectors)
		}
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i, sel := range selectors {
			wg.Add(1)
			go func(i int, sel HostSelector) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				gather(i, sel)
			}(i, sel)
		}
		wg.Wait()
	}
	results := gathered[:0]
	var transient []SiteError
	for _, r := range gathered {
		if r.err != nil {
			s.req.Diag.record(r.name, r.err)
			if !errors.Is(r.err, ErrNoEligibleHost) {
				transient = append(transient, SiteError{Site: r.name, Err: r.err})
			}
			continue
		}
		if r.choices != nil {
			results = append(results, r)
		}
	}
	sort.Slice(results, func(i, j int) bool { return results[i].name < results[j].name })
	return results, transient
}

// nearestSelectors is the neighbour-selection step shared by the site
// policies and the HEFT/CPOP candidate collection: the k remotes nearest to
// local by network latency (all remotes when no network or k <= 0).
func nearestSelectors(local HostSelector, remotes []HostSelector, net *netsim.Network, k int) []HostSelector {
	if len(remotes) == 0 {
		return nil
	}
	if k <= 0 || k > len(remotes) {
		k = len(remotes)
	}
	if net == nil {
		return remotes[:k]
	}
	names := net.Nearest(local.SiteName(), len(remotes))
	byName := make(map[string]HostSelector, len(remotes))
	for _, r := range remotes {
		byName[r.SiteName()] = r
	}
	var out []HostSelector
	for _, n := range names {
		if sel, ok := byName[n]; ok {
			out = append(out, sel)
			if len(out) == k {
				return out
			}
		}
	}
	// Remotes absent from the network map come last.
	for _, r := range remotes {
		if len(out) == k {
			break
		}
		known := false
		for _, o := range out {
			if o == r {
				known = true
				break
			}
		}
		if !known {
			out = append(out, r)
		}
	}
	return out
}

// transferBytes returns the data volume of one link: the link's explicit
// size, or the parent's declared output volume ("the input size of the
// application can be used for the transfer size parameter").
func transferBytes(g *afg.Graph, l afg.Link) int64 {
	if l.Bytes > 0 {
		return l.Bytes
	}
	if p := g.Task(l.From); p != nil {
		return p.OutputBytes
	}
	return 0
}
