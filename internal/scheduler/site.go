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
// heap over the dense keys, and the transfer term reads CSR parent arcs. The
// original map-keyed walk is retained in oracle_test.go; equivalence tests
// pin the tables.
func (s *siteScheduler) run() (*AllocationTable, error) {
	g, cfg := s.req.Graph, &s.req.Config
	if g.Len() == 0 {
		return nil, afg.ErrEmpty
	}
	ix, err := g.Index()
	if err != nil {
		return nil, err
	}

	// The priority phase, once per schedule: the keys feed the ready heap of
	// steps 6–7, and their descending order is the queue every in-process
	// site's Fig 5 walk reads (never writes) from the multicast's workers.
	keys := cfg.Priority.keys(ix)
	order := rankOrderDesc(keys, nil, nil)

	// Steps 2–5: pick the k nearest neighbours, "multicast" the AFG and
	// gather host selections per site. A site that cannot host some task
	// (constraints) is dropped entirely rather than failing the whole
	// application; the local site failing is fatal only if no site is left.
	//
	// Availability-aware scheduling is propagated into in-process selectors:
	// the EFT walk prices queueing itself, so the per-site walks must report
	// pure predictions (a queued-load-bumped prediction would double-count
	// the wait). Remote sites decide their own mode and priority — the RPC
	// selector cannot see this walk's — which only perturbs which host a
	// remote site offers, not the EFT accounting.
	results, err := multicast(ix, s.req, func(ls *LocalSelector, r *siteResult) {
		r.choices, r.err = ls.selectHostsDense(ix, order, s.avail, s.ledger)
	})
	if err != nil {
		return nil, err
	}

	if s.avail {
		return s.scheduleAvailabilityAware(ix, keys, results)
	}

	table := NewAllocationTable(g.Name)

	// Steps 6–7: ready-set walk in priority order.
	walk := newReadyWalk(ix, keys)
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
//vdce:hot allocs=77
func (s *siteScheduler) scheduleAvailabilityAware(ix *afg.Index, keys []float64, results []siteResult) (*AllocationTable, error) {
	table := NewAllocationTable(s.req.Graph.Name)
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

	walk := newReadyWalk(ix, keys)
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

// readyWalk yields dense task indices in ready-set priority order: the
// ready set is a priority heap over the schedule's keys — O(V log V) for the
// whole walk instead of a full re-sort per step.
type readyWalk struct {
	ix      *afg.Index
	keys    []float64
	heap    prioHeap
	pending []int32
}

func newReadyWalk(ix *afg.Index, keys []float64) *readyWalk {
	n := ix.Len()
	// One entry per task ever enters the heap; capacity n keeps Push
	// growth-free.
	w := &readyWalk{ix: ix, keys: keys, pending: make([]int32, n), heap: make(prioHeap, 0, n)}
	for i := 0; i < n; i++ {
		w.pending[i] = int32(ix.NumParents(i))
		if w.pending[i] == 0 {
			w.heap = append(w.heap, prioItem{keys[i], int32(i)})
		}
	}
	w.heap.Init()
	return w
}

// next returns the highest-priority ready task; done is the count of
// completed tasks (for the empty-ready-set diagnostic).
func (w *readyWalk) next(done int) (int, error) {
	if len(w.heap) == 0 {
		return 0, fmt.Errorf("scheduler: ready set empty with %d tasks remaining", w.ix.Len()-done)
	}
	return int(w.heap.Pop().idx), nil
}

// complete marks t scheduled, admitting children whose parents are done.
func (w *readyWalk) complete(t int) {
	for _, a := range w.ix.Children(t) {
		w.pending[a.Peer]--
		if w.pending[a.Peer] == 0 {
			w.heap.Push(prioItem{w.keys[a.Peer], a.Peer})
		}
	}
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

// siteResult is one site's answer to a multicast. choices holds its best
// offer per task, addressed by dense task index (an empty Host marks "no
// offer"): a Fig 5 walk's, or whatever an RPC peer replied. An in-process
// site asked for costs fills hosts (its columns, ascending by name) and pred
// (V×len(hosts), NaN = ineligible) instead.
type siteResult struct {
	name    string
	choices []Choice
	hosts   []string
	pred    []float64
	err     error
}

// multicast is steps 2–5 of Fig 4, shared by the site policies and the
// HEFT/CPOP cost gather: the local site plus its Config.K nearest
// neighbours are each asked once — in-process selectors through local,
// which fills its siteResult; any other selector through SelectHosts, its
// reply flattened onto the dense index — serially or across a worker pool
// bounded by Config.Concurrency. A site that fails is dropped and recorded
// on Request.Diag, as a capacity refusal (it cannot host some task) or a
// transient loss (anything else). The survivors come back in ascending
// site-name order; if none does, the error carries this gather's transient
// losses.
func multicast(ix *afg.Index, req *Request, local func(*LocalSelector, *siteResult)) ([]siteResult, error) {
	if req.Local == nil {
		return nil, ErrNoSites
	}
	selectors := append([]HostSelector{req.Local},
		nearestSelectors(req.Local, req.Remotes, req.Net, req.Config.K)...)
	per := make([]siteResult, len(selectors))
	ask := func(i int) {
		r := &per[i]
		r.name = selectors[i].SiteName()
		if ls, ok := selectors[i].(*LocalSelector); ok {
			local(ls, r)
			return
		}
		m, err := selectors[i].SelectHosts(req.Graph)
		if err != nil {
			r.err = err
			return
		}
		r.choices = denseChoices(ix, m)
	}
	workers := req.Config.Concurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(selectors) {
		workers = len(selectors)
	}
	if workers <= 1 {
		for i := range selectors {
			ask(i)
		}
	} else {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i := range selectors {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				ask(i)
			}(i)
		}
		wg.Wait()
	}
	keep := per[:0]
	var transient []SiteError
	for _, r := range per {
		if r.err != nil {
			req.Diag.record(r.name, r.err)
			if !errors.Is(r.err, ErrNoEligibleHost) {
				transient = append(transient, SiteError{Site: r.name, Err: r.err})
			}
			continue
		}
		keep = append(keep, r)
	}
	if len(keep) == 0 {
		return nil, noSitesErr(transient)
	}
	sort.Slice(keep, func(i, j int) bool { return keep[i].name < keep[j].name })
	return keep, nil
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
