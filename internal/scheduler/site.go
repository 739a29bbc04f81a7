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
//
// Step 7 of the earliest-finish variants is no walk of its own: the sites'
// offers feed the same placement kernel heft and cpop use (heft.go).
type siteScheduler struct {
	// req is the scheduling problem: graph, selectors, network, Config.
	req *Request

	// avail replaces step 7's predicted+transfer objective with earliest
	// finish time: the sites' offers become the fallback blocks of a cost
	// matrix without columns, placed append-only by the package's one
	// earliest-finish kernel (heft.go's placement), which sends each task
	// to the site/host set minimising
	//
	//	max(parent finishes + transfer, host free, ledger floor) + predicted.
	avail bool

	// ledger, when non-nil, is the cross-application load ledger the
	// kernel reads and reserves in: placements from concurrent schedules
	// (scheduler.Batch) reserve predicted busy seconds per host, so
	// applications scheduled in the same batch spread around each other
	// instead of dog-piling the fastest machines.
	ledger *LoadLedger
}

// sitePolicy wraps the Site Scheduler engine as a registered Policy:
// "faithful" is the paper's Fig 4 walk, "eft" the earliest-finish-time
// variant, and "ledger" eft meant to run with a shared cross-application
// load ledger (Batch supplies one). Without one it is eft.
type sitePolicy struct {
	name string
	eft  bool
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
	s.avail = p.eft || s.ledger != nil
	return s.run(ctx)
}

// run is the Site Scheduler engine. The walk is slice-indexed end to end:
// site results address tasks by dense index, the ready set is a priority
// heap over the dense keys, and the transfer term reads CSR parent arcs. The
// original map-keyed walk is retained in oracle_test.go; equivalence tests
// pin the tables.
func (s *siteScheduler) run(ctx context.Context) (*AllocationTable, error) {
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

	sc := getScratch()
	defer sc.release()
	if s.avail {
		p := newPlacement(offerMatrix(ix, results), g.Name, s.req.Net, s.ledger, sc)
		defer p.releaseScratch(sc)
		p.appendOnly = true
		return p.done(p.placeReady(ctx, keys, nil, nil, sc))
	}

	// Steps 6–7: ready-set walk in priority order, the transfer term priced
	// from the pair table by site id.
	table := NewAllocationTable(g.Name)
	sc.pairs.reset(s.req.Net)
	sc.blockSite = grow(sc.blockSite, len(results))
	for si := range results {
		sc.blockSite[si] = sc.pairs.id(results[si].name)
	}
	site := grow(sc.siteID, ix.Len()) // assigned site id per task; -1 = unplaced
	for t := range site {
		site[t] = -1
	}
	sc.siteID = site
	err = readyWalk(ctx, ix, keys, sc, func(t int) error {
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
				total += transferCostDense(&sc.pairs, ix, t, sc.blockSite[si], site)
			}
			if total < bestTotal || (total == bestTotal && sr.name < best.Site) {
				best, bestTotal, found = choice, total, true
			}
		}
		if !found {
			return fmt.Errorf("%w: %q", ErrNoEligibleHost, ix.ID(t))
		}
		table.Set(Assignment{
			Task:      ix.ID(t),
			Site:      best.Site,
			Host:      best.Host,
			Hosts:     best.Hosts,
			Predicted: best.Predicted,
		})
		if best.Site != "" {
			site[t] = sc.pairs.id(best.Site)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return table, nil
}

// readyWalk visits every task of ix in ready-set priority order — the
// highest key among the tasks whose parents have all been visited, dense
// index (= ascending TaskID) on ties — and stops at the first error visit
// returns, or at ctx's. The ready set is a priority heap over the keys:
// O(V log V) for the whole walk instead of a full re-sort per step. Its
// heap and pending-parent counters are sc's.
func readyWalk(ctx context.Context, ix *afg.Index, keys []float64, sc *scratch, visit func(t int) error) error {
	n := ix.Len()
	sc.pending = grow(sc.pending, n) // fully written by the init loop below
	pending := sc.pending
	// One entry per task ever enters the heap; capacity n keeps Push
	// growth-free.
	sc.heap = grow(sc.heap, n)
	ready := prioHeap(sc.heap[:0])
	for i := 0; i < n; i++ {
		pending[i] = int32(ix.NumParents(i))
		if pending[i] == 0 {
			ready = append(ready, prioItem{keys[i], int32(i)})
		}
	}
	ready.Init()
	for done := 0; done < n; done++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(ready) == 0 {
			return fmt.Errorf("scheduler: ready set empty with %d tasks remaining", n-done)
		}
		t := int(ready.Pop().idx)
		if err := visit(t); err != nil {
			return err
		}
		for _, a := range ix.Children(t) {
			pending[a.Peer]--
			if pending[a.Peer] == 0 {
				ready.Push(prioItem{keys[a.Peer], a.Peer})
			}
		}
	}
	return nil
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
// already scheduled parents, reading CSR arcs, the dense site-id column and
// the pair table. (The paper's formula names a single parent site; with
// several parents each contributes its own transfer, so we sum — a
// co-located parent contributes its cheap LAN term.)
func transferCostDense(pairs *sitePairs, ix *afg.Index, t int, to int32, site []int32) float64 {
	if pairs.net == nil {
		return 0
	}
	var total float64
	for _, a := range ix.Parents(t) {
		if site[a.Peer] < 0 {
			continue // parent unscheduled (possible only for cross runs)
		}
		total += pairs.seconds(site[a.Peer], to, a.Bytes)
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
// bounded by Config.Concurrency. A site that fails, or replies with an
// offer no cost model could vouch for (ErrInvalidOffer), is dropped and
// recorded on Request.Diag, as a capacity refusal (it cannot host some
// task) or a transient loss (anything else). The survivors come back in
// ascending site-name order; if none does, the error carries this gather's
// transient losses.
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
		r.choices, r.err = denseChoices(ix, m)
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
