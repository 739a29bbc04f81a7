package scheduler

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

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
	// finish time: the sites' offers, placed append-only by the package's
	// one earliest-finish kernel (heft.go's placement), which sends each
	// task to the site/host set minimising
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
//
//vdce:hot allocs=99
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
	sc := getScratch()
	defer sc.release()
	results, err := multicast(ix, s.req, &sc.sites, func(ls *LocalSelector, r *siteResult) {
		r.err = ls.selectHostsDense(ix, order, s.avail, s.ledger, r)
	})
	if err != nil {
		return nil, err
	}

	if s.avail { // a cost matrix with no columns: every site an offer block
		cm := &CostMatrix{ix: ix, blocks: make([]siteBlock, len(results))}
		for i := range results {
			cm.blocks[i] = siteBlock{name: results[i].name, offers: results[i].offers}
		}
		p := newPlacement(cm, g.Name, nil, s.req.Net, s.ledger, sc)
		defer p.releaseScratch(sc)
		p.appendOnly = true
		return p.done(p.placeReady(ctx, keys, nil, -1, sc))
	}

	// Steps 6–7: ready-set walk in priority order, the transfer term priced
	// from the pair table by site id; only the chosen offer is named.
	table := tableFor(g.Name, ix)
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
	var slab []string
	err = readyWalk(ctx, ix, keys, sc, func(t int) error {
		best, bo, bestTotal := -1, offer{}, math.Inf(1)
		entryLike := isEntryLikeDense(ix, t)
		for si := range results {
			o := results[si].at[t]
			if o.lo == o.hi {
				continue
			}
			total := o.pred
			if cfg.TransferAware && !entryLike {
				total += transferCostDense(&sc.pairs, ix, t, sc.blockSite[si], site)
			}
			if total < bestTotal { // sites ascend by name: the first of equals wins
				best, bo, bestTotal = si, o, total
			}
		}
		if best < 0 {
			return fmt.Errorf("%w: %q", ErrNoEligibleHost, ix.ID(t))
		}
		sr, cols := &results[best], results[best].cols[bo.lo:bo.hi]
		hosts := hostSet(sr.hosts[cols[0]], sr.hosts, cols, &slab, ix.Len())
		table.setAt(int32(t), Assignment{Task: ix.ID(t), Site: sr.name, Host: hosts[0], Hosts: hosts, Predicted: bo.pred})
		site[t] = sc.blockSite[best]
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

// offer is one task's Fig 5 answer at one site: its prediction and machine
// set, the span cols[lo:hi] of the site's column slab (lo == hi: no offer).
type offer struct {
	pred   float64
	lo, hi int32
}

// offers is one site's Fig 5 answer by host column: the column → host-name
// list (a walk's pricing snapshot, or a reply's hosts interned in dense
// order), each task's offer by dense index, and the column slab.
type offers struct {
	hosts []string
	at    []offer
	cols  []int32
}

// choices builds the id-keyed map of site's offers, the form SelectHosts
// returns and the RPC replies.
func (o *offers) choices(ix *afg.Index, site string) map[afg.TaskID]Choice {
	out := make(map[afg.TaskID]Choice, len(o.at))
	var slab []string
	for t, a := range o.at {
		if a.lo < a.hi {
			set := hostSet(o.hosts[o.cols[a.lo]], o.hosts, o.cols[a.lo:a.hi], &slab, len(o.at))
			out[ix.ID(t)] = Choice{Site: site, Host: set[0], Hosts: set, Predicted: a.pred}
		}
	}
	return out
}

// hostSet names a chosen candidate's hosts as schedule output: a machine
// set (columns cols of hosts) is allocated, a one-host set carved from
// *slab, n slots at a time, capped so it cannot grow into its neighbour.
func hostSet(host string, hosts []string, cols []int32, slab *[]string, n int) []string {
	if len(cols) > 1 {
		set := make([]string, len(cols))
		for k, c := range cols {
			set[k] = hosts[c]
		}
		return set
	}
	if len(*slab) == 0 {
		*slab = make([]string, n)
	}
	set := (*slab)[:1:1]
	*slab, set[0] = (*slab)[1:], host
	return set
}

// siteResult is one site's answer to a multicast — its offers, one shape for
// a Fig 5 walk and an RPC reply — and the walk's buffers. A site asked for
// costs fills hosts (its columns) and pred (V×len(hosts), NaN = ineligible).
type siteResult struct {
	name string
	offers
	pred   []float64
	err    error
	queued []float64 // walk: column -> tasks placed there, paper mode
	freeAt []float64 // walk: column -> estimated host-free time, availability mode
	scored []scored  // walk: one task's candidates
}

// multicast is steps 2–5 of Fig 4, shared by the site policies and the
// HEFT/CPOP cost gather: the local site plus its Config.K nearest
// neighbours are each asked once — in-process selectors through local,
// which fills its siteResult; any other selector through SelectHosts, its
// reply interned by denseChoices — serially or across a worker pool
// bounded by Config.Concurrency. A site that fails, or replies with an
// offer the kernel could not place as offered (ErrInvalidOffer), is
// dropped and recorded on Request.Diag, as a capacity refusal (it cannot
// host some task) or a transient loss (anything else). A request naming one
// site twice is refused before any site is asked. The survivors come
// back in ascending site-name order, in *slots, refilled (grown when
// short); if none does, the error carries this gather's transient losses.
func multicast(ix *afg.Index, req *Request, slots *[]siteResult, local func(*LocalSelector, *siteResult)) ([]siteResult, error) {
	if req.Local == nil {
		return nil, ErrNoSites
	}
	if err := req.distinctSites(); err != nil {
		return nil, err
	}
	selectors := append([]HostSelector{req.Local},
		nearestSelectors(req.Local, req.Remotes, req.Net, req.Config.K)...)
	per := grow(*slots, len(selectors))
	*slots = per
	fanOut(len(selectors), req.Config.Concurrency, func(i int) {
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
		r.err = denseChoices(ix, m, r.name, &r.offers)
	})
	keep := 0
	var transient []SiteError
	for i := range per {
		if r := &per[i]; r.err != nil {
			req.Diag.record(r.name, r.err)
			if !errors.Is(r.err, ErrNoEligibleHost) {
				transient = append(transient, SiteError{Site: r.name, Err: r.err})
			}
			continue
		}
		per[keep], per[i] = per[i], per[keep] // swapped, so each pooled result keeps its own slabs
		keep++
	}
	if keep == 0 {
		return nil, noSitesErr(transient)
	}
	out := per[:keep]
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// distinctSites refuses a request two of whose selectors name one site: a
// table row's Site says which repository a host is in and which peer runs
// it, so two sites under one name would be mixed in its rows.
func (r *Request) distinctSites() error {
	for i, sel := range r.Remotes {
		name := sel.SiteName()
		if r.Local != nil && name == r.Local.SiteName() ||
			slices.ContainsFunc(r.Remotes[:i], func(o HostSelector) bool { return o.SiteName() == name }) {
			return fmt.Errorf("scheduler: site %q named by two selectors", name)
		}
	}
	return nil
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
	for _, r := range remotes { // remotes absent from the network map come last
		if len(out) < k && !slices.Contains(out, r) {
			out = append(out, r)
		}
	}
	return out
}
