package scheduler

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/afg"
)

// This file is the dense scheduling core: per-(task, host) predictions and
// the sites' Fig 5 offers are addressed by dense task index and host column,
// and host names are built only for the table and the SelectHosts reply.
// Each site's predictions stay in the slab its Host Selection returned (Fig
// 4, steps 3–5) — the matrix is a view over them, not a merged copy — and one
// matrix is shared, via CostCache, by every policy a Batch or
// policy-comparison run throws at the same graph.

// HostRef names one dense host column: the host and the site that owns it.
type HostRef struct {
	Site string
	Host string
}

// CostMatrix is the dense candidate table for one (graph, environment)
// pair: row(t, bi)[k] is the pure predicted execution seconds of task t on
// column block bi's k-th host, NaN where the host is ineligible. Columns are
// grouped by site in ascending site-name order and sorted by host name
// within a site — exactly the deterministic merge order of the map-keyed
// gather, so walks that iterate columns in order reproduce the map path's
// tie-breaks. Each site block holds its own columns' predictions, row-major
// by task. The placement kernel interns the columns' host names into its
// own lines. A gathered matrix also holds w̄ per task, for every rank sweep
// of every policy a CostCache shares it with.
//
// Sites whose selector offers no per-host costs (anything but an in-process
// LocalSelector — RPC remotes) contribute no columns; their single best
// offer per task sits in the site block's offers instead, over the site's
// own columns. An earliest-finish site walk's matrix is all offer blocks.
type CostMatrix struct {
	ix     *afg.Index
	hosts  []HostRef
	blocks []siteBlock // participating sites, ascending name
	sites  []string    // participating site names, ascending
	mean   []float64   // w̄ per task; nil outside a gathered matrix

	// A re-plan's matrix holds no predictions: row reads its price table
	// at each column's runCol into one row buffer, so a patch strategy
	// prices only the tasks it re-places. Gathered matrices leave prices nil.
	prices *runPrices
	runCol []int32
	rowBuf []float64
}

// siteBlock is one site's contribution to the matrix: a column range and
// its predictions for per-host-cost sites, or an offer site's Fig 5 offers.
type siteBlock struct {
	name       string
	col0, col1 int32     // dense column range; col0 == col1 for an offer site
	pred       []float64 // V×(col1−col0) row-major; NaN = ineligible
	offers               // an offer site's answer; at is nil for a column block
}

// row returns task t's predictions on column block bi's hosts: a view of
// the block's slab or, in a re-plan's matrix, the price table's cells, a
// cost the table cannot vouch for (NaN, infinite, negative) marking the host
// ineligible, in a buffer the next row call overwrites.
func (cm *CostMatrix) row(t, bi int) []float64 {
	b := &cm.blocks[bi]
	w := int(b.col1 - b.col0)
	if cm.prices == nil {
		return b.pred[t*w : (t+1)*w]
	}
	row := cm.rowBuf[:w]
	for k, c := range cm.runCol[b.col0:b.col1] {
		if row[k] = cm.prices.at(t, c); !validCost(row[k]) {
			row[k] = math.NaN()
		}
	}
	return row
}

func validCost(c float64) bool {
	return !math.IsNaN(c) && !math.IsInf(c, 0) && c >= 0
}

// lazyCostMatrix is the matrix of a re-plan: one column per price column in
// cols, in the given order — which must be site-then-host ascending, the
// gather's column order — read from prices row by row. The matrix and its
// buffers are sc's.
func lazyCostMatrix(ix *afg.Index, cols []int32, prices *runPrices, sc *scratch) *CostMatrix {
	cm := &sc.lazy
	*cm = CostMatrix{ix: ix, hosts: cm.hosts[:0], blocks: cm.blocks[:0], sites: cm.sites[:0],
		prices: prices, runCol: cols, rowBuf: grow(cm.rowBuf, len(cols))}
	for c, pc := range cols {
		h := prices.hosts[pc]
		cm.hosts = append(cm.hosts, h)
		if n := len(cm.blocks); n == 0 || cm.blocks[n-1].name != h.Site {
			cm.sites = append(cm.sites, h.Site)
			cm.blocks = append(cm.blocks, siteBlock{name: h.Site, col0: int32(c)})
		}
		cm.blocks[len(cm.blocks)-1].col1 = int32(c + 1)
	}
	return cm
}

// meanExec is w̄(t): the prediction averaged over every candidate of task
// t, accumulated in the same site-then-host order as the map-keyed gather
// so the float result is bit-identical: stored by the gather, summed per
// call in a re-plan's lazy matrix, whose ranks sweep only the frontier.
func (cm *CostMatrix) meanExec(t int) float64 {
	if cm.mean != nil {
		return cm.mean[t]
	}
	var sum float64
	n := 0
	for bi, b := range cm.blocks {
		if b.at != nil {
			if o := b.at[t]; o.lo < o.hi {
				sum += o.pred
				n++
			}
			continue
		}
		for _, p := range cm.row(t, bi) {
			if !math.IsNaN(p) {
				sum += p
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// SiteError records one site dropped from a gather and why.
type SiteError struct {
	Site string
	Err  error
}

func (e SiteError) Error() string { return fmt.Sprintf("site %s: %v", e.Site, e.Err) }

// Unwrap exposes the underlying selector error to errors.Is/As.
func (e SiteError) Unwrap() error { return e.Err }

// Diagnostics collects per-site gather outcomes. Attach one to
// Request.Diag to observe which sites were dropped and whether the drop
// was structural (the site cannot host some task — the multicast
// semantics say skip it) or transient (an RPC failure, a repository
// error): transient drops silently lose capacity, so they are
// distinguished and surfaced instead of vanishing. Safe for the
// concurrent gather workers to record into. A collector accumulates
// across every schedule that shares the Request — attach a fresh one per
// episode when per-run attribution matters.
type Diagnostics struct {
	mu      sync.Mutex
	dropped [2][]SiteError // capacity refusals, then transient losses
}

// record classifies err: anything wrapping ErrNoEligibleHost is a
// capacity refusal, everything else is transient.
func (d *Diagnostics) record(site string, err error) {
	if d == nil {
		return
	}
	k := 1
	if errors.Is(err, ErrNoEligibleHost) {
		k = 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dropped[k] = append(d.dropped[k], SiteError{Site: site, Err: err})
}

// CannotHost returns the sites dropped because some task had no eligible
// host there, in record order.
func (d *Diagnostics) CannotHost() []SiteError { return d.list(0) }

// Transient returns the sites dropped for non-capacity reasons (RPC or
// repository failures) — capacity the schedule lost without knowing.
func (d *Diagnostics) Transient() []SiteError { return d.list(1) }

// list copies the drops of kind k, in record order.
func (d *Diagnostics) list(k int) []SiteError {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]SiteError(nil), d.dropped[k]...)
}

// noSitesErr builds the terminal error for a gather that kept no site:
// plain ErrNoSites when every drop was structural, THIS gather's transient
// failures joined in when capacity was lost to them. (Request.Diag may
// span many schedules; the terminal error must only carry the current
// gather's losses.)
func noSitesErr(transient []SiteError) error {
	if len(transient) == 0 {
		return ErrNoSites
	}
	errs := []error{ErrNoSites}
	for _, e := range transient {
		errs = append(errs, e)
	}
	return errors.Join(errs...)
}

// CostCache shares cost matrices across schedules of the same graph: one
// batched gather per (graph, environment) instead of one per policy per
// graph. Keys are graph identities, so a cache must not outlive its
// environment — a repository or network change invalidates every entry.
// Nothing installs one by default: a caller that schedules one graph under
// several policies shares one across them explicitly (WithCostCache).
type CostCache struct {
	mu sync.Mutex
	m  map[*afg.Graph]*CostMatrix
}

// NewCostCache returns an empty cache.
func NewCostCache() *CostCache {
	return &CostCache{m: make(map[*afg.Graph]*CostMatrix)}
}

// costMatrix returns the request's cost matrix, from Config.Costs when the
// graph was already gathered, else via a fresh batched gather (published
// to the cache afterwards).
func (r *Request) costMatrix(ix *afg.Index) (*CostMatrix, error) {
	cache := r.Config.Costs
	if cache != nil {
		cache.mu.Lock()
		cm, ok := cache.m[r.Graph]
		cache.mu.Unlock()
		if ok && cm.ix == ix {
			return cm, nil
		}
	}
	cm, err := gatherCostMatrix(ix, r)
	if err != nil {
		return nil, err
	}
	if cache != nil {
		cache.mu.Lock()
		cache.m[r.Graph] = cm
		cache.mu.Unlock()
	}
	return cm, nil
}

// PrewarmCosts gathers the request graph's cost matrix into Config.Costs
// ahead of scheduling. Comparison harnesses that share one cache across
// policies call it before timing, so the batched gather is charged to
// setup rather than to whichever matrix-consuming policy happens to run
// first. A no-op without a cache.
func (r *Request) PrewarmCosts() error {
	if r.Config.Costs == nil {
		return nil
	}
	ix, err := r.Graph.Index()
	if err != nil {
		return err
	}
	_, err = r.costMatrix(ix)
	return err
}

// gatherCostMatrix is the HEFT/CPOP candidate gather: one multicast whose
// in-process sites answer with full per-host cost slabs and whose other
// sites answer with their single best choice per task, merged in site-name
// order. The merge numbers the columns and points each site block at the
// slab its site returned; no prediction is copied. Then w̄ is summed once
// per task, in contiguous task ranges of at least 64Ki cells each, under
// the multicast's worker bound (Config.Concurrency). The slabs and w̄ are
// schedule output — a CostCache shares them across policies and Batch
// workers — and are never pooled.
//
//vdce:hot allocs=76
func gatherCostMatrix(ix *afg.Index, req *Request) (*CostMatrix, error) {
	var fresh []siteResult // the gather's slabs are matrix output, never pooled
	keep, err := multicast(ix, req, &fresh, func(ls *LocalSelector, r *siteResult) {
		r.hosts, r.pred, r.err = ls.denseHostCosts(ix)
	})
	if err != nil {
		return nil, err
	}
	cm := &CostMatrix{ix: ix, blocks: make([]siteBlock, 0, len(keep)), sites: make([]string, 0, len(keep))}
	for _, g := range keep {
		cm.sites = append(cm.sites, g.name)
		b := siteBlock{name: g.name, col0: int32(len(cm.hosts)), pred: g.pred}
		if g.at != nil {
			b.offers = g.offers
		} else {
			for _, h := range g.hosts {
				cm.hosts = append(cm.hosts, HostRef{Site: g.name, Host: h})
			}
		}
		b.col1 = int32(len(cm.hosts))
		cm.blocks = append(cm.blocks, b)
	}
	n := ix.Len()
	ranges := max(min(n*len(cm.hosts)>>16, n), 1) // a smaller range costs more to hand out than to sum
	mean := make([]float64, n)
	fanOut(ranges, req.Config.Concurrency, func(r int) {
		for t := r * n / ranges; t < (r+1)*n/ranges; t++ {
			mean[t] = cm.meanExec(t)
		}
	})
	cm.mean = mean // only now: meanExec sums the rows until it is set
	return cm, nil
}

// denseChoices interns site's reply m into out by dense task index, over
// host columns numbered as a walk in dense order first meets each host, so
// no column depends on map order; ids the index does not know are dropped,
// and a task m does not name gets no offer. An offer the kernel could not
// place as offered rejects the whole reply with ErrInvalidOffer, naming the
// first such task in dense order: a NaN, infinite or negative prediction, a
// Site not the replier's, no Host, a set not headed by Host or holding an
// empty or repeated name, or more hosts than the task runs on. One host
// name offered by two sites is legal.
func denseChoices(ix *afg.Index, m map[afg.TaskID]Choice, site string, out *offers) error {
	out.hosts, out.at, out.cols = out.hosts[:0], grow(out.at, ix.Len()), out.cols[:0]
	col := map[string]int32{}
	for t := range out.at {
		c, ok := m[ix.ID(t)]
		out.at[t] = offer{c.Predicted, int32(len(out.cols)), int32(len(out.cols))}
		if !ok {
			continue
		}
		most, set := 1, c.Hosts
		if task := ix.Task(t); task.Mode == afg.Parallel {
			most = max(task.Processors, 1)
		}
		if len(set) == 0 {
			set = []string{c.Host}
		}
		for i, h := range set {
			if !validCost(c.Predicted) || c.Site != site || set[0] != c.Host || len(set) > most || h == "" || slices.Contains(set[:i], h) {
				return fmt.Errorf("%w: task %q offered %+v by site %s", ErrInvalidOffer, ix.ID(t), c, site)
			}
			k, ok := col[h]
			if !ok {
				k = int32(len(out.hosts))
				col[h] = k
				out.hosts = append(out.hosts, h)
			}
			out.cols = append(out.cols, k)
		}
		out.at[t].hi = int32(len(out.cols))
	}
	return nil
}
