package scheduler

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/afg"
)

// This file is the dense scheduling core: per-(task, host) predictions live
// in one contiguous matrix addressed by (dense task index × dense host
// column) instead of map[TaskID][]Choice, built in a single batched pass
// over the participating sites and shared — via CostCache — across every
// policy a Batch or policy-comparison run throws at the same graph.

// HostRef names one dense host column: the host and the site that owns it.
type HostRef struct {
	Site string
	Host string
}

// CostMatrix is the dense candidate table for one (graph, environment)
// pair: Pred[t*H+c] is the pure predicted execution seconds of task t on
// host column c, NaN where the host is ineligible. Columns are grouped by
// site in ascending site-name order and sorted by host name within a site —
// exactly the deterministic merge order of the map-keyed gather, so walks
// that iterate columns in order reproduce the map path's tie-breaks.
//
// Sites whose selector offers no per-host costs (anything but an in-process
// LocalSelector — RPC remotes) contribute no columns; their single best
// offer per task sits in the site block's fallback slice instead. An
// earliest-finish site walk's matrix is all fallback blocks (offerMatrix).
type CostMatrix struct {
	ix     *afg.Index
	hosts  []HostRef
	col    map[string]int32 // host name -> dense column
	pred   []float64        // V×H row-major; NaN = ineligible
	blocks []siteBlock      // participating sites, ascending name
	sites  []string         // participating site names, ascending

	// A re-plan's matrix is lazy: model prices a task's row the first time
	// row asks for it, so a patch strategy pays only for the tasks it
	// re-places. Gathered matrices leave model nil and are always full.
	model  TimeModel
	filled []bool
}

// siteBlock is one site's contribution to the matrix: a column range for
// per-host-cost sites, or an index-addressed fallback offer table.
type siteBlock struct {
	name       string
	col0, col1 int32    // dense column range; col0 == col1 ⇒ fallback site
	fallback   []Choice // idx-indexed best offers (fallback sites only)
}

// Hosts returns the dense column → host table. Callers must not mutate it.
func (cm *CostMatrix) Hosts() []HostRef { return cm.hosts }

// Sites returns the participating site names, ascending.
func (cm *CostMatrix) Sites() []string { return cm.sites }

// Pred returns the predicted seconds for task index t on column c (NaN
// when ineligible).
func (cm *CostMatrix) Pred(t, c int) float64 {
	return cm.row(t)[c]
}

// row returns task t's prediction row.
func (cm *CostMatrix) row(t int) []float64 {
	h := len(cm.hosts)
	row := cm.pred[t*h : (t+1)*h]
	if cm.model != nil && !cm.filled[t] {
		cm.fill(t, row)
	}
	return row
}

// fill prices task t on every column from the lazy matrix's model; a cost
// the model cannot vouch for (NaN, infinite, negative) marks the host
// ineligible.
func (cm *CostMatrix) fill(t int, row []float64) {
	task := cm.ix.Task(t)
	for c, h := range cm.hosts {
		row[c] = cm.model(task, h.Host)
		if !validCost(row[c]) {
			row[c] = math.NaN()
		}
	}
	cm.filled[t] = true
}

func validCost(c float64) bool {
	return !math.IsNaN(c) && !math.IsInf(c, 0) && c >= 0
}

// modelCostMatrix is the lazy matrix of a re-plan: one column per host, in
// the given order — which must be site-then-host ascending, the gather's
// column order — and no row priced until it is read. Its two buffers are
// sc's (placement.releaseScratch hands them back): pred is left dirty
// because row reads nothing it has not filled, filled is reset.
func modelCostMatrix(ix *afg.Index, hosts []HostRef, model TimeModel, sc *scratch) *CostMatrix {
	cm := &CostMatrix{
		ix:     ix,
		hosts:  hosts,
		col:    make(map[string]int32, len(hosts)),
		pred:   grow(sc.lazyPred, ix.Len()*len(hosts)),
		model:  model,
		filled: growZero(sc.lazyFilled, ix.Len()),
	}
	for c, h := range hosts {
		cm.col[h.Host] = int32(c)
		if n := len(cm.blocks); n == 0 || cm.blocks[n-1].name != h.Site {
			cm.sites = append(cm.sites, h.Site)
			cm.blocks = append(cm.blocks, siteBlock{name: h.Site, col0: int32(c)})
		}
		cm.blocks[len(cm.blocks)-1].col1 = int32(c + 1)
	}
	return cm
}

// offerMatrix is the cost matrix of an earliest-finish site walk: no
// columns, and each site a fallback block holding its Fig 5 offers.
func offerMatrix(ix *afg.Index, results []siteResult) *CostMatrix {
	cm := &CostMatrix{ix: ix, blocks: make([]siteBlock, len(results))}
	for i, r := range results {
		cm.blocks[i] = siteBlock{name: r.name, fallback: r.choices}
	}
	return cm
}

// meanExec is w̄(t): the prediction averaged over every candidate of task
// t, accumulated in the same site-then-host order as the map-keyed gather
// so the float result is bit-identical.
func (cm *CostMatrix) meanExec(t int) float64 {
	row := cm.row(t)
	var sum float64
	n := 0
	for _, b := range cm.blocks {
		if b.fallback != nil {
			if c := b.fallback[t]; c.Host != "" {
				sum += c.Predicted
				n++
			}
			continue
		}
		for c := b.col0; c < b.col1; c++ {
			if p := row[c]; !math.IsNaN(p) {
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

// choices materialises task t's candidate list in deterministic order
// (the map-keyed gather's order), appending to buf. Only the parallel
// placement path needs the slice form; the scalar walks iterate the
// matrix directly.
func (cm *CostMatrix) choices(t int, buf []Choice) []Choice {
	row := cm.row(t)
	for _, b := range cm.blocks {
		if b.fallback != nil {
			if c := b.fallback[t]; c.Host != "" {
				buf = append(buf, c)
			}
			continue
		}
		for c := b.col0; c < b.col1; c++ {
			if p := row[c]; !math.IsNaN(p) {
				buf = append(buf, Choice{Site: b.name, Host: cm.hosts[c].Host, Predicted: p})
			}
		}
	}
	return buf
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
	mu         sync.Mutex
	cannotHost []SiteError
	transient  []SiteError
}

// record classifies err: anything wrapping ErrNoEligibleHost is a
// capacity refusal, everything else is transient.
func (d *Diagnostics) record(site string, err error) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if errors.Is(err, ErrNoEligibleHost) {
		d.cannotHost = append(d.cannotHost, SiteError{Site: site, Err: err})
	} else {
		d.transient = append(d.transient, SiteError{Site: site, Err: err})
	}
}

// CannotHost returns the sites dropped because some task had no eligible
// host there, in record order.
func (d *Diagnostics) CannotHost() []SiteError {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]SiteError(nil), d.cannotHost...)
}

// Transient returns the sites dropped for non-capacity reasons (RPC or
// repository failures) — capacity the schedule lost without knowing.
func (d *Diagnostics) Transient() []SiteError {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]SiteError(nil), d.transient...)
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
	errs := make([]error, 0, len(transient)+1)
	errs = append(errs, ErrNoSites)
	for _, e := range transient {
		errs = append(errs, e)
	}
	return errors.Join(errs...)
}

// CostCache shares cost matrices across schedules of the same graph: one
// batched gather per (graph, environment) instead of one per policy per
// graph. Keys are graph identities, so a cache must not outlive its
// environment — a repository or network change invalidates every entry.
// Batch installs one automatically; comparison harnesses share one across
// policies explicitly (WithCostCache).
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
// in-process sites answer with full per-host cost vectors and whose other
// sites answer with their single best choice per task, merged in site-name
// order into one contiguous matrix.
//
//vdce:hot allocs=120
func gatherCostMatrix(ix *afg.Index, req *Request) (*CostMatrix, error) {
	keep, err := multicast(ix, req, func(ls *LocalSelector, r *siteResult) {
		r.hosts, r.pred, r.err = ls.denseHostCosts(ix)
	})
	if err != nil {
		return nil, err
	}

	v := ix.Len()
	cm := &CostMatrix{ix: ix, col: map[string]int32{}}
	total := 0
	for _, g := range keep {
		total += len(g.hosts)
	}
	cm.pred = make([]float64, v*total)
	for i := range cm.pred {
		cm.pred[i] = math.NaN()
	}
	for _, g := range keep {
		cm.sites = append(cm.sites, g.name)
		b := siteBlock{name: g.name, col0: int32(len(cm.hosts)), fallback: g.choices}
		for _, h := range g.hosts {
			cm.col[h] = int32(len(cm.hosts))
			cm.hosts = append(cm.hosts, HostRef{Site: g.name, Host: h})
		}
		b.col1 = int32(len(cm.hosts))
		// Both sides are row-major, so each task's site block moves as
		// one contiguous copy.
		for t := 0; t < v; t++ {
			copy(cm.pred[t*total+int(b.col0):t*total+int(b.col1)],
				g.pred[t*len(g.hosts):(t+1)*len(g.hosts)])
		}
		cm.blocks = append(cm.blocks, b)
	}
	return cm, nil
}

// denseChoices flattens a per-task choice map onto the dense index (an
// empty Host marks "no offer"); ids the index does not know are dropped.
// An offer whose prediction is NaN, infinite or negative would win or
// poison every comparison it enters, so it rejects the whole reply with
// ErrInvalidOffer, naming the first such task in dense order.
func denseChoices(ix *afg.Index, m map[afg.TaskID]Choice) ([]Choice, error) {
	out := make([]Choice, ix.Len())
	//vdce:ignore maporder,detflow ix.Of is injective: every id writes its own dense slot, so visit order cannot be observed
	for id, c := range m {
		if t := ix.Of(id); t >= 0 {
			out[t] = c
		}
	}
	for t, c := range out {
		if c.Host != "" && !validCost(c.Predicted) {
			return nil, fmt.Errorf("%w: task %q predicted %v on %s", ErrInvalidOffer, ix.ID(t), c.Predicted, c.Host)
		}
	}
	return out, nil
}
