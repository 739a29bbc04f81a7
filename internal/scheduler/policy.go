package scheduler

import (
	"context"

	"repro/internal/afg"
	"repro/internal/netsim"
	"repro/internal/repository"
)

// Policy is the pluggable scheduling-heuristic contract: every scheduling
// algorithm in the system — the paper-faithful Site Scheduler, its
// availability-aware variants, the HEFT/CPOP list heuristics, and the naive
// baselines — maps an application flow graph to a resource allocation table
// through this one interface. Policies are stateless singletons registered
// by name (Register/Lookup/Policies); everything a run needs travels in the
// Request, so one Policy value may serve concurrent Schedule calls.
type Policy interface {
	// Name is the registry key ("faithful", "eft", "heft", ...).
	Name() string
	// Schedule maps req.Graph onto the environment described by req.
	Schedule(ctx context.Context, req *Request) (*AllocationTable, error)
}

// Priority is a list scheduler's priority phase: one static key per dense
// task index. Both figures' walks take tasks by descending key, ascending
// index (= ascending TaskID) on ties. nil means (*afg.Index).Levels, the
// paper's rule ("the node with a higher level value will have a higher
// priority"); FIFOPriority holds the key constant.
type Priority func(*afg.Index) []float64

// FIFOPriority is the level-priority ablation: every key equal, so tasks go
// in plain id order. Install it with WithPriority to measure what the
// paper's level rule buys.
func FIFOPriority(ix *afg.Index) []float64 { return make([]float64, ix.Len()) }

// keys evaluates the priority phase for one graph.
func (p Priority) keys(ix *afg.Index) []float64 {
	if p == nil {
		return ix.Levels()
	}
	return p(ix)
}

// Request carries one scheduling problem: the application flow graph, the
// predictor services of the participating sites (the local Host Selection
// service plus remote peers), the network model, and the tuning Config.
type Request struct {
	// Graph is the application flow graph to place.
	Graph *afg.Graph

	// Local is the local site's Host Selection service (the predictor the
	// paper's Fig 5 algorithm runs against). Policies that want per-host
	// costs (HEFT/CPOP) read them from in-process LocalSelectors; any
	// other selector contributes its single best offer per task.
	Local HostSelector

	// Remotes are the other known sites; Config.K bounds the fan-out.
	Remotes []HostSelector

	// Net supplies transfer_time(Si, Sj); nil means communication is free.
	Net *netsim.Network

	// Sites optionally exposes the raw site repositories for policies that
	// need host inventories rather than predictions (the naive baselines).
	// When nil, repositories are recovered from any in-process
	// LocalSelector among Local/Remotes.
	Sites map[string]*repository.Repository

	// Diag, when non-nil, collects per-site gather diagnostics: which
	// sites were dropped from the multicast and whether the drop was a
	// capacity refusal (the site cannot host some task) or a transient
	// failure (RPC or repository error) — lost capacity that previously
	// vanished without trace.
	Diag *Diagnostics

	// Config tunes the run; build it with NewConfig and the With* options.
	Config Config
}

// NewRequest assembles a Request over the given environment with the
// functional options applied on top of the defaults.
func NewRequest(g *afg.Graph, local HostSelector, remotes []HostSelector, net *netsim.Network, opts ...Option) *Request {
	return &Request{
		Graph:   g,
		Local:   local,
		Remotes: remotes,
		Net:     net,
		Config:  NewConfig(opts...),
	}
}

// siteRepos returns the repositories visible to this request: the explicit
// Sites map when set, else whatever the in-process selectors expose.
func (r *Request) siteRepos() map[string]*repository.Repository {
	if len(r.Sites) > 0 {
		return r.Sites
	}
	out := map[string]*repository.Repository{}
	add := func(sel HostSelector) {
		if ls, ok := sel.(*LocalSelector); ok && ls.Repo != nil {
			out[ls.Site] = ls.Repo
		}
	}
	if r.Local != nil {
		add(r.Local)
	}
	for _, sel := range r.Remotes {
		add(sel)
	}
	return out
}

// Config is the one knob block shared by every policy. Which algorithm
// runs is never a knob — that is the registered policy's name. The zero
// value is NOT the default — use NewConfig so defaults (transfer-aware
// placement) apply.
type Config struct {
	// Ledger is the shared cross-application load ledger; non-nil implies
	// availability-aware placement for the site policies and seeds the
	// HEFT/CPOP host timelines with other applications' reservations.
	Ledger *LoadLedger

	// Concurrency bounds the per-site fan-out worker pool
	// (0 = GOMAXPROCS, 1 = serial).
	Concurrency int

	// Priority keys the site policies' task order — the ready set of the
	// Site Scheduler walk and the queue of every in-process site's Host
	// Selection walk; nil uses the paper's level rule. RPC peers always
	// walk their own queue by level.
	Priority Priority

	// TransferAware toggles the transfer-time term of the faithful
	// objective (default true; false is the Fig 4 ablation).
	TransferAware bool

	// K bounds the neighbour-site fan-out (0 = all remotes).
	K int

	// Seed feeds the randomized policies ("random").
	Seed int64

	// Costs, when non-nil, shares batched cost-matrix gathers across
	// schedules of the same graph (HEFT/CPOP): a policy-comparison run
	// gathers each graph once instead of once per policy. The cache is
	// keyed by graph identity and must not outlive the environment.
	Costs *CostCache
}

// Option mutates a Config (functional options).
type Option func(*Config)

// NewConfig returns the default configuration with opts applied.
func NewConfig(opts ...Option) Config {
	c := Config{TransferAware: true}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// WithLedger threads the shared cross-application load ledger through the
// run (implying availability-aware placement for the site policies).
func WithLedger(l *LoadLedger) Option { return func(c *Config) { c.Ledger = l } }

// WithConcurrency bounds the per-site fan-out workers (0 = GOMAXPROCS).
func WithConcurrency(n int) Option { return func(c *Config) { c.Concurrency = n } }

// WithPriority installs a task-priority key (nil = the level rule).
func WithPriority(p Priority) Option { return func(c *Config) { c.Priority = p } }

// WithTransferAware toggles the transfer-time term (default on).
func WithTransferAware(on bool) Option { return func(c *Config) { c.TransferAware = on } }

// WithK bounds the neighbour-site fan-out (0 = all remotes).
func WithK(k int) Option { return func(c *Config) { c.K = k } }

// WithSeed seeds the randomized policies.
func WithSeed(seed int64) Option { return func(c *Config) { c.Seed = seed } }

// WithCostCache shares one cost-matrix cache across requests built from
// this config (one batched candidate gather per graph, however many
// policies schedule it).
func WithCostCache(cc *CostCache) Option { return func(c *Config) { c.Costs = cc } }
