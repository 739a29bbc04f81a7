package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/afg"
	"repro/internal/dagen"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/repository"
	"repro/internal/scheduler"
	"repro/internal/vis"
)

// The RANKING experiment reproduces the paper's evaluation methodology:
// instead of scoring the registered policies on one workload (POLICY), it
// sweeps a parametric grid of random DAGs — task count × CCR, generated by
// internal/dagen with fixed shape/out-degree/heterogeneity knobs — and
// scores every policy per cell by Schedule Length Ratio (makespan over the
// critical-path lower bound) and speedup (best serial host over makespan),
// then aggregates pairwise better/equal/worse and best-result counts across
// all runs. Heuristic rankings are regime-dependent — the reason a single
// scenario cannot be trusted — and this grid is where that shows up.
//
// Every schedule is audited by the independent validator
// (scheduler.ValidateSchedule) and the experiment fails loudly if any table
// violates precedence, host exclusivity, or transfer accounting, or if the
// validator's replay disagrees with the simulator's makespan.

// rankingEqualTol is the relative makespan tolerance under which two
// policies count as tied in the pairwise/best tallies.
const rankingEqualTol = 1e-9

// Grid is the parametric dagen sweep RANKING and CHURN share: task counts
// × CCRs × seeded graphs per cell, on Sites sites of HostsPerSite hosts,
// and the pool the cells fan out to.
type Grid struct {
	Sizes         []int     // task counts (grid axis 1)
	CCRs          []float64 // communication-to-computation ratios (grid axis 2)
	Alpha         float64   // dagen shape knob
	OutDegree     int       // dagen fan-out knob
	Beta          float64   // host-heterogeneity range (0 = homogeneous; < 0 = default)
	GraphsPerCell int       // seeded graphs per (size, CCR) cell
	Sites         int
	HostsPerSite  int

	// Workers bounds the pool the (size, CCR, graph) cells fan out to.
	// Cells are completely independent — every worker builds its own
	// seeded environment — so the results are bit-identical to the serial
	// order regardless of the count. 1 runs serially in the calling
	// goroutine; 0 or negative uses GOMAXPROCS.
	Workers int
}

// withDefaults fills g's zero fields from d, except Beta, where zero is
// meaningful (a homogeneous host pool) and only a negative value takes d's.
func (g Grid) withDefaults(d Grid) Grid {
	if len(g.Sizes) == 0 {
		g.Sizes = d.Sizes
	}
	if len(g.CCRs) == 0 {
		g.CCRs = d.CCRs
	}
	if g.Alpha <= 0 {
		g.Alpha = d.Alpha
	}
	if g.OutDegree <= 0 {
		g.OutDegree = d.OutDegree
	}
	if g.Beta < 0 {
		g.Beta = d.Beta
	}
	if g.GraphsPerCell <= 0 {
		g.GraphsPerCell = d.GraphsPerCell
	}
	if g.Sites <= 0 {
		g.Sites = d.Sites
	}
	if g.HostsPerSite <= 0 {
		g.HostsPerSite = d.HostsPerSite
	}
	return g
}

// RankingConfig parameterises the RANKING sweep. Zero grid fields take the
// DefaultRankingConfig values (see Grid.withDefaults).
type RankingConfig struct {
	Grid
	Policies []string // nil = every registered policy
	Seed     int64
}

// DefaultRankingConfig is the grid the RANKING experiment and the committed
// golden results use: 3 sizes × 3 CCRs × 3 graphs on 4 heterogeneous sites.
func DefaultRankingConfig(seed int64) RankingConfig {
	return RankingConfig{
		Grid: Grid{
			Sizes:         []int{20, 40, 80},
			CCRs:          []float64{0.1, 1, 5},
			Alpha:         1,
			OutDegree:     4,
			Beta:          1,
			GraphsPerCell: 3,
			Sites:         4,
			HostsPerSite:  4,
		},
		Seed: seed,
	}
}

// withDefaults fills zero grid fields from DefaultRankingConfig.
func (c RankingConfig) withDefaults() RankingConfig {
	c.Grid = c.Grid.withDefaults(DefaultRankingConfig(c.Seed).Grid)
	return c
}

// RankingCell is one (size, CCR, graph-seed) run: the simulated makespan,
// SLR, and speedup of every policy, in the run's policy order. The golden
// regression test commits these verbatim.
type RankingCell struct {
	Size     int       `json:"size"`
	CCR      float64   `json:"ccr"`
	Graph    int       `json:"graph"`
	Makespan []float64 `json:"makespan"`
	SLR      []float64 `json:"slr"`
	Speedup  []float64 `json:"speedup"`
}

// gridEnv is one grid worker's seeded environment: the Request template
// policies run against (its Net is the sweep's WAN), every host name, and
// the ground-truth time model.
type gridEnv struct {
	req   scheduler.Request
	hosts []string
	truth scheduler.TimeModel
}

// rankingEnv builds the sweep's scheduling environment: cfg.Sites sites of
// cfg.HostsPerSite idle hosts whose speed factors come from the β knob and
// a star WAN at the generator's reference bandwidth.
func rankingEnv(cfg RankingConfig) gridEnv {
	repos := make(map[string]*repository.Repository, cfg.Sites)
	siteNames := make([]string, cfg.Sites)
	var hosts []string
	for s := 0; s < cfg.Sites; s++ {
		name := fmt.Sprintf("site%02d", s)
		siteNames[s] = name
		repo := repository.New()
		speeds := dagen.SpeedFactors(cfg.HostsPerSite, cfg.Beta, cfg.Seed+int64(s)*101)
		for h, sp := range speeds {
			host := fmt.Sprintf("%s-%02d", name, h)
			hosts = append(hosts, host)
			repo.Resources.Register(repository.ResourceStatic{
				HostName: host, Site: name, Arch: "solaris",
				TotalMemory: 1 << 30, SpeedFactor: sp,
			})
			repo.Resources.UpdateDynamic(host, 0, 1<<30, time.Now())
		}
		repos[name] = repo
	}
	net := netsim.StarTopology(siteNames, policyWANLatency, policyWANBand, 1)
	local := &scheduler.LocalSelector{Site: siteNames[0], Repo: repos[siteNames[0]]}
	var remotes []scheduler.HostSelector
	for _, name := range siteNames[1:] {
		remotes = append(remotes, &scheduler.LocalSelector{Site: name, Repo: repos[name]})
	}
	req := scheduler.Request{Local: local, Remotes: remotes, Net: net,
		Config: scheduler.NewConfig(scheduler.WithSeed(cfg.Seed))}
	return gridEnv{req: req, hosts: hosts, truth: truthFromRepos(repos)}
}

// rankingRun names one grid cell: a (size, CCR, graph-index) triple.
type rankingRun struct {
	size int
	ccr  float64
	gi   int
}

// rankingGrid flattens the sweep's triple loop into the serial cell order
// (sizes outer, CCRs middle, graphs inner) — the order the cells slice is
// indexed by under any worker count.
func rankingGrid(cfg RankingConfig) []rankingRun {
	runs := make([]rankingRun, 0, len(cfg.Sizes)*len(cfg.CCRs)*cfg.GraphsPerCell)
	for _, size := range cfg.Sizes {
		for _, ccr := range cfg.CCRs {
			for gi := 0; gi < cfg.GraphsPerCell; gi++ {
				runs = append(runs, rankingRun{size, ccr, gi})
			}
		}
	}
	return runs
}

// rankingCell scores one grid cell against a worker-owned environment:
// generate the cell's seeded graph, bound it (critical path, best serial),
// then schedule, simulate, and validate every policy. policies carries the
// pre-resolved implementations in names order — resolution is hoisted out
// of the grid entirely.
func rankingCell(cfg RankingConfig, r rankingRun, names []string, policies []scheduler.Policy, env gridEnv) (RankingCell, error) {
	net, hosts, truth := env.req.Net, env.hosts, env.truth
	g := dagen.Random(dagen.Params{
		Tasks: r.size, CCR: r.ccr, Alpha: cfg.Alpha,
		OutDegree: cfg.OutDegree, Beta: cfg.Beta,
		CommBandwidth: policyWANBand,
		Seed:          cfg.Seed + int64(r.size)*1_000_003 + int64(r.gi)*7919 + int64(r.ccr*1000),
	})
	lb, err := metrics.CPLowerBound(g, hosts, metrics.CostModel(truth))
	if err != nil {
		return RankingCell{}, fmt.Errorf("ranking: lower bound: %w", err)
	}
	serial, err := metrics.BestSerial(g, hosts, metrics.CostModel(truth))
	if err != nil {
		return RankingCell{}, fmt.Errorf("ranking: best serial: %w", err)
	}
	cell := RankingCell{Size: r.size, CCR: r.ccr, Graph: r.gi}
	for pi, name := range names {
		// One-graph serial batch, like POLICY: the batch path supplies
		// the ledger policy's shared ledger.
		items := (&scheduler.Batch{Policy: policies[pi], Env: env.req, Workers: 1}).
			Schedule([]*afg.Graph{g})
		if items[0].Err != nil {
			return RankingCell{}, fmt.Errorf("ranking: %s on v=%d ccr=%g: %w", name, r.size, r.ccr, items[0].Err)
		}
		mk, err := scheduler.Simulate(g, items[0].Table, truth, net)
		if err != nil {
			return RankingCell{}, fmt.Errorf("ranking: %s: simulate: %w", name, err)
		}
		audit, err := scheduler.ValidateSchedule(g, items[0].Table, truth, net)
		if err != nil {
			return RankingCell{}, fmt.Errorf("ranking: %s on v=%d ccr=%g: validator: %w", name, r.size, r.ccr, err)
		}
		//vdce:ignore floateq bit-identity is the contract: the independent validator must reproduce the simulator's makespan exactly
		if audit.Makespan != mk {
			return RankingCell{}, fmt.Errorf("ranking: %s on v=%d ccr=%g: validator makespan %v != simulator %v",
				name, r.size, r.ccr, audit.Makespan, mk)
		}
		cell.Makespan = append(cell.Makespan, mk)
		cell.SLR = append(cell.SLR, metrics.SLR(mk, lb))
		cell.Speedup = append(cell.Speedup, metrics.Speedup(serial, mk))
	}
	return cell, nil
}

// RankingCells runs the sweep and returns the per-run scores plus the
// resolved policy order. Every schedule passes the independent validator
// and the validator's makespan is cross-checked against the simulator —
// a disagreement is an error, not a data point.
//
// Cells run on cfg.Workers goroutines under runGrid's contract: the
// returned slice is byte-identical to a serial run regardless of the
// worker count.
func RankingCells(cfg RankingConfig) ([]RankingCell, []string, error) {
	cfg = cfg.withDefaults()
	names := cfg.Policies
	if len(names) == 0 {
		names = scheduler.Policies()
	} else {
		names = append([]string(nil), names...)
		sort.Strings(names)
	}
	// Hoist policy resolution out of the grid: one registry lookup per
	// name, not one per (cell, policy).
	policies := make([]scheduler.Policy, len(names))
	for i, name := range names {
		p, err := scheduler.Lookup(name)
		if err != nil {
			return nil, nil, err
		}
		policies[i] = p
	}

	cells, err := runGrid(rankingGrid(cfg), cfg.Workers,
		func() gridEnv { return rankingEnv(cfg) },
		func(env gridEnv, r rankingRun) (RankingCell, error) {
			return rankingCell(cfg, r, names, policies, env)
		})
	if err != nil {
		return nil, nil, err
	}
	return cells, names, nil
}

// Ranking runs the default sweep (DefaultRankingConfig).
func Ranking(seed int64) (*Result, error) {
	return RankingWith(DefaultRankingConfig(seed))
}

// RankingWith runs the sweep under cfg and folds the cells into a Result:
// one series row per (size, CCR) cell carrying the mean SLR of every
// policy, and metrics aggregating mean SLR, mean speedup, best-result
// counts, and the full pairwise win table across all runs.
func RankingWith(cfg RankingConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	cells, names, err := RankingCells(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "RANKING", Metrics: map[string]float64{}}
	yl := []string{"ccr"}
	for _, n := range names {
		yl = append(yl, "slr_"+n)
	}
	res.Series = vis.Series{
		Title: fmt.Sprintf("Ranking — mean SLR per policy over a %d-size × %d-CCR dagen grid, %d graphs/cell (α=%g, β=%g, %d×%d hosts; policies: %s)",
			len(cfg.Sizes), len(cfg.CCRs), cfg.GraphsPerCell, cfg.Alpha, cfg.Beta,
			cfg.Sites, cfg.HostsPerSite, strings.Join(names, ", ")),
		XLabel:  "tasks",
		YLabels: yl,
	}

	res.Series.Rows = blockMeans(cfg.Sizes, cfg.CCRs, cfg.GraphsPerCell, cells,
		func(c RankingCell) []float64 { return c.SLR })

	// Aggregates across every run of the grid.
	runs := make([][]float64, len(cells))
	for i, c := range cells {
		runs[i] = c.Makespan
	}
	for p, name := range names {
		var slr, sp float64
		for _, c := range cells {
			slr += c.SLR[p]
			sp += c.Speedup[p]
		}
		res.Metrics["slr_"+name] = slr / float64(len(cells))
		res.Metrics["speedup_"+name] = sp / float64(len(cells))
	}
	for p, n := range metrics.BestCounts(runs, rankingEqualTol) {
		res.Metrics["best_"+names[p]] = float64(n)
	}
	pw := metrics.Pairwise(runs, rankingEqualTol)
	for a := range names {
		for b := range names {
			if a == b {
				continue
			}
			res.Metrics[fmt.Sprintf("wins_%s_vs_%s", names[a], names[b])] = float64(pw[a][b].Better)
		}
	}
	res.Metrics["runs"] = float64(len(cells))
	return res, nil
}
