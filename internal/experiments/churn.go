package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/afg"
	"repro/internal/dagen"
	"repro/internal/scheduler"
	"repro/internal/vis"
)

// The CHURN experiment is the fault-tolerance twin of RANKING: the same
// parametric dagen grid (task count × CCR), but instead of comparing
// scheduling policies on a healthy environment it schedules each cell once
// (with a baseline policy) and then replays the plan under a seeded churn
// trace — hosts failing mid-run, stragglers overrunning their predictions —
// once per registered frontier re-planner. Scores are makespan degradation
// versus the fault-free replay of the same table, plus re-plan and
// kill counts. Every adopted re-plan inside the executor is certified by
// scheduler.CertifyReplan, so a table that breaks precedence or host
// exclusivity fails the experiment rather than producing a data point.

// ChurnConfig parameterises the CHURN sweep. Zero fields take the
// DefaultChurnConfig values (grid fields as in Grid.withDefaults).
type ChurnConfig struct {
	Grid

	// Policy schedules the baseline plan each re-planner repairs.
	Policy string
	// Replanners selects the frontier re-planners to compare; nil means
	// every registered one.
	Replanners []string
	// Threshold is the overrun detection threshold (actual > threshold ×
	// predicted raises a deviation); default 1.5.
	Threshold float64
	// Trace tunes the fault injector; a zero value takes
	// scheduler.DefaultChurnTrace.
	Trace scheduler.ChurnTraceConfig

	Seed int64
}

// DefaultChurnConfig is the smoke grid the CHURN experiment runs by
// default: 2 sizes × 2 CCRs × 2 graphs on 3 sites of 3 hosts.
func DefaultChurnConfig(seed int64) ChurnConfig {
	return ChurnConfig{
		Grid: Grid{
			Sizes:         []int{20, 40},
			CCRs:          []float64{0.5, 2},
			Alpha:         1,
			OutDegree:     4,
			Beta:          1,
			GraphsPerCell: 2,
			Sites:         3,
			HostsPerSite:  3,
		},
		Policy:    "heft",
		Threshold: 1.5,
		Trace:     scheduler.DefaultChurnTrace,
		Seed:      seed,
	}
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	d := DefaultChurnConfig(c.Seed)
	c.Grid = c.Grid.withDefaults(d.Grid)
	if c.Policy == "" {
		c.Policy = d.Policy
	}
	if c.Threshold <= 0 {
		c.Threshold = d.Threshold
	}
	if c.Trace == (scheduler.ChurnTraceConfig{}) {
		c.Trace = d.Trace
	}
	return c
}

// ChurnCell is one (size, CCR, graph-seed) run: the fault-free makespan of
// the baseline plan and, per re-planner in the run's name order, the
// makespan under churn, its degradation ratio, and the event counts.
type ChurnCell struct {
	Size        int       `json:"size"`
	CCR         float64   `json:"ccr"`
	Graph       int       `json:"graph"`
	FaultFree   float64   `json:"fault_free"`
	Makespan    []float64 `json:"makespan"`
	Degradation []float64 `json:"degradation"`
	Replans     []int     `json:"replans"`
	Moved       []int     `json:"moved"`
	Killed      []int     `json:"killed"`
	DupRuns     []int     `json:"dup_runs"`
}

// churnHostRefs rebuilds the dense candidate pool from the ranking
// environment's host list ("siteNN-MM" names own their site prefix).
func churnHostRefs(hosts []string) []scheduler.HostRef {
	refs := make([]scheduler.HostRef, len(hosts))
	for i, h := range hosts {
		site := h
		if j := strings.LastIndex(h, "-"); j > 0 {
			site = h[:j]
		}
		refs[i] = scheduler.HostRef{Site: site, Host: h}
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Site != refs[j].Site {
			return refs[i].Site < refs[j].Site
		}
		return refs[i].Host < refs[j].Host
	})
	return refs
}

// churnEnv is one CHURN worker's state: the ranking environment plus its
// dense candidate pool.
type churnEnv struct {
	gridEnv
	refs []scheduler.HostRef
}

// churnCell scores one grid cell: schedule the seeded graph once with the
// baseline policy, replay it fault-free for the denominator, then run the
// churn executor once per re-planner on the same seeded trace.
func churnCell(cfg ChurnConfig, r rankingRun, names []string, policy scheduler.Policy, env churnEnv) (ChurnCell, error) {
	net, hosts, refs, truth := env.req.Net, env.hosts, env.refs, env.truth
	cellSeed := cfg.Seed + int64(r.size)*1_000_003 + int64(r.gi)*7919 + int64(r.ccr*1000)
	g := dagen.Random(dagen.Params{
		Tasks: r.size, CCR: r.ccr, Alpha: cfg.Alpha,
		OutDegree: cfg.OutDegree, Beta: cfg.Beta,
		CommBandwidth: policyWANBand,
		Seed:          cellSeed,
	})
	items := (&scheduler.Batch{Policy: policy, Env: env.req, Workers: 1}).
		Schedule([]*afg.Graph{g})
	if items[0].Err != nil {
		return ChurnCell{}, fmt.Errorf("churn: %s on v=%d ccr=%g: %w", cfg.Policy, r.size, r.ccr, items[0].Err)
	}
	table := items[0].Table
	fair, err := scheduler.Simulate(g, table, truth, net)
	if err != nil {
		return ChurnCell{}, fmt.Errorf("churn: fault-free simulate: %w", err)
	}
	trace := scheduler.GenerateChurnTrace(hosts, fair, cfg.Trace, cellSeed+1)
	cell := ChurnCell{Size: r.size, CCR: r.ccr, Graph: r.gi, FaultFree: fair}
	for _, name := range names {
		out, err := scheduler.RunChurn(g, table, truth, net, refs, trace, scheduler.ChurnConfig{
			OverrunThreshold: cfg.Threshold,
			Replanner:        name,
		})
		if err != nil {
			return ChurnCell{}, fmt.Errorf("churn: %s on v=%d ccr=%g: %w", name, r.size, r.ccr, err)
		}
		cell.Makespan = append(cell.Makespan, out.Makespan)
		cell.Degradation = append(cell.Degradation, out.Makespan/fair)
		cell.Replans = append(cell.Replans, out.Replans)
		cell.Moved = append(cell.Moved, out.Moved)
		cell.Killed = append(cell.Killed, out.Killed)
		cell.DupRuns = append(cell.DupRuns, out.DupRuns)
	}
	return cell, nil
}

// ChurnCells runs the sweep and returns the per-run scores plus the
// resolved re-planner order. Cells run under runGrid's contract, like
// RankingCells: the result is byte-identical to a serial run for any
// worker count.
func ChurnCells(cfg ChurnConfig) ([]ChurnCell, []string, error) {
	cfg = cfg.withDefaults()
	names := cfg.Replanners
	if len(names) == 0 {
		names = scheduler.Replanners()
	} else {
		names = append([]string(nil), names...)
		sort.Strings(names)
	}
	for _, name := range names {
		if _, err := scheduler.LookupReplanner(name); err != nil {
			return nil, nil, err
		}
	}
	policy, err := scheduler.Lookup(cfg.Policy)
	if err != nil {
		return nil, nil, err
	}

	rcfg := RankingConfig{Grid: cfg.Grid, Seed: cfg.Seed}
	cells, err := runGrid(rankingGrid(rcfg), cfg.Workers,
		func() churnEnv {
			env := rankingEnv(rcfg)
			return churnEnv{env, churnHostRefs(env.hosts)}
		},
		func(env churnEnv, r rankingRun) (ChurnCell, error) {
			return churnCell(cfg, r, names, policy, env)
		})
	if err != nil {
		return nil, nil, err
	}
	return cells, names, nil
}

// Churn runs the default fault-injection sweep (DefaultChurnConfig).
func Churn(seed int64) (*Result, error) {
	return ChurnWith(DefaultChurnConfig(seed))
}

// ChurnWith runs the sweep under cfg and folds the cells into a Result:
// one series row per (size, CCR) cell carrying the mean makespan
// degradation of every re-planner, and metrics aggregating degradation,
// re-plan, kill, and duplicate-promotion counts across all runs.
func ChurnWith(cfg ChurnConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	cells, names, err := ChurnCells(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "CHURN", Metrics: map[string]float64{}}
	yl := []string{"ccr"}
	for _, n := range names {
		yl = append(yl, "deg_"+n)
	}
	res.Series = vis.Series{
		Title: fmt.Sprintf("Churn — mean makespan degradation per re-planner over a %d-size × %d-CCR dagen grid, %d graphs/cell (policy %s, threshold %g, fail %g, straggle %g×%g; re-planners: %s)",
			len(cfg.Sizes), len(cfg.CCRs), cfg.GraphsPerCell, cfg.Policy, cfg.Threshold,
			cfg.Trace.FailFraction, cfg.Trace.StraggleFraction, cfg.Trace.StraggleFactor,
			strings.Join(names, ", ")),
		XLabel:  "tasks",
		YLabels: yl,
	}

	res.Series.Rows = blockMeans(cfg.Sizes, cfg.CCRs, cfg.GraphsPerCell, cells,
		func(c ChurnCell) []float64 { return c.Degradation })

	for p, name := range names {
		var deg, rp, mv, kl, dp float64
		for _, c := range cells {
			deg += c.Degradation[p]
			rp += float64(c.Replans[p])
			mv += float64(c.Moved[p])
			kl += float64(c.Killed[p])
			dp += float64(c.DupRuns[p])
		}
		n := float64(len(cells))
		res.Metrics["degradation_"+name] = deg / n
		res.Metrics["replans_"+name] = rp / n
		res.Metrics["moved_"+name] = mv / n
		res.Metrics["killed_"+name] = kl / n
		res.Metrics["dup_runs_"+name] = dp / n
	}
	res.Metrics["runs"] = float64(len(cells))
	return res, nil
}
