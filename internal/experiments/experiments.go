// Package experiments implements the evaluation harness: one experiment per
// paper figure (the paper has no numeric tables — its figures are
// architecture and algorithm descriptions, so each experiment quantifies
// the behavioural claim the figure makes). cmd/vdce-bench prints the
// series, or with -json the headline metrics.
package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/afg"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/predict"
	"repro/internal/repository"
	"repro/internal/resource"
	"repro/internal/scheduler"
	"repro/internal/site"
	"repro/internal/vis"
	"repro/internal/workload"
)

// Result is one experiment's rendered output plus headline numbers the
// benchmarks report as metrics.
type Result struct {
	ID      string
	Series  vis.Series
	Metrics map[string]float64
}

// Fig1MultiSite (paper Fig 1: the multi-site VDCE overview): end-to-end
// application completion as sites join the environment, 4 hosts per site.
// Claim: the metacomputing pitch — aggregating geographically distributed
// resources shortens compute-bound applications despite the WAN between
// them (the per-branch data is small; Fig 4 covers the data-heavy regime).
func Fig1MultiSite(seed int64) (*Result, error) {
	res := &Result{ID: "FIG1", Metrics: map[string]float64{}}
	res.Series = vis.Series{
		Title:   "Fig 1 — multi-site aggregation (4 hosts/site, fork-join width 24)",
		XLabel:  "sites",
		YLabels: []string{"makespan_s", "sites_used"},
	}
	for _, sites := range []int{1, 2, 4} {
		env := core.NewEnvironment(core.Options{Seed: seed})
		for s := 0; s < sites; s++ {
			if _, err := env.AddSite(fmt.Sprintf("site%d", s), 4); err != nil {
				return nil, err
			}
		}
		g := workload.ForkJoin(24, 0.5, 1<<10)
		table, err := env.Schedule(context.Background(), "site0", "faithful", g)
		if err != nil {
			return nil, err
		}
		mk, err := scheduler.Simulate(g, table, env.TruthModel(), env.Net())
		if err != nil {
			return nil, err
		}
		res.Series.Rows = append(res.Series.Rows, []float64{
			float64(sites), mk, float64(len(table.Sites())),
		})
		res.Metrics[fmt.Sprintf("makespan_s_%dsites", sites)] = mk
	}
	return res, nil
}

// Fig2Pipeline (paper Fig 2: module interactions): the latency of each stage
// of the software-development cycle — editor validation + level computation,
// distributed scheduling, and runtime execution — for the linear solver.
// Claim: the middleware stages are cheap relative to execution.
func Fig2Pipeline(seed int64) (*Result, error) {
	env := core.NewEnvironment(core.Options{Seed: seed})
	for _, s := range []string{"syracuse", "rome"} {
		if _, err := env.AddSite(s, 4); err != nil {
			return nil, err
		}
	}
	res := &Result{ID: "FIG2", Metrics: map[string]float64{}}
	res.Series = vis.Series{
		Title:   "Fig 2 — editor→scheduler→runtime stage latency (linear solver, n=64)",
		XLabel:  "stage#",
		YLabels: []string{"latency_ms"},
	}
	g, err := workload.LinearSolver(nil, 64, int(seed), false, 0)
	if err != nil {
		return nil, err
	}

	// Stage timers at nanosecond resolution: validating an already-indexed
	// graph takes under a microsecond, which whole microseconds read as 0.
	sinceMS := func(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

	t0 := time.Now()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if _, err := g.Levels(); err != nil {
		return nil, err
	}
	editorMS := sinceMS(t0)

	t1 := time.Now()
	table, err := env.Schedule(context.Background(), "syracuse", "faithful", g)
	if err != nil {
		return nil, err
	}
	schedMS := sinceMS(t1)

	t2 := time.Now()
	m, _ := env.Site("syracuse")
	if _, err := executeOn(env, m, g, table); err != nil {
		return nil, err
	}
	runMS := sinceMS(t2)

	res.Series.Rows = [][]float64{{1, editorMS}, {2, schedMS}, {3, runMS}}
	res.Metrics["editor_ms"] = editorMS
	res.Metrics["scheduler_ms"] = schedMS
	res.Metrics["runtime_ms"] = runMS
	return res, nil
}

func executeOn(env *core.Environment, m *site.Manager, g *afg.Graph, table *scheduler.AllocationTable) (float64, error) {
	ctx := context.Background()
	res, _, err := m.ExecuteLocal(ctx, g, nil, env.ResolveHost)
	if err != nil {
		return 0, err
	}
	_ = table
	return res.Makespan.Seconds(), nil
}

// Fig3LinearSolver (paper Fig 3: the Linear Equation Solver application):
// end-to-end wall time of the flagship application across problem sizes,
// sequential vs parallel LU mode. Claim: the application runs correctly
// (residual ≈ 0) and parallel task mode helps at large n.
func Fig3LinearSolver(seed int64) (*Result, error) {
	env := core.NewEnvironment(core.Options{Seed: seed})
	if _, err := env.AddSite("syracuse", 4); err != nil {
		return nil, err
	}
	res := &Result{ID: "FIG3", Metrics: map[string]float64{}}
	res.Series = vis.Series{
		Title:   "Fig 3 — linear equation solver, sequential vs parallel LU",
		XLabel:  "n",
		YLabels: []string{"seq_ms", "par_ms", "residual"},
	}
	for _, n := range []int{64, 128, 256} {
		var row []float64
		row = append(row, float64(n))
		var residual float64
		for _, par := range []bool{false, true} {
			g, err := workload.LinearSolver(nil, n, int(seed), par, 4)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			out, _, err := env.Submit(context.Background(), "syracuse", g)
			if err != nil {
				return nil, err
			}
			row = append(row, float64(time.Since(start).Microseconds())/1000)
			residual = out.Output("check").Scalar
		}
		row = append(row, residual)
		res.Series.Rows = append(res.Series.Rows, row)
		res.Metrics[fmt.Sprintf("speedup_n%d", n)] = row[1] / row[2]
	}
	return res, nil
}

// Fig4SiteScheduler (paper Fig 4: the Site Scheduler Algorithm): simulated
// makespan and inter-site communication time of transfer-aware site
// selection vs the transfer-blind ablation, as WAN latency grows. Claim:
// charging transfer_time(Sparent, Sj) keeps communicating tasks together
// and wins increasingly as the WAN gets slower.
func Fig4SiteScheduler(seed int64) (*Result, error) {
	res := &Result{ID: "FIG4", Metrics: map[string]float64{}}
	res.Series = vis.Series{
		Title:   "Fig 4 — transfer-aware vs transfer-blind site selection (2 sites, data-heavy pipeline)",
		XLabel:  "wan_ms",
		YLabels: []string{"aware_s", "blind_s", "aware_comm_s", "blind_comm_s"},
	}
	for _, wanMS := range []int{5, 20, 50, 100} {
		net := netsim.New(netsim.DefaultLAN, 1)
		net.Connect("syr", "rome", netsim.PathSpec{
			Latency:   time.Duration(wanMS) * time.Millisecond,
			Bandwidth: 2e6,
		})
		// The local site has one fast machine whose queue fills up; the
		// remote site's machines are slightly faster than the local
		// leftovers. The transfer-blind scheduler hops to whichever host
		// predicts fastest, ping-ponging the 1 MB payload across the WAN;
		// the transfer-aware scheduler keeps the chain with its parent.
		syr := repoSiteSpeeds("syr", []float64{5, 1, 1, 1})
		rome := repoSiteSpeeds("rome", []float64{1.3, 1.3, 1.3, 1.3})
		g := workload.Pipeline(12, 0.05, 1<<20) // 1 MB between stages

		truth := truthFromRepos(map[string]*repository.Repository{"syr": syr, "rome": rome})
		var mks, comms [2]float64
		for i, aware := range []bool{true, false} {
			table, err := schedule("faithful", scheduler.NewRequest(g,
				&scheduler.LocalSelector{Site: "syr", Repo: syr},
				[]scheduler.HostSelector{&scheduler.LocalSelector{Site: "rome", Repo: rome}},
				net, scheduler.WithTransferAware(aware)))
			if err != nil {
				return nil, err
			}
			mk, err := scheduler.Simulate(g, table, truth, net)
			if err != nil {
				return nil, err
			}
			mks[i] = mk
			comms[i] = scheduler.CommVolume(g, table, net)
		}
		res.Series.Rows = append(res.Series.Rows, []float64{
			float64(wanMS), mks[0], mks[1], comms[0], comms[1],
		})
		res.Metrics[fmt.Sprintf("blind_over_aware_%dms", wanMS)] = mks[1] / mks[0]
	}
	return res, nil
}

// Fig5HostSelection (paper Fig 5: the Host Selection Algorithm):
// prediction-driven host choice vs random, round-robin, min-load, and
// fastest-host baselines on a heterogeneous, skew-loaded site. Claim:
// using Predict(task, R) — weights AND loads — beats policies that ignore
// either.
func Fig5HostSelection(seed int64) (*Result, error) {
	res := &Result{ID: "FIG5", Metrics: map[string]float64{}}
	res.Series = vis.Series{
		Title:   "Fig 5 — host selection vs baselines (30 independent tasks)",
		XLabel:  "hosts",
		YLabels: []string{"vdce_s", "random_s", "roundrobin_s", "minload_s", "fastest_s"},
	}
	for _, hosts := range []int{4, 8, 16, 32} {
		repo := repoSiteSkewed("syr", hosts, 8, seed)
		sites := map[string]*repository.Repository{"syr": repo}
		net := netsim.New(netsim.DefaultLAN, 1)
		g := independentTasks(30, 2.0, seed)
		truth := truthFromRepos(sites)

		req := scheduler.NewRequest(g, &scheduler.LocalSelector{Site: "syr", Repo: repo}, nil, net,
			scheduler.WithSeed(seed))
		row := []float64{float64(hosts)}
		for _, policy := range []string{"faithful", "random", "roundrobin", "minload", "fastest"} {
			table, err := schedule(policy, req)
			if err != nil {
				return nil, err
			}
			mk, err := scheduler.Simulate(g, table, truth, net)
			if err != nil {
				return nil, err
			}
			row = append(row, mk)
		}
		res.Series.Rows = append(res.Series.Rows, row)
		res.Metrics[fmt.Sprintf("random_over_vdce_%dhosts", hosts)] = row[2] / row[1]
	}
	return res, nil
}

// Fig6Monitoring (paper Fig 6: Resource Controller interactions): update
// traffic with and without the confidence-interval change filter as the
// fraction of busy (load-varying) hosts grows, plus failure-detection
// latency in monitoring rounds. Claim: with the filter, update traffic
// tracks the number of hosts whose workload actually changes — idle
// workstations cost (almost) nothing — and failures are detected within
// one round.
func Fig6Monitoring(seed int64) (*Result, error) {
	res := &Result{ID: "FIG6", Metrics: map[string]float64{}}
	res.Series = vis.Series{
		Title:   "Fig 6 — monitoring traffic: change filter vs send-all (32 hosts, 100 rounds)",
		XLabel:  "busy_frac",
		YLabels: []string{"filtered_msgs", "unfiltered_msgs", "saving_pct"},
	}
	for _, busy := range []float64{0, 0.25, 0.5, 1} {
		filtered := runMonitorRounds(busy, false, seed)
		unfiltered := runMonitorRounds(busy, true, seed)
		saving := 100 * (1 - float64(filtered)/float64(unfiltered))
		res.Series.Rows = append(res.Series.Rows, []float64{
			busy, float64(filtered), float64(unfiltered), saving,
		})
		res.Metrics[fmt.Sprintf("saving_pct_busy%.2f", busy)] = saving
	}
	// Failure detection: kill one host, count rounds until the sink hears.
	hosts := genHosts(8, 0.2, seed)
	sink := &countingSink{}
	gm := monitor.NewGroupManager("g", "syr", hosts, sink, monitor.DefaultConfig, nil)
	gm.Tick()
	hosts[3].SetDown(true)
	rounds := 0
	for sink.downs == 0 && rounds < 10 {
		gm.Tick()
		rounds++
	}
	res.Metrics["failure_detect_rounds"] = float64(rounds)
	return res, nil
}

// Fig7ExecSetup (paper Fig 7: setting up the application execution
// environment): wall time of the Data Manager channel-setup handshake as
// the task count grows, and socket-path transfer throughput across message
// sizes. Claim: setup scales roughly linearly in channels and the socket
// path sustains high throughput.
func Fig7ExecSetup(seed int64) (*Result, error) {
	res := &Result{ID: "FIG7", Metrics: map[string]float64{}}
	res.Series = vis.Series{
		Title:   "Fig 7 — execution environment setup time vs task count (socket mode pipeline)",
		XLabel:  "tasks",
		YLabels: []string{"setup+run_ms"},
	}
	env := core.NewEnvironment(core.Options{Seed: seed, SiteConfig: site.Config{UseSockets: true}})
	if _, err := env.AddSite("syracuse", 8); err != nil {
		return nil, err
	}
	for _, tasks := range []int{2, 8, 24, 48} {
		g := workload.Pipeline(tasks, 0, 1<<12)
		start := time.Now()
		if _, _, err := env.Submit(context.Background(), "syracuse", g); err != nil {
			return nil, err
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		res.Series.Rows = append(res.Series.Rows, []float64{float64(tasks), ms})
		res.Metrics[fmt.Sprintf("setup_ms_%dtasks", tasks)] = ms
	}
	return res, nil
}

// PredictionAccuracy (§2.2.1, the prediction model): mean absolute
// percentage error of Predict() against ground truth under the three
// forecasting policies, as load volatility grows. Claim: forecasting from
// a window of recent measurements keeps predictions useful even on
// volatile hosts.
func PredictionAccuracy(seed int64) (*Result, error) {
	res := &Result{ID: "TAB-PRED", Metrics: map[string]float64{}}
	res.Series = vis.Series{
		Title:   "Prediction accuracy — MAPE%% by forecaster vs load volatility",
		XLabel:  "volatility",
		YLabels: []string{"lastvalue", "windowmean", "expsmooth", "ar1"},
	}
	for _, vol := range []float64{0.02, 0.1, 0.3} {
		host := resource.NewHost(resource.HostSpec{Name: "h", TotalMemory: 1 << 30, SpeedFactor: 2},
			resource.LoadModel{Baseline: 0.5, Volatility: vol, Rho: 0.8}, seed)
		fcs := []predict.Forecaster{
			&predict.LastValue{}, predict.NewWindow(8),
			predict.NewExponentialSmoothing(0.3), predict.NewAR1(32),
		}
		errs := make([]float64, len(fcs))
		const rounds = 400
		for r := 0; r < rounds; r++ {
			actualLoad := host.StepLoad()
			truth := 2.0 * 0.5 * (1 + actualLoad) // base 2 s × weight 0.5
			for i, f := range fcs {
				pred := predict.Seconds(predict.Inputs{BaseTime: 2, Weight: 0.5, CPULoad: f.Forecast()})
				errs[i] += math.Abs(pred-truth) / truth
				f.Observe(actualLoad)
			}
		}
		row := []float64{vol}
		for _, e := range errs {
			row = append(row, 100*e/rounds)
		}
		res.Series.Rows = append(res.Series.Rows, row)
		res.Metrics[fmt.Sprintf("mape_window_vol%.2f", vol)] = row[2]
	}
	return res, nil
}

// ScheduleQuality (§2.2, "minimise the schedule length"): level-priority
// list scheduling vs the FIFO-priority ablation and random placement on
// layered random DAGs of growing size. Claim: level priority shortens
// schedules.
func ScheduleQuality(seed int64) (*Result, error) {
	res := &Result{ID: "TAB-SCHED", Metrics: map[string]float64{}}
	res.Series = vis.Series{
		Title:   "Schedule quality — level priority vs FIFO vs random (ratio to CP lower bound)",
		XLabel:  "tasks",
		YLabels: []string{"level_ratio", "fifo_ratio", "random_ratio"},
	}
	for _, layers := range []int{4, 8, 16} {
		g := workload.LayeredRandom(workload.LayeredConfig{
			Layers: layers, Width: 6, Density: 0.35,
			MinCost: 0.5, MaxCost: 5, MaxBytes: 1 << 14, Seed: seed + int64(layers),
		})
		repo := repoSiteSkewed("syr", 8, 4, seed)
		sites := map[string]*repository.Repository{"syr": repo}
		net := netsim.New(netsim.DefaultLAN, 1)
		truth := truthFromRepos(sites)
		cp, err := g.CriticalPathLength()
		if err != nil {
			return nil, err
		}
		// True lower bound: the critical path executed end-to-end on the
		// fastest idle host in the pool.
		lb := cp
		for _, rec := range repo.Resources.List() {
			if v := cp / rec.Static.SpeedFactor; v < lb {
				lb = v
			}
		}
		sel := &scheduler.LocalSelector{Site: "syr", Repo: repo}
		runs := []struct {
			policy string
			req    *scheduler.Request
		}{
			{"faithful", scheduler.NewRequest(g, sel, nil, net)},
			{"faithful", scheduler.NewRequest(g, sel, nil, net, scheduler.WithPriority(scheduler.FIFOPriority))},
			{"random", scheduler.NewRequest(g, sel, nil, net, scheduler.WithSeed(seed))},
		}

		row := []float64{float64(g.Len())}
		for _, r := range runs {
			table, err := schedule(r.policy, r.req)
			if err != nil {
				return nil, err
			}
			mk, err := scheduler.Simulate(g, table, truth, net)
			if err != nil {
				return nil, err
			}
			row = append(row, mk/lb)
		}
		res.Series.Rows = append(res.Series.Rows, row)
		res.Metrics[fmt.Sprintf("fifo_over_level_%dlayers", layers)] = row[2] / row[1]
	}
	return res, nil
}

// Experiment is one runnable experiment: the id vdce-bench selects it by,
// and its run at a seed.
type Experiment struct {
	ID  string
	Run func(seed int64) (*Result, error)
}

// Experiments lists every experiment in figure order, in a fresh slice the
// caller may edit.
func Experiments() []Experiment {
	return []Experiment{
		{"FIG1", Fig1MultiSite}, {"FIG2", Fig2Pipeline}, {"FIG3", Fig3LinearSolver},
		{"FIG4", Fig4SiteScheduler}, {"FIG5", Fig5HostSelection}, {"FIG6", Fig6Monitoring},
		{"FIG7", Fig7ExecSetup}, {"TAB-PRED", PredictionAccuracy}, {"TAB-SCHED", ScheduleQuality},
		{"POLICY", PolicyComparison}, {"RANKING", Ranking}, {"CHURN", Churn},
	}
}
