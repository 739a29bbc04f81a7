// Command vdce-bench regenerates the paper's evaluation: one experiment per
// figure (plus the two quantitative claims made in prose), printed as
// aligned tables, CSV, or JSON.
//
// Usage:
//
//	vdce-bench                       # run everything
//	vdce-bench -exp FIG4,FIG5        # run selected experiments
//	vdce-bench -csv                  # CSV output
//	vdce-bench -json                 # machine-readable JSON (CI artifacts)
//	vdce-bench -seed 7               # change the deterministic seed
//	vdce-bench -cpuprofile cpu.prof  # profile the run (go tool pprof)
//	vdce-bench -memprofile mem.prof  # heap profile at exit
//
// The RANKING experiment's grid is adjustable from the command line:
//
//	vdce-bench -exp RANKING -ranking-sizes 10,20,30 -ranking-ccrs 0.5,1,2 -ranking-graphs 1
//	vdce-bench -exp RANKING -ranking-workers 8   # parallel grid, bit-identical results
//
// So is the CHURN fault-injection sweep:
//
//	vdce-bench -exp CHURN -churn-sizes 20,40 -churn-ccrs 0.5,2 -churn-graphs 2
//	vdce-bench -exp CHURN -churn-replanners eft,dup -churn-threshold 2 -churn-workers 8
//
// Timings per commit are the job of benchmark/ (see its README), not of
// this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

var experimentFuncs = map[string]func(int64) (*experiments.Result, error){
	"FIG1":      experiments.Fig1MultiSite,
	"FIG2":      experiments.Fig2Pipeline,
	"FIG3":      experiments.Fig3LinearSolver,
	"FIG4":      experiments.Fig4SiteScheduler,
	"FIG5":      experiments.Fig5HostSelection,
	"FIG6":      experiments.Fig6Monitoring,
	"FIG7":      experiments.Fig7ExecSetup,
	"TAB-PRED":  experiments.PredictionAccuracy,
	"TAB-SCHED": experiments.ScheduleQuality,
	"SCALE":     experiments.ScaleScheduling,
	"LEDGER":    experiments.AvailabilityScheduling,
	"POLICY":    experiments.PolicyComparison,
	"RANKING":   experiments.Ranking,
	"CHURN":     experiments.Churn,
}

var experimentOrder = []string{
	"FIG1", "FIG2", "FIG3", "FIG4", "FIG5", "FIG6", "FIG7", "TAB-PRED", "TAB-SCHED", "SCALE", "LEDGER", "POLICY", "RANKING", "CHURN",
}

func main() {
	// run does the work so its defers (profile flushes) fire exactly once
	// before the exit code is surfaced — os.Exit in main would skip them.
	os.Exit(run())
}

func run() int {
	exp := flag.String("exp", "all", "comma-separated experiment ids (FIG1..FIG7, TAB-PRED, TAB-SCHED, SCALE, LEDGER, POLICY, RANKING, CHURN) or 'all'")
	seed := flag.Int64("seed", 1, "deterministic seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := flag.Bool("json", false, "emit one JSON document for all selected experiments (rows + metrics)")
	policies := flag.String("policies", "", "restrict the POLICY experiment to these comma-separated scheduling policies (empty = all registered)")
	rankSizes := flag.String("ranking-sizes", "", "RANKING grid task counts, comma-separated (empty = default grid)")
	rankCCRs := flag.String("ranking-ccrs", "", "RANKING grid CCR values, comma-separated (empty = default grid)")
	rankGraphs := flag.Int("ranking-graphs", 0, "RANKING graphs per grid cell (0 = default)")
	rankWorkers := flag.Int("ranking-workers", 0, "RANKING worker-pool size; results are bit-identical for any value (0 = GOMAXPROCS, 1 = serial)")
	churnSizes := flag.String("churn-sizes", "", "CHURN grid task counts, comma-separated (empty = default grid)")
	churnCCRs := flag.String("churn-ccrs", "", "CHURN grid CCR values, comma-separated (empty = default grid)")
	churnGraphs := flag.Int("churn-graphs", 0, "CHURN graphs per grid cell (0 = default)")
	churnWorkers := flag.Int("churn-workers", 0, "CHURN worker-pool size; results are bit-identical for any value (0 = GOMAXPROCS, 1 = serial)")
	churnReplanners := flag.String("churn-replanners", "", "restrict the CHURN experiment to these comma-separated re-planners (empty = all registered)")
	churnThreshold := flag.Float64("churn-threshold", 0, "CHURN overrun threshold as a multiple of the predicted duration (0 = default)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	// Profiling hooks: hot-path regressions in the scheduling core are
	// diagnosable straight from the evaluation binary, no code edits.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date live-object statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if *policies != "" {
		var names []string
		for _, n := range strings.Split(*policies, ",") {
			names = append(names, strings.TrimSpace(n))
		}
		experimentFuncs["POLICY"] = func(seed int64) (*experiments.Result, error) {
			return experiments.PolicyComparisonFor(seed, names)
		}
	}
	if *rankSizes != "" || *rankCCRs != "" || *rankGraphs > 0 || *rankWorkers != 0 {
		sizes, err := parseInts(*rankSizes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-ranking-sizes: %v\n", err)
			return 2
		}
		ccrs, err := parseFloats(*rankCCRs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-ranking-ccrs: %v\n", err)
			return 2
		}
		graphs, workers := *rankGraphs, *rankWorkers
		experimentFuncs["RANKING"] = func(seed int64) (*experiments.Result, error) {
			cfg := experiments.DefaultRankingConfig(seed)
			if len(sizes) > 0 {
				cfg.Sizes = sizes
			}
			if len(ccrs) > 0 {
				cfg.CCRs = ccrs
			}
			if graphs > 0 {
				cfg.GraphsPerCell = graphs
			}
			cfg.Workers = workers
			return experiments.RankingWith(cfg)
		}
	}
	if *churnSizes != "" || *churnCCRs != "" || *churnGraphs > 0 || *churnWorkers != 0 ||
		*churnReplanners != "" || *churnThreshold > 0 {
		sizes, err := parseInts(*churnSizes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-churn-sizes: %v\n", err)
			return 2
		}
		ccrs, err := parseFloats(*churnCCRs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-churn-ccrs: %v\n", err)
			return 2
		}
		var replanners []string
		if *churnReplanners != "" {
			for _, n := range strings.Split(*churnReplanners, ",") {
				replanners = append(replanners, strings.TrimSpace(n))
			}
		}
		graphs, workers, threshold := *churnGraphs, *churnWorkers, *churnThreshold
		experimentFuncs["CHURN"] = func(seed int64) (*experiments.Result, error) {
			cfg := experiments.DefaultChurnConfig(seed)
			if len(sizes) > 0 {
				cfg.Sizes = sizes
			}
			if len(ccrs) > 0 {
				cfg.CCRs = ccrs
			}
			if graphs > 0 {
				cfg.GraphsPerCell = graphs
			}
			if len(replanners) > 0 {
				cfg.Replanners = replanners
			}
			if threshold > 0 {
				cfg.Threshold = threshold
			}
			cfg.Workers = workers
			return experiments.ChurnWith(cfg)
		}
	}

	ids := experimentOrder
	if *exp != "all" {
		ids = nil
		for _, id := range strings.Split(*exp, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if _, ok := experimentFuncs[id]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n",
					id, strings.Join(experimentOrder, ", "))
				return 2
			}
			ids = append(ids, id)
		}
	}

	failed := false
	var jsonResults []resultJSON
	for _, id := range ids {
		r, err := experimentFuncs[id](*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			failed = true
			continue
		}
		if *jsonOut {
			jsonResults = append(jsonResults, resultJSON{
				ID:      r.ID,
				Title:   r.Series.Title,
				XLabel:  r.Series.XLabel,
				YLabels: r.Series.YLabels,
				Rows:    r.Series.Rows,
				Metrics: r.Metrics,
			})
			continue
		}
		fmt.Printf("== %s ==\n", r.ID)
		if *csv {
			fmt.Print(r.Series.CSV())
		} else {
			fmt.Print(r.Series.Render())
		}
		fmt.Println()
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonResults); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			return 2
		}
	}
	if failed {
		return 1
	}
	return 0
}

// resultJSON is one experiment's machine-readable form: the series columns
// plus the headline metrics, the shape the CI artifacts accumulate.
type resultJSON struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	XLabel  string             `json:"xlabel"`
	YLabels []string           `json:"ylabels"`
	Rows    [][]float64        `json:"rows"`
	Metrics map[string]float64 `json:"metrics"`
}

// parseInts parses a comma-separated integer list ("" = nil).
func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// parseFloats parses a comma-separated float list ("" = nil).
func parseFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
