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
	"slices"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

func main() {
	// run does the work so its defers (profile flushes) fire exactly once
	// before the exit code is surfaced — os.Exit in main would skip them.
	os.Exit(run())
}

func run() int {
	exps := experiments.Experiments()
	known := make([]string, len(exps))
	for i, e := range exps {
		known[i] = e.ID
	}
	exp := flag.String("exp", "all", "comma-separated experiment ids ("+strings.Join(known, ", ")+") or 'all'")
	seed := flag.Int64("seed", 1, "deterministic seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := flag.Bool("json", false, "emit one JSON document for all selected experiments (rows + metrics)")
	policies := flag.String("policies", "", "restrict the POLICY experiment to these comma-separated scheduling policies (empty = all registered)")
	rankGrid := newGridFlags("ranking", "RANKING")
	churnGrid := newGridFlags("churn", "CHURN")
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
		replace(exps, "POLICY", func(seed int64) (*experiments.Result, error) {
			return experiments.PolicyComparisonFor(seed, names)
		})
	}
	rankOver, rankSet, err := rankGrid.parse()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if rankSet {
		replace(exps, "RANKING", func(seed int64) (*experiments.Result, error) {
			cfg := experiments.DefaultRankingConfig(seed)
			rankOver(&cfg.Grid)
			return experiments.RankingWith(cfg)
		})
	}
	churnOver, churnSet, err := churnGrid.parse()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if churnSet || *churnReplanners != "" || *churnThreshold > 0 {
		var replanners []string
		if *churnReplanners != "" {
			for _, n := range strings.Split(*churnReplanners, ",") {
				replanners = append(replanners, strings.TrimSpace(n))
			}
		}
		threshold := *churnThreshold
		replace(exps, "CHURN", func(seed int64) (*experiments.Result, error) {
			cfg := experiments.DefaultChurnConfig(seed)
			churnOver(&cfg.Grid)
			if len(replanners) > 0 {
				cfg.Replanners = replanners
			}
			if threshold > 0 {
				cfg.Threshold = threshold
			}
			return experiments.ChurnWith(cfg)
		})
	}

	selected := exps
	if *exp != "all" {
		selected = nil
		for _, id := range strings.Split(*exp, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			i := slices.Index(known, id)
			if i < 0 {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", id, strings.Join(known, ", "))
				return 2
			}
			if slices.ContainsFunc(selected, func(e experiments.Experiment) bool { return e.ID == id }) {
				fmt.Fprintf(os.Stderr, "experiment %q listed twice\n", id)
				return 2
			}
			selected = append(selected, exps[i])
		}
	}

	failed := false
	var jsonResults []resultJSON
	for _, e := range selected {
		r, err := e.Run(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
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

// replace swaps the run of the experiment with the given id.
func replace(exps []experiments.Experiment, id string, run func(int64) (*experiments.Result, error)) {
	for i := range exps {
		if exps[i].ID == id {
			exps[i].Run = run
		}
	}
}

// gridFlags are one grid experiment's -<name>-sizes, -ccrs, -graphs and
// -workers flags.
type gridFlags struct {
	name            string
	sizes, ccrs     *string
	graphs, workers *int
}

// newGridFlags defines the grid flags of experiment exp under the prefix
// name.
func newGridFlags(name, exp string) gridFlags {
	return gridFlags{
		name:    name,
		sizes:   flag.String(name+"-sizes", "", exp+" grid task counts, comma-separated (empty = default grid)"),
		ccrs:    flag.String(name+"-ccrs", "", exp+" grid CCR values, comma-separated (empty = default grid)"),
		graphs:  flag.Int(name+"-graphs", 0, exp+" graphs per grid cell (0 = default)"),
		workers: flag.Int(name+"-workers", 0, exp+" worker-pool size; results are bit-identical for any value (0 = GOMAXPROCS, 1 = serial)"),
	}
}

// parse reads the parsed flags into over, which lays them on a default
// grid: given sizes, CCRs and a graph count replace the grid's, and the
// worker count always does. set reports whether any flag was given.
func (f gridFlags) parse() (over func(*experiments.Grid), set bool, err error) {
	sizes, err := parseInts(*f.sizes)
	if err != nil {
		return nil, false, fmt.Errorf("-%s-sizes: %v", f.name, err)
	}
	ccrs, err := parseFloats(*f.ccrs)
	if err != nil {
		return nil, false, fmt.Errorf("-%s-ccrs: %v", f.name, err)
	}
	graphs, workers := *f.graphs, *f.workers
	over = func(g *experiments.Grid) {
		if len(sizes) > 0 {
			g.Sizes = sizes
		}
		if len(ccrs) > 0 {
			g.CCRs = ccrs
		}
		if graphs > 0 {
			g.GraphsPerCell = graphs
		}
		g.Workers = workers
	}
	return over, *f.sizes != "" || *f.ccrs != "" || graphs > 0 || workers != 0, nil
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
