// Command benchmark is the VDCE benchmark: it runs one named workload for a
// seed, checks every output, and prints every metric by name with its unit.
// See README.md for the workloads, the metrics and how they interact.
//
//	benchmark --workload submit-local --seed 1 --seconds 10 --trace 0
//	benchmark compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// maxSetups caps how often set-up is repeated to fill config.setupFor.
const maxSetups = 15

// defaultSeed is the seed used when none is given; README.md names the
// second seed reserved for checking claims.
const defaultSeed = 1

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measure for at least this long
	trace    bool    // per-layer run: every input runs twice in a row, untraced then traced
	small    bool    // smoke-test sizes
	setups   int     // set-up is repeated at least this often; setup_s is the median
	setupFor float64 // and until the repeats have taken this many seconds together
	traceOut string  // where a traced run writes its spans
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of a result file: the result plus what makes two runs
// comparable.
type record struct {
	Workload       string  `json:"workload"`
	Seed           int64   `json:"seed"`
	Trace          bool    `json:"trace"`
	Seconds        float64 `json:"seconds"`
	Commit         string  `json:"commit"`
	GoVersion      string  `json:"go_version"`
	NProc          int     `json:"nproc"`
	GoMaxProcs     int     `json:"gomaxprocs"`
	Setups         int     `json:"setups"`
	Ops            int     `json:"ops"`
	Inputs         int     `json:"inputs"`
	TasksPerOp     int     `json:"tasks_per_op"`
	Hosts          int     `json:"hosts"`
	TailPercentile float64 `json:"tail_percentile"`
	FirstError     string  `json:"first_error,omitempty"`
	result

	order []string // metric names as the benchmark definition lists them
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	cfg := config{setups: 3, setupFor: 2}
	var trace int
	var out, spec string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see README.md)")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "seed every generated input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measure for at least this many seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&out, "out", "", "append the run's record to this JSON-lines result file")
	flag.StringVar(&spec, "spec", "BENCHMARK.json", "benchmark definition, for the metric lists")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>.json)")
	flag.Parse()
	cfg.trace = trace != 0
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "trace-"+cfg.workload+".json")
	}

	rec, err := run(cfg, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if out != "" {
		if err := appendRecord(out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	printRecord(rec)
}

// run sets the workload up, measures it and reports the metrics the
// benchmark definition at specPath lists for this kind of run.
func run(cfg config, specPath string) (*record, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return nil, err
	}
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	// Set-up is repeated so that setup_s is a median, and a set-up of a
	// fraction of a second more often than one of several: the median of
	// three 0.15 s set-ups moved 25 to 30 % between runs of one commit. The
	// last instance built is the one measured.
	var inst *instance
	var setupS []float64
	for total := 0.0; len(setupS) < cfg.setups || (total < cfg.setupFor && len(setupS) < maxSetups); {
		if inst != nil {
			inst.close()
			inst = nil
		}
		runtime.GC()
		t0 := time.Now()
		if inst, err = w.setup(cfg.seed, cfg.small); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		total += setupS[len(setupS)-1]
	}
	defer inst.close()
	runtime.GC()

	m := measure(inst, cfg.seconds, cfg.trace)
	if len(m.untraced) == 0 {
		return nil, fmt.Errorf("%s: no op succeeded: %s", w.name, m.firstErr)
	}
	rec := &record{
		Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Setups: len(setupS), Ops: m.attempted, Inputs: inst.inputs, TasksPerOp: inst.tasksPerOp, Hosts: inst.hosts,
		FirstError: m.firstErr,
		result:     result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}},
	}
	if cfg.trace {
		if err := m.tr.write(cfg.traceOut); err != nil {
			return nil, err
		}
		return rec, rec.report(specPath, spec.PerLayer, layerMetrics(inst, m))
	}
	ms := opMs(m.untraced)
	tail, pct := tailOf(ms)
	rec.TailPercentile = pct
	var seconds, allocBytes float64
	for _, s := range m.untraced {
		seconds += s.ms / 1e3
		allocBytes += float64(s.allocBytes)
	}
	n := float64(len(m.untraced))
	return rec, rec.report(specPath, spec.EndToEnd, map[string]float64{
		"setup_s":         median(setupS),
		"op_p50_ms":       median(ms),
		"op_tail_ms":      tail,
		"tasks_per_s":     n * float64(inst.tasksPerOp) / seconds,
		"alloc_mb_per_op": allocBytes / n / 1e6,
		"sim_slr":         math.Exp(m.logSLR / float64(m.tables)),
	})
}

// report fills the record's metrics with the measured values under the names
// and units the benchmark definition lists. The definition is the one place
// the names live, so a value it does not list, or a name it lists that was
// not measured, fails the run.
func (rec *record) report(specPath string, listed []specMetric, values map[string]float64) error {
	var problems []string
	for _, m := range listed {
		v, ok := values[m.Name]
		if !ok {
			problems = append(problems, m.Name+" is listed but not measured")
		}
		rec.Metrics[m.Name] = metric{v, m.Unit}
		rec.order = append(rec.order, m.Name)
	}
	for name := range values {
		if _, ok := rec.Metrics[name]; !ok {
			problems = append(problems, name+" is measured but not listed")
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("%s and the program disagree: %s", specPath, strings.Join(problems, "; "))
	}
	return nil
}

// commit names the source the run was built from. A checkout that is not a
// git repository has no commit to name; the field still never reads empty.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil || len(out) == 0 {
		return "unversioned"
	}
	rev := strings.TrimSpace(string(out))
	if dirty, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(dirty) > 0 {
		rev += "-dirty"
	}
	return rev
}

// benchSpec is the part of BENCHMARK.json the program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(line, '\n'))
	return errors.Join(werr, f.Close())
}

// printRecord prints every metric by name with its unit, then the result
// object as the last line.
func printRecord(rec *record) {
	fmt.Printf("%s seed=%d trace=%t ops=%d inputs=%d tasks/op=%d hosts=%d commit=%s %s nproc=%d\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Ops, rec.Inputs, rec.TasksPerOp, rec.Hosts, rec.Commit, rec.GoVersion, rec.NProc)
	if rec.FirstError != "" {
		fmt.Printf("first failure: %s\n", rec.FirstError)
	}
	for _, name := range rec.order {
		fmt.Printf("  %-34s %14.6g %s\n", name, rec.Metrics[name].Value, rec.Metrics[name].Unit)
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
