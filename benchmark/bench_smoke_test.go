package main

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// exactLayer reports whether a per-layer metric must repeat exactly for a
// seed: simulated makespans, churn counters and ratios of counts do;
// timings, allocation and cache statistics do not.
func exactLayer(name string) bool {
	for _, p := range []string{"scheduler.makespan_s.", "scheduler.replans.", "scheduler.moved.", "scheduler.killed.",
		"scheduler.dup_runs", "scheduler.degradation.", "scheduler.cost_cells", "site.remote_task_share", "afg.encoded_bytes_per_task"} {
		if strings.HasPrefix(name, p) {
			return name != "scheduler.makespan_s.ledger" // varies with batch-worker interleaving
		}
	}
	return false
}

// TestSmoke runs every workload at smoke-test sizes, one pass over the
// inputs, twice untraced and twice traced with one seed.
func TestSmoke(t *testing.T) {
	const specPath = "../BENCHMARK.json"
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%s lists %d workloads, the program has %d", specPath, len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in %s, %q in the program", i, spec.Workloads[i].Name, specPath, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			runOnce := func(trace bool) *record {
				t.Helper()
				rec, err := run(config{workload: w.name, seed: defaultSeed, small: true, setups: 1, trace: trace,
					traceOut: filepath.Join(t.TempDir(), "trace.json")}, specPath)
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
					t.Errorf("trace=%t: correct=%t attempted=%d failed=%d: %s", trace, rec.Correct, rec.Attempted, rec.Failed, rec.FirstError)
				}
				for name, m := range rec.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
						t.Errorf("trace=%t: %s = %v %q", trace, name, m.Value, m.Unit)
					}
				}
				return rec
			}
			a, b := runOnce(false), runOnce(false)
			for _, m := range spec.EndToEnd {
				if a.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m.Name, a.Metrics[m.Name].Value)
				}
			}
			if x, y := a.Metrics["sim_slr"].Value, b.Metrics["sim_slr"].Value; x != y {
				t.Errorf("sim_slr differs between two runs of one seed: %v vs %v", x, y)
			}
			ta, tb := runOnce(true), runOnce(true)
			for name, m := range ta.Metrics {
				if exactLayer(name) && m.Value != tb.Metrics[name].Value {
					t.Errorf("%s differs between two runs of one seed: %v vs %v", name, m.Value, tb.Metrics[name].Value)
				}
			}
			if c := ta.Metrics["trace.min_child_coverage"].Value; c < 0.95 {
				t.Errorf("child spans cover %.3f of an op span, want >= 0.95", c)
			}
		})
	}
}

func TestTailOf(t *testing.T) {
	ms := make([]float64, 60)
	for i := range ms {
		ms[i] = float64(i)
	}
	if v, pct := tailOf(ms); v != 49 || math.Round(pct) != 83 {
		t.Errorf("tail of 60 samples = %v (p%.0f), want 49 (p83): ten samples lie beyond it", v, pct)
	}
	long := make([]float64, 301)
	for i := range long {
		long[i] = float64(i)
	}
	if v, pct := tailOf(long); v != 270 || pct != 90 {
		t.Errorf("tail of 301 samples = %v (p%.0f), want 270 (p90): the tail stops at p90", v, pct)
	}
	if v, pct := tailOf(ms[:8]); v != 3.5 || pct != 50 {
		t.Errorf("tail of 8 samples = %v (p%.0f), want the median 3.5", v, pct)
	}
}

func TestChildCoverage(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "op", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 0, End: 60},
		{Name: "b", ID: 2, Parent: 0, Start: 40, End: 90}, // overlaps a: the union counts once
	}}
	if got := tr.childCoverage("op"); len(got) != 1 || got[0] != 0.9 {
		t.Errorf("coverage = %v, want [0.9]", got)
	}
}

func TestVerdictOf(t *testing.T) {
	lower := specMetric{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "tasks_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name string
		a, b []float64
		m    specMetric
		want string
	}{
		{"same", steady, steady, lower, "ok"},
		{"slower within the bound", steady, []float64{108, 109, 107, 108, 110}, lower, "ok"},
		{"slower beyond the bound", steady, []float64{115, 116, 114, 115, 117}, lower, "worse"},
		{"throughput down beyond the bound", steady, []float64{85, 86, 84, 85, 87}, higher, "worse"},
		{"spread wider than the bound", []float64{80, 100, 120, 90, 110}, []float64{82, 100, 118, 91, 109}, lower, "unresolved"},
		{"wide spread but every run better", []float64{80, 100, 120, 90, 110}, []float64{40, 50, 60, 45, 55}, lower, "ok"},
	} {
		if got, _ := verdictOf(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) gives
	// [3.5, 13.5, 31.0]; the median of the ten values is 13.5.
	got := spread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if want := (31.0 - 3.5) / 13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
