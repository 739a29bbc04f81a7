package metrics

import (
	"math"
	"testing"

	"repro/internal/afg"
	"repro/internal/dagen"
)

// chain builds a 3-task pipeline with costs 1, 2, 3.
func chain(t *testing.T) *afg.Graph {
	t.Helper()
	g := afg.New("chain")
	for i, c := range []float64{1, 2, 3} {
		id := afg.TaskID(rune('a' + i))
		if err := g.AddTask(&afg.Task{ID: id, Function: "f", ComputeCost: c}); err != nil {
			t.Fatal(err)
		}
	}
	g.AddLink(afg.Link{From: "a", To: "b"})
	g.AddLink(afg.Link{From: "b", To: "c"})
	return g
}

func TestCPLowerBound(t *testing.T) {
	g := chain(t)
	// Host h2 runs everything at half cost; the bound must use the per-task
	// minimum, i.e. the fast host throughout: (1+2+3)/2 = 3.
	model := func(task *afg.Task, host string) float64 {
		if host == "h2" {
			return task.ComputeCost / 2
		}
		return task.ComputeCost
	}
	lb, err := CPLowerBound(g, []string{"h1", "h2"}, model)
	if err != nil {
		t.Fatal(err)
	}
	if lb != 3 {
		t.Fatalf("lb = %v, want 3", lb)
	}
	if _, err := CPLowerBound(g, nil, model); err != ErrNoHosts {
		t.Fatalf("err = %v", err)
	}
	// A fork: a→b, a→c. Bound is max path, not sum: 1 + max(2,3) = 4 on h1.
	fork := afg.New("fork")
	for i, c := range []float64{1, 2, 3} {
		fork.AddTask(&afg.Task{ID: afg.TaskID(rune('a' + i)), Function: "f", ComputeCost: c})
	}
	fork.AddLink(afg.Link{From: "a", To: "b"})
	fork.AddLink(afg.Link{From: "a", To: "c"})
	lb, err = CPLowerBound(fork, []string{"h1"}, model)
	if err != nil {
		t.Fatal(err)
	}
	if lb != 4 {
		t.Fatalf("fork lb = %v, want 4", lb)
	}
}

func TestSLRSpeedupEfficiency(t *testing.T) {
	if v := SLR(6, 3); v != 2 {
		t.Fatalf("SLR = %v", v)
	}
	if v := SLR(6, 0); !math.IsInf(v, 1) {
		t.Fatalf("SLR with zero bound = %v", v)
	}
	g := chain(t)
	model := func(task *afg.Task, host string) float64 {
		if host == "fast" {
			return task.ComputeCost / 3
		}
		return task.ComputeCost
	}
	serial, err := BestSerial(g, []string{"slow", "fast"}, model)
	if err != nil {
		t.Fatal(err)
	}
	if serial != 2 { // (1+2+3)/3
		t.Fatalf("best serial = %v, want 2", serial)
	}
	if v := Speedup(serial, 1); v != 2 {
		t.Fatalf("speedup = %v", v)
	}
}

func TestPairwiseAndBestCounts(t *testing.T) {
	// Two policies, three runs: A wins, tie (within tol), B wins.
	runs := [][]float64{
		{1.0, 2.0},
		{3.0, 3.0000001},
		{5.0, 4.0},
	}
	pw := Pairwise(runs, 1e-6)
	ab := pw[0][1]
	if ab.Better != 1 || ab.Equal != 1 || ab.Worse != 1 {
		t.Fatalf("A vs B = %+v", ab)
	}
	ba := pw[1][0]
	if ba.Better != 1 || ba.Equal != 1 || ba.Worse != 1 {
		t.Fatalf("B vs A = %+v", ba)
	}
	if d := pw[0][0]; d.Equal != 3 || d.Better != 0 || d.Worse != 0 {
		t.Fatalf("diagonal = %+v", d)
	}
	best := BestCounts(runs, 1e-6)
	if best[0] != 2 || best[1] != 2 { // the tie counts for both
		t.Fatalf("best counts = %v", best)
	}
	if Pairwise(nil, 0) != nil || BestCounts(nil, 0) != nil {
		t.Fatal("empty runs must return nil")
	}
}

// On any generated DAG, the SLR of a schedule charged by the same model can
// never dip below 1 when every task runs serially on one host.
func TestSLRNeverBelowOneOnSerialSchedule(t *testing.T) {
	model := func(task *afg.Task, host string) float64 { return task.ComputeCost }
	for seed := int64(0); seed < 10; seed++ {
		g := dagen.Random(dagen.Params{Tasks: 30, CCR: 1, Seed: seed})
		lb, err := CPLowerBound(g, []string{"h"}, model)
		if err != nil {
			t.Fatal(err)
		}
		makespan := g.TotalWork() // serial execution on the single host
		if s := SLR(makespan, lb); s < 1 {
			t.Fatalf("seed %d: SLR %v < 1", seed, s)
		}
	}
}

// runtimeSum adds at float64 precision; writing 0.1 + 0.2 inline would be
// folded exactly by Go's arbitrary-precision constant arithmetic.
func runtimeSum(a, b float64) float64 { return a + b }

func TestApproxEqual(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name string
		a, b float64
		tol  float64
		want bool
	}{
		{"exact zero tol", 1.5, 1.5, 0, true},
		{"zero vs zero", 0, 0, 0, true},
		{"tiny relative error accepted", 1, 1 + 1e-12, 1e-9, true},
		{"large relative error rejected", 1, 1.1, 1e-3, false},
		{"zero tol rejects last-bit gap", runtimeSum(0.1, 0.2), 0.3, 0, false},
		{"relative, not absolute", 1e12, 1e12 + 1, 1e-9, true},
		{"equal infinities", inf, inf, 0, true},
		{"opposite infinities", inf, -inf, 1e9, false},
		{"nan never equal", math.NaN(), math.NaN(), 1e9, false},
	}
	for _, c := range cases {
		if got := ApproxEqual(c.a, c.b, c.tol); got != c.want {
			t.Errorf("%s: ApproxEqual(%v, %v, %v) = %v, want %v", c.name, c.a, c.b, c.tol, got, c.want)
		}
	}
}
