package afg_test

import (
	"fmt"
	"testing"

	"repro/internal/afg"
	"repro/internal/dagen"
	"repro/internal/workload"
)

// TestEncodeMatchesEncodingJSON holds Encode and MarshalJSON to
// encoding/json's bytes over the empty graph, a single task with no links,
// and every generator TestGeneratorsGolden pins.
func TestEncodeMatchesEncodingJSON(t *testing.T) {
	type named struct {
		name string
		g    *afg.Graph
		err  error
	}
	single := afg.New("one")
	if err := single.AddTask(&afg.Task{ID: "only", Function: "f", ComputeCost: 2}); err != nil {
		t.Fatal(err)
	}
	graphs := []named{{"empty", afg.New(""), nil}, {"single task", single, nil}}
	add := func(name string, g *afg.Graph, err error) { graphs = append(graphs, named{name, g, err}) }
	for _, v := range []int{1, 2, 3, 50, 1000} {
		for _, ccr := range []float64{0.5, 5} {
			for _, alpha := range []float64{0.5, 2} {
				p := dagen.Params{Tasks: v, CCR: ccr, Alpha: alpha, OutDegree: 4, Seed: int64(7*v) + 3}
				add(fmt.Sprintf("random/v%d/ccr%g/a%g", v, ccr, alpha), dagen.Random(p), nil)
			}
		}
	}
	add("random/defaults", dagen.Random(dagen.Params{Tasks: 200, Seed: 11}), nil)
	add("scale/1", dagen.Scale(1, 25, 12, 1), nil)
	add("scale/103x10", dagen.Scale(103, 10, 4, 7), nil)
	add("scale/1000x25", dagen.Scale(1000, 25, 12, 42), nil)
	for _, m := range []int{2, 9} {
		g, err := dagen.GaussianElimination(m, dagen.Params{CCR: 1, Seed: 5})
		add(fmt.Sprintf("gauss/m%d", m), g, err)
	}
	for _, n := range []int{2, 16} {
		g, err := dagen.FFT(n, dagen.Params{CCR: 2, Seed: 6})
		add(fmt.Sprintf("fft/n%d", n), g, err)
	}
	add("layered/8x6", workload.LayeredRandom(workload.LayeredConfig{
		Layers: 8, Width: 6, Density: 0.4, MinCost: 0.5, MaxCost: 3, MaxBytes: 1 << 20, Seed: 9,
	}), nil)
	add("layered/sparse", workload.LayeredRandom(workload.LayeredConfig{
		Layers: 12, Width: 4, Density: 0, MinCost: 1, Seed: 2,
	}), nil)
	add("forkjoin/7", workload.ForkJoin(7, 2.5, 4096), nil)
	add("pipeline/1", workload.Pipeline(1, 1, 10), nil)
	add("pipeline/9", workload.Pipeline(9, 0.25, 1<<16), nil)
	solver, err := workload.LinearSolver(nil, 64, 1, true, 3)
	add("linsolver/n64-parallel", solver, err)
	c3i, err := workload.C3IScenario(nil, 4, 512, 7)
	add("c3i/4x512", c3i, err)
	fourier, err := workload.FourierPipeline(nil, 256, 5, 3)
	add("fourier/n256", fourier, err)

	for _, c := range graphs {
		t.Run(c.name, func(t *testing.T) {
			if c.err != nil {
				t.Fatal(c.err)
			}
			afg.CheckAgainstEncodingJSON(t, c.g)
		})
	}
}
