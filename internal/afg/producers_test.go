package afg_test

import (
	"fmt"
	"testing"

	"repro/internal/afg"
	"repro/internal/dagen"
	"repro/internal/editor"
	"repro/internal/workload"
)

// TestProducersTakeTheFastPath: every document the system writes — Encode
// and MarshalJSON over the benchmark's random shapes, the structured
// generators, the three applications and an editor-built graph — is read
// by Decode's fast path, so json.Unmarshal serves only documents no
// producer here writes.
func TestProducersTakeTheFastPath(t *testing.T) {
	type named struct {
		name string
		g    *afg.Graph
		err  error
	}
	var graphs []named
	add := func(name string, g *afg.Graph, err error) { graphs = append(graphs, named{name, g, err}) }
	for _, v := range []int{300, 4000} {
		for _, ccr := range []float64{0, 0.5, 1, 2} {
			p := dagen.Params{Tasks: v, CCR: ccr, Alpha: 1, OutDegree: 4, Seed: int64(v) + 1}
			add(fmt.Sprintf("random/v%d/ccr%g", v, ccr), dagen.Random(p), nil)
		}
	}
	for _, m := range []int{2, 9} {
		g, err := dagen.GaussianElimination(m, dagen.Params{CCR: 1, Seed: 5})
		add(fmt.Sprintf("gauss/m%d", m), g, err)
	}
	for _, n := range []int{2, 16} {
		g, err := dagen.FFT(n, dagen.Params{CCR: 2, Seed: 6})
		add(fmt.Sprintf("fft/n%d", n), g, err)
	}
	add("scale/103x10", dagen.Scale(103, 10, 4, 7), nil)
	solver, err := workload.LinearSolver(nil, 64, 1, true, 3)
	add("linsolver/n64-parallel", solver, err)
	c3i, err := workload.C3IScenario(nil, 4, 512, 7)
	add("c3i/4x512", c3i, err)
	fourier, err := workload.FourierPipeline(nil, 256, 5, 3)
	add("fourier/n256", fourier, err)
	edited, err := editedGraph()
	add("editor", edited, err)

	for _, c := range graphs {
		t.Run(c.name, func(t *testing.T) {
			if c.err != nil {
				t.Fatal(c.err)
			}
			for _, face := range []struct {
				name   string
				encode func() ([]byte, error)
			}{{"Encode", c.g.Encode}, {"MarshalJSON", c.g.MarshalJSON}} {
				data, err := face.encode()
				if err != nil {
					t.Fatal(err)
				}
				if !afg.TakesFastPath(data) {
					t.Errorf("%s output misses the fast path:\n%.400s", face.name, data)
				}
			}
		})
	}
}

// editedGraph is a graph built as the Application Editor builds one: tasks
// from the library menus with parameters and properties, then links.
func editedGraph() (*afg.Graph, error) {
	b := editor.New("edited", nil)
	for _, task := range []struct {
		id afg.TaskID
		fn string
		p  map[string]string
	}{
		{"genA", "matrix.generate", map[string]string{"n": "64", "seed": "1"}},
		{"genB", "matrix.vector", map[string]string{"n": "64", "seed": "2"}},
		{"lu", "matrix.lu", map[string]string{"n": "64"}},
		{"solve", "matrix.solve", map[string]string{"n": "64"}},
	} {
		if err := b.AddTask(task.id, task.fn, task.p); err != nil {
			return nil, err
		}
	}
	if err := b.SetProperties("lu", afg.Parallel, 4, "sparc"); err != nil {
		return nil, err
	}
	b.SetMode(editor.LinkMode)
	for _, l := range [][2]afg.TaskID{{"genA", "lu"}, {"lu", "solve"}, {"genB", "solve"}} {
		if err := b.Connect(l[0], l[1]); err != nil {
			return nil, err
		}
	}
	b.SetMode(editor.RunMode)
	return b.Graph()
}
