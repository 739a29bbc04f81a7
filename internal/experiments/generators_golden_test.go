package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/afg"
	"repro/internal/dagen"
	"repro/internal/workload"
)

// generatorGolden is one pinned graph: sha256 of its Encode() bytes, which
// cover every task field, every link, its bytes and its input port.
type generatorGolden struct {
	Graph  string `json:"graph"`
	SHA256 string `json:"sha256"`
}

// TestGeneratorsGolden pins the exact graph every seeded generator and the
// batch union produce, so the way a graph is assembled (per-link insertion
// or one bulk build) can change with proof that no task, link, volume or
// port moved and no RNG draw was reordered. RANKING and the experiments
// golden pin the schedules downstream; this pins their inputs. Re-bless
// consciously with
//
//	go test ./internal/experiments -run GeneratorsGolden -update
func TestGeneratorsGolden(t *testing.T) {
	var got []generatorGolden
	pin := func(name string, g *afg.Graph, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := g.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		sum := sha256.Sum256(data)
		got = append(got, generatorGolden{Graph: name, SHA256: hex.EncodeToString(sum[:])})
	}

	for _, v := range []int{1, 2, 3, 50, 1000} {
		for _, ccr := range []float64{0.5, 5} {
			for _, alpha := range []float64{0.5, 2} {
				p := dagen.Params{Tasks: v, CCR: ccr, Alpha: alpha, OutDegree: 4, Seed: int64(7*v) + 3}
				pin(fmt.Sprintf("random/v%d/ccr%g/a%g", v, ccr, alpha), dagen.Random(p), nil)
			}
		}
	}
	pin("random/defaults", dagen.Random(dagen.Params{Tasks: 200, Seed: 11}), nil)
	pin("scale/1", dagen.Scale(1, 25, 12, 1), nil)
	pin("scale/103x10", dagen.Scale(103, 10, 4, 7), nil) // last rank padded short
	pin("scale/1000x25", dagen.Scale(1000, 25, 12, 42), nil)
	for _, m := range []int{2, 9} {
		g, err := dagen.GaussianElimination(m, dagen.Params{CCR: 1, Seed: 5})
		pin(fmt.Sprintf("gauss/m%d", m), g, err)
	}
	for _, n := range []int{2, 16} {
		g, err := dagen.FFT(n, dagen.Params{CCR: 2, Seed: 6})
		pin(fmt.Sprintf("fft/n%d", n), g, err)
	}

	layered := workload.LayeredRandom(workload.LayeredConfig{
		Layers: 8, Width: 6, Density: 0.4, MinCost: 0.5, MaxCost: 3, MaxBytes: 1 << 20, Seed: 9,
	})
	pin("layered/8x6", layered, nil)
	pin("layered/sparse", workload.LayeredRandom(workload.LayeredConfig{
		Layers: 12, Width: 4, Density: 0, MinCost: 1, Seed: 2,
	}), nil)
	pin("forkjoin/7", workload.ForkJoin(7, 2.5, 4096), nil)
	pin("pipeline/1", workload.Pipeline(1, 1, 10), nil)
	pin("pipeline/9", workload.Pipeline(9, 0.25, 1<<16), nil)
	solver, err := workload.LinearSolver(nil, 64, 1, true, 3)
	pin("linsolver/n64-parallel", solver, err)
	c3i, err := workload.C3IScenario(nil, 4, 512, 7)
	pin("c3i/4x512", c3i, err)
	fourier, err := workload.FourierPipeline(nil, 256, 5, 3)
	pin("fourier/n256", fourier, err)

	// One union over graphs whose tasks have several ported inputs.
	gauss, err := dagen.GaussianElimination(5, dagen.Params{CCR: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := mergeGraphs([]*afg.Graph{
		dagen.Random(dagen.Params{Tasks: 40, CCR: 1, Alpha: 1, OutDegree: 4, Seed: 13}),
		solver, gauss, layered,
	})
	pin("merge/random40+linsolver+gauss5+layered", merged, err)

	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "generators_golden.json")
	if *update {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d graphs)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("generated graphs drifted from %s; if the change is intended, re-bless with -update.\ngot:\n%s", path, data)
	}
}
