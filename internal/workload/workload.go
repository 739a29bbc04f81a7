// Package workload generates the synthetic applications used by the
// examples and the evaluation benchmarks: the paper's flagship Linear
// Equation Solver (Fig 3), a C3I command-and-control scenario, and the
// parameterised DAG families (pipelines, fork-joins, layered random graphs)
// that exercise the Application Scheduler.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/afg"
	"repro/internal/tasklib"
)

// costFor derives a task's scheduler-visible cost metadata from the task
// registry, scaled by the task's parameters — exactly what the Application
// Editor computes when a task is configured.
func costFor(reg *tasklib.Registry, fn string, params map[string]string) (cost float64, mem, out int64) {
	spec, err := reg.Get(fn)
	if err != nil {
		return 0.001, 1 << 10, 64
	}
	s := spec.Scale(params)
	return spec.BaseTime * s, int64(float64(spec.MemReq) * s), int64(float64(spec.OutputBytes) * s)
}

func addTask(g *afg.Graph, reg *tasklib.Registry, id afg.TaskID, fn string, params map[string]string) error {
	cost, mem, out := costFor(reg, fn, params)
	return g.AddTask(&afg.Task{
		ID: id, Function: fn, Params: params,
		ComputeCost: cost, MemReq: mem, OutputBytes: out,
	})
}

func link(g *afg.Graph, from, to afg.TaskID) error {
	return g.AddLink(afg.Link{From: from, To: to, Bytes: g.Task(from).OutputBytes})
}

// LinearSolver builds the paper's Fig 3 application: solve A·x = b via LU
// decomposition, with a residual check as the exit task. parallelLU runs
// the LU task in parallel mode on `procs` machines, mirroring the paper's
// property panel ("parallel execution mode using two nodes").
func LinearSolver(reg *tasklib.Registry, n, seed int, parallelLU bool, procs int) (*afg.Graph, error) {
	if reg == nil {
		reg = tasklib.Default()
	}
	g := afg.New(fmt.Sprintf("linear-solver-n%d", n))
	ns := fmt.Sprintf("%d", n)
	steps := []struct {
		id     afg.TaskID
		fn     string
		params map[string]string
	}{
		{"genA", "matrix.generate", map[string]string{"n": ns, "seed": fmt.Sprintf("%d", seed)}},
		{"genB", "matrix.vector", map[string]string{"n": ns, "seed": fmt.Sprintf("%d", seed+1)}},
		{"lu", "matrix.lu", map[string]string{"n": ns}},
		{"solve", "matrix.solve", map[string]string{"n": ns}},
		{"check", "matrix.residual", map[string]string{"n": ns}},
	}
	for _, s := range steps {
		if err := addTask(g, reg, s.id, s.fn, s.params); err != nil {
			return nil, err
		}
	}
	if parallelLU {
		lu := g.Task("lu")
		lu.Mode = afg.Parallel
		if procs < 2 {
			procs = 2
		}
		lu.Processors = procs
	}
	for _, l := range [][2]afg.TaskID{
		{"genA", "lu"}, {"lu", "solve"}, {"genB", "solve"},
		{"genA", "check"}, {"solve", "check"}, {"genB", "check"},
	} {
		if err := link(g, l[0], l[1]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// C3IScenario builds a command-control-communication-information pipeline:
// several sensor feeds are fused, correlated pairwise, and scored for
// threat — the application family the paper's C3I library serves.
func C3IScenario(reg *tasklib.Registry, sensors, samples, seed int) (*afg.Graph, error) {
	if reg == nil {
		reg = tasklib.Default()
	}
	if sensors < 2 {
		sensors = 2
	}
	g := afg.New(fmt.Sprintf("c3i-%dsensors", sensors))
	sam := fmt.Sprintf("%d", samples)
	// Two independent sensor clusters feed two fusion nodes.
	for c := 0; c < 2; c++ {
		data := afg.TaskID(fmt.Sprintf("sensors%d", c))
		fuse := afg.TaskID(fmt.Sprintf("fusion%d", c))
		err := addTask(g, reg, data, "c3i.sensordata", map[string]string{
			"sensors": fmt.Sprintf("%d", sensors),
			"samples": sam,
			"seed":    fmt.Sprintf("%d", seed+c),
		})
		if err != nil {
			return nil, err
		}
		if err := addTask(g, reg, fuse, "c3i.fusion", map[string]string{"samples": sam}); err != nil {
			return nil, err
		}
		if err := link(g, data, fuse); err != nil {
			return nil, err
		}
	}
	// Track correlation across the clusters, then threat assessment.
	if err := addTask(g, reg, "correlate", "c3i.correlate", map[string]string{"samples": sam}); err != nil {
		return nil, err
	}
	if err := addTask(g, reg, "threat", "c3i.threat", map[string]string{"samples": sam}); err != nil {
		return nil, err
	}
	for _, l := range [][2]afg.TaskID{
		{"fusion0", "correlate"}, {"fusion1", "correlate"}, {"fusion0", "threat"},
	} {
		if err := link(g, l[0], l[1]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// FourierPipeline chains signal generation → spectrum → dominant-frequency
// detection, the classic streaming signal-intelligence shape.
func FourierPipeline(reg *tasklib.Registry, n, tone, seed int) (*afg.Graph, error) {
	if reg == nil {
		reg = tasklib.Default()
	}
	g := afg.New(fmt.Sprintf("fourier-n%d", n))
	params := map[string]string{
		"n": fmt.Sprintf("%d", n), "tone": fmt.Sprintf("%d", tone), "seed": fmt.Sprintf("%d", seed),
	}
	if err := addTask(g, reg, "signal", "fourier.signal", params); err != nil {
		return nil, err
	}
	if err := addTask(g, reg, "spectrum", "fourier.spectrum", map[string]string{"n": params["n"]}); err != nil {
		return nil, err
	}
	if err := addTask(g, reg, "dominant", "fourier.dominant", map[string]string{"n": params["n"]}); err != nil {
		return nil, err
	}
	if err := link(g, "signal", "spectrum"); err != nil {
		return nil, err
	}
	if err := link(g, "signal", "dominant"); err != nil {
		return nil, err
	}
	return g, nil
}

// Synthetic DAG families ------------------------------------------------------

// Pipeline builds a depth-stage chain of synthetic tasks with the given
// per-stage cost (seconds on the base processor) and link volume.
func Pipeline(depth int, cost float64, bytes int64) *afg.Graph {
	g := afg.New(fmt.Sprintf("pipeline-%d", depth))
	var prev afg.TaskID
	for i := 0; i < depth; i++ {
		id := afg.TaskID(fmt.Sprintf("s%03d", i))
		g.AddTask(&afg.Task{ID: id, Function: "synthetic.noop", ComputeCost: cost, OutputBytes: bytes})
		if i > 0 {
			g.AddLink(afg.Link{From: prev, To: id, Bytes: bytes})
		}
		prev = id
	}
	return g
}

// ForkJoin builds source → width parallel branches → sink.
func ForkJoin(width int, branchCost float64, bytes int64) *afg.Graph {
	g := afg.New(fmt.Sprintf("forkjoin-%d", width))
	g.AddTask(&afg.Task{ID: "source", Function: "synthetic.noop", ComputeCost: branchCost / 10, OutputBytes: bytes})
	g.AddTask(&afg.Task{ID: "sink", Function: "synthetic.noop", ComputeCost: branchCost / 10, OutputBytes: bytes})
	for i := 0; i < width; i++ {
		id := afg.TaskID(fmt.Sprintf("b%03d", i))
		g.AddTask(&afg.Task{ID: id, Function: "synthetic.noop", ComputeCost: branchCost, OutputBytes: bytes})
		g.AddLink(afg.Link{From: "source", To: id, Bytes: bytes})
		g.AddLink(afg.Link{From: id, To: "sink", Bytes: bytes})
	}
	return g
}

// LayeredConfig parameterises LayeredRandom.
type LayeredConfig struct {
	Layers   int     // number of ranks
	Width    int     // max tasks per rank
	Density  float64 // probability of a link between adjacent ranks
	MinCost  float64 // per-task cost lower bound (seconds)
	MaxCost  float64 // per-task cost upper bound
	MaxBytes int64   // link volume upper bound
	Seed     int64
}

// LayeredRandom builds a random layered DAG, the standard scheduling
// benchmark family. It is always connected rank-to-rank: every non-entry
// task gets at least one parent.
func LayeredRandom(cfg LayeredConfig) *afg.Graph {
	if cfg.Layers < 1 {
		cfg.Layers = 1
	}
	if cfg.Width < 1 {
		cfg.Width = 1
	}
	if cfg.MaxCost <= cfg.MinCost {
		cfg.MaxCost = cfg.MinCost + 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := afg.New(fmt.Sprintf("layered-%dx%d", cfg.Layers, cfg.Width))
	var prev []afg.TaskID
	for l := 0; l < cfg.Layers; l++ {
		n := 1 + rng.Intn(cfg.Width)
		var cur []afg.TaskID
		for i := 0; i < n; i++ {
			id := afg.TaskID(fmt.Sprintf("t%02d-%02d", l, i))
			cost := cfg.MinCost + rng.Float64()*(cfg.MaxCost-cfg.MinCost)
			var bytes int64
			if cfg.MaxBytes > 0 {
				bytes = rng.Int63n(cfg.MaxBytes)
			}
			g.AddTask(&afg.Task{ID: id, Function: "synthetic.noop", ComputeCost: cost, OutputBytes: bytes})
			cur = append(cur, id)
		}
		for _, c := range cur {
			if len(prev) == 0 {
				continue
			}
			linked := false
			for _, p := range prev {
				if rng.Float64() < cfg.Density {
					g.AddLink(afg.Link{From: p, To: c, Bytes: g.Task(p).OutputBytes})
					linked = true
				}
			}
			if !linked {
				p := prev[rng.Intn(len(prev))]
				g.AddLink(afg.Link{From: p, To: c, Bytes: g.Task(p).OutputBytes})
			}
		}
		prev = cur
	}
	return g
}
