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

// app collects one application's tasks and links for a single afg.Build.
// A link carries its source task's OutputBytes and takes its destination's
// next input port, as the editor's connect gesture does.
type app struct {
	tasks []*afg.Task
	links []afg.Link
	byID  map[afg.TaskID]*afg.Task
	in    map[afg.TaskID]int // links wired into each task so far
}

func newApp() *app {
	return &app{byID: map[afg.TaskID]*afg.Task{}, in: map[afg.TaskID]int{}}
}

func (a *app) add(t *afg.Task) *afg.Task {
	a.tasks = append(a.tasks, t)
	a.byID[t.ID] = t
	return t
}

// library adds a task-library call with its registry-derived costs.
func (a *app) library(reg *tasklib.Registry, id afg.TaskID, fn string, params map[string]string) *afg.Task {
	cost, mem, out := costFor(reg, fn, params)
	return a.add(&afg.Task{
		ID: id, Function: fn, Params: params,
		ComputeCost: cost, MemReq: mem, OutputBytes: out,
	})
}

// synthetic adds a no-op task of the given cost and output volume.
func (a *app) synthetic(id afg.TaskID, cost float64, bytes int64) *afg.Task {
	return a.add(&afg.Task{ID: id, Function: "synthetic.noop", ComputeCost: cost, OutputBytes: bytes})
}

func (a *app) link(from, to afg.TaskID) {
	l := afg.Link{From: from, To: to, Port: a.in[to]}
	if t := a.byID[from]; t != nil { // an unknown source is Build's to refuse
		l.Bytes = t.OutputBytes
	}
	a.links = append(a.links, l)
	a.in[to]++
}

func (a *app) build(name string) (*afg.Graph, error) {
	return afg.Build(name, a.tasks, a.links)
}

// mustBuild is build for the synthetic families, which return only a graph:
// their ids and wiring are their own, so a refusal is a generator bug, never
// an input error.
func (a *app) mustBuild(name string) *afg.Graph {
	g, err := a.build(name)
	if err != nil {
		panic(fmt.Sprintf("workload: %s: %v", name, err))
	}
	return g
}

// LinearSolver builds the paper's Fig 3 application: solve A·x = b via LU
// decomposition, with a residual check as the exit task. parallelLU runs
// the LU task in parallel mode on `procs` machines, mirroring the paper's
// property panel ("parallel execution mode using two nodes").
func LinearSolver(reg *tasklib.Registry, n, seed int, parallelLU bool, procs int) (*afg.Graph, error) {
	if reg == nil {
		reg = tasklib.Default()
	}
	a := newApp()
	ns := fmt.Sprintf("%d", n)
	a.library(reg, "genA", "matrix.generate", map[string]string{"n": ns, "seed": fmt.Sprintf("%d", seed)})
	a.library(reg, "genB", "matrix.vector", map[string]string{"n": ns, "seed": fmt.Sprintf("%d", seed+1)})
	lu := a.library(reg, "lu", "matrix.lu", map[string]string{"n": ns})
	a.library(reg, "solve", "matrix.solve", map[string]string{"n": ns})
	a.library(reg, "check", "matrix.residual", map[string]string{"n": ns})
	if parallelLU {
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
		a.link(l[0], l[1])
	}
	return a.build(fmt.Sprintf("linear-solver-n%d", n))
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
	a := newApp()
	sam := fmt.Sprintf("%d", samples)
	// Two independent sensor clusters feed two fusion nodes.
	for c := 0; c < 2; c++ {
		data := afg.TaskID(fmt.Sprintf("sensors%d", c))
		fuse := afg.TaskID(fmt.Sprintf("fusion%d", c))
		a.library(reg, data, "c3i.sensordata", map[string]string{
			"sensors": fmt.Sprintf("%d", sensors),
			"samples": sam,
			"seed":    fmt.Sprintf("%d", seed+c),
		})
		a.library(reg, fuse, "c3i.fusion", map[string]string{"samples": sam})
		a.link(data, fuse)
	}
	// Track correlation across the clusters, then threat assessment.
	a.library(reg, "correlate", "c3i.correlate", map[string]string{"samples": sam})
	a.library(reg, "threat", "c3i.threat", map[string]string{"samples": sam})
	a.link("fusion0", "correlate")
	a.link("fusion1", "correlate")
	a.link("fusion0", "threat")
	return a.build(fmt.Sprintf("c3i-%dsensors", sensors))
}

// FourierPipeline chains signal generation → spectrum → dominant-frequency
// detection, the classic streaming signal-intelligence shape.
func FourierPipeline(reg *tasklib.Registry, n, tone, seed int) (*afg.Graph, error) {
	if reg == nil {
		reg = tasklib.Default()
	}
	a := newApp()
	params := map[string]string{
		"n": fmt.Sprintf("%d", n), "tone": fmt.Sprintf("%d", tone), "seed": fmt.Sprintf("%d", seed),
	}
	a.library(reg, "signal", "fourier.signal", params)
	a.library(reg, "spectrum", "fourier.spectrum", map[string]string{"n": params["n"]})
	a.library(reg, "dominant", "fourier.dominant", map[string]string{"n": params["n"]})
	a.link("signal", "spectrum")
	a.link("signal", "dominant")
	return a.build(fmt.Sprintf("fourier-n%d", n))
}

// Synthetic DAG families ------------------------------------------------------

// Pipeline builds a depth-stage chain of synthetic tasks with the given
// per-stage cost (seconds on the base processor) and link volume.
func Pipeline(depth int, cost float64, bytes int64) *afg.Graph {
	a := newApp()
	var prev afg.TaskID
	for i := 0; i < depth; i++ {
		id := afg.TaskID(fmt.Sprintf("s%03d", i))
		a.synthetic(id, cost, bytes)
		if i > 0 {
			a.link(prev, id)
		}
		prev = id
	}
	return a.mustBuild(fmt.Sprintf("pipeline-%d", depth))
}

// ForkJoin builds source → width parallel branches → sink.
func ForkJoin(width int, branchCost float64, bytes int64) *afg.Graph {
	a := newApp()
	a.synthetic("source", branchCost/10, bytes)
	a.synthetic("sink", branchCost/10, bytes)
	for i := 0; i < width; i++ {
		id := afg.TaskID(fmt.Sprintf("b%03d", i))
		a.synthetic(id, branchCost, bytes)
		a.link("source", id)
		a.link(id, "sink")
	}
	return a.mustBuild(fmt.Sprintf("forkjoin-%d", width))
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
	a := newApp()
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
			a.synthetic(id, cost, bytes)
			cur = append(cur, id)
		}
		for _, c := range cur {
			if len(prev) == 0 {
				continue
			}
			for _, p := range prev {
				if rng.Float64() < cfg.Density {
					a.link(p, c)
				}
			}
			if a.in[c] == 0 {
				a.link(prev[rng.Intn(len(prev))], c)
			}
		}
		prev = cur
	}
	return a.mustBuild(fmt.Sprintf("layered-%dx%d", cfg.Layers, cfg.Width))
}
