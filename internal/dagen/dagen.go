// Package dagen generates the parameterized task graphs the evaluation
// methodology of Topcuoglu et al. scores schedulers on: random DAGs shaped
// by the paper's five knobs — task count v, communication-to-computation
// ratio CCR, shape parameter α, out-degree, and host-heterogeneity range β —
// plus the structured application graphs (Gaussian elimination, FFT) used
// alongside them. Every generator is seeded and deterministic: the same
// Params always produce the same afg.Graph, which is what lets the RANKING
// experiment commit golden results and lets property tests replay failures.
//
// Knob semantics (the classic random-graph suite):
//
//   - Tasks (v): exact node count, including the single entry and single
//     exit task the generator adds so every graph is connected.
//   - CCR: the ratio of the mean communication cost to the mean computation
//     cost. Edge weights are drawn in seconds (uniform on [0, 2·CCR·w̄]) and
//     converted to bytes through CommBandwidth, so a network whose WAN paths
//     run at that bandwidth realises roughly the requested ratio.
//   - Alpha (α): shape. The number of interior levels is √v/α, so α < 1
//     yields long, skinny graphs (high depth, low parallelism) and α > 1
//     yields short, fat ones.
//   - OutDegree: cap on the random fan-out wired from each task into the
//     next level (connectivity fix-ups may add one extra parent per task).
//   - Beta (β): host heterogeneity, consumed by SpeedFactors — per-host time
//     multipliers are uniform on [1−β/2, 1+β/2], so β = 0 is a homogeneous
//     pool and larger β widens the spread between fastest and slowest host.
package dagen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/afg"
)

// Params parameterises Random. Zero fields take the documented defaults.
type Params struct {
	Tasks     int     // total task count v, entry and exit included (min 1)
	CCR       float64 // mean communication / mean computation (0 = no data)
	Alpha     float64 // shape: interior levels ≈ √v/α (default 1)
	OutDegree int     // max random fan-out per task into the next level (default 3)
	Beta      float64 // host-heterogeneity range, read by SpeedFactors

	// MeanCost is w̄, the average computation cost in seconds on the base
	// processor; task costs are uniform on (0, 2·w̄]. Default 1.
	MeanCost float64

	// CommBandwidth converts edge costs from seconds to bytes
	// (bytes = seconds × bandwidth); it should match the WAN bandwidth of
	// the network the graph is scheduled against. Default 1e7 — the star-WAN
	// bandwidth the RANKING and POLICY experiments use.
	CommBandwidth float64

	Seed int64
}

// withDefaults fills the documented defaults in place of zero fields.
func (p Params) withDefaults() Params {
	if p.Tasks < 1 {
		p.Tasks = 1
	}
	if p.Alpha <= 0 {
		p.Alpha = 1
	}
	if p.OutDegree < 1 {
		p.OutDegree = 3
	}
	if p.MeanCost <= 0 {
		p.MeanCost = 1
	}
	if p.CommBandwidth <= 0 {
		p.CommBandwidth = 1e7
	}
	if p.CCR < 0 {
		p.CCR = 0
	}
	return p
}

// builder collects a generator's tasks and links for one afg.Build, naming
// tasks by the order they were added. Each link takes its destination's next
// input port — its running in-degree — which is what AddLink's
// auto-assignment gives a caller that never names a port.
type builder struct {
	tasks []*afg.Task
	links []afg.Link
	in    []int // links wired into each task so far
	out   []int // links wired out of each task so far
}

func newBuilder(tasks int) *builder {
	return &builder{
		tasks: make([]*afg.Task, 0, tasks),
		in:    make([]int, 0, tasks),
		out:   make([]int, 0, tasks),
	}
}

// task adds t and returns its index.
func (b *builder) task(t *afg.Task) int {
	b.tasks = append(b.tasks, t)
	b.in = append(b.in, 0)
	b.out = append(b.out, 0)
	return len(b.tasks) - 1
}

// noop adds a synthetic task of the given cost.
func (b *builder) noop(id afg.TaskID, cost float64) int {
	return b.task(&afg.Task{ID: id, Function: "synthetic.noop", ComputeCost: cost})
}

func (b *builder) link(from, to int, bytes int64) {
	b.links = append(b.links, afg.Link{
		From: b.tasks[from].ID, To: b.tasks[to].ID, Bytes: bytes, Port: b.in[to],
	})
	b.in[to]++
	b.out[from]++
}

func (b *builder) build(name string) (*afg.Graph, error) {
	return afg.Build(name, b.tasks, b.links)
}

// mustBuild is build for the generators that return only a graph: their ids
// and wiring are their own, so a refusal is a generator bug, never an input
// error.
func (b *builder) mustBuild(name string) *afg.Graph {
	g, err := b.build(name)
	if err != nil {
		panic(fmt.Sprintf("dagen: %s: %v", name, err))
	}
	return g
}

// Random builds a seeded random DAG with exactly p.Tasks tasks: one entry,
// one exit, and interior tasks spread over √v/α levels. Every interior task
// has at least one parent in the previous level and at least one child
// (childless interiors are wired to the exit), so the graph is always
// connected, single-entry, single-exit, and acyclic by construction.
func Random(p Params) *afg.Graph {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	name := fmt.Sprintf("dagen-v%d-ccr%g-a%g", p.Tasks, p.CCR, p.Alpha)

	v := p.Tasks
	b := newBuilder(v)
	for i := 0; i < v; i++ {
		b.noop(afg.TaskID(fmt.Sprintf("t%05d", i)), taskCost(rng, p.MeanCost))
	}
	if v == 1 {
		return b.mustBuild(name)
	}
	entry, exit := 0, v-1
	interior := v - 2  // tasks 1 .. v-2
	if interior == 0 { // v == 2: entry -> exit
		b.link(entry, exit, commBytes(rng, p))
		return b.mustBuild(name)
	}

	// Level layout: √(interior)/α levels, each owning ≥ 1 task; the rest of
	// the interior tasks land on uniformly random levels.
	levels := int(math.Round(math.Sqrt(float64(interior)) / p.Alpha))
	if levels < 1 {
		levels = 1
	}
	if levels > interior {
		levels = interior
	}
	byLevel := make([][]int, levels)
	for i := 0; i < interior; i++ {
		l := i % levels // every level seeded with one task first
		if i >= levels {
			l = rng.Intn(levels)
		}
		byLevel[l] = append(byLevel[l], 1+i)
	}

	// Random fan-out: each task wires up to OutDegree distinct children in
	// the next level. Then the connectivity fix-ups below guarantee every
	// interior task has a parent and a child.
	for l := 0; l < levels-1; l++ {
		next := byLevel[l+1]
		for _, from := range byLevel[l] {
			deg := 1 + rng.Intn(p.OutDegree)
			if deg > len(next) {
				deg = len(next)
			}
			for _, k := range rng.Perm(len(next))[:deg] {
				b.link(from, next[k], commBytes(rng, p))
			}
		}
	}
	// Level 0 hangs off the entry task; deeper parentless tasks adopt a
	// random parent from the previous level.
	for _, t := range byLevel[0] {
		b.link(entry, t, commBytes(rng, p))
	}
	for l := 1; l < levels; l++ {
		prev := byLevel[l-1]
		for _, t := range byLevel[l] {
			if b.in[t] == 0 {
				b.link(prev[rng.Intn(len(prev))], t, commBytes(rng, p))
			}
		}
	}
	// Childless interior tasks feed the exit.
	for t := 1; t <= interior; t++ {
		if b.out[t] == 0 {
			b.link(t, exit, commBytes(rng, p))
		}
	}
	return b.mustBuild(name)
}

// taskCost draws one computation cost: uniform on (0, 2·w̄], floored away
// from zero so prediction never sees a free task.
func taskCost(rng *rand.Rand, mean float64) float64 {
	c := 2 * mean * rng.Float64()
	if c < 1e-3 {
		c = 1e-3
	}
	return c
}

// commBytes draws one edge volume: a communication cost uniform on
// [0, 2·CCR·w̄] seconds, converted to bytes at the reference bandwidth.
func commBytes(rng *rand.Rand, p Params) int64 {
	if p.CCR <= 0 {
		return 0
	}
	return int64(2 * p.CCR * p.MeanCost * rng.Float64() * p.CommBandwidth)
}

// SpeedFactors derives n host speed factors from the heterogeneity range β:
// each host's execution-time multiplier is uniform on [1−β/2, 1+β/2]
// (floored at 0.1), and the speed factor is its reciprocal — so β = 0 gives
// a homogeneous pool and β = 2 spans roughly 20× between the fastest and
// slowest host, mirroring the paper's processor-heterogeneity sweep.
func SpeedFactors(n int, beta float64, seed int64) []float64 {
	if beta < 0 {
		beta = 0
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		mult := 1 + beta*(rng.Float64()-0.5)
		if mult < 0.1 {
			mult = 0.1
		}
		out[i] = 1 / mult
	}
	return out
}

// Scale builds a layered DAG of exactly `tasks` tasks (width tasks per rank,
// the last rank padded short) whose cost/memory/output parameters are drawn
// from a catalogue of `kinds` distinct task profiles — the shape of a real
// task library, where thousands of task instances share a handful of
// function configurations. The POLICY experiment's batch is built from
// it: repeated profiles are what a (kind, size, resource)-keyed prediction
// cache can exploit. (Moved verbatim from package workload so every seeded
// generator lives here; the RNG consumption is unchanged, so graphs are
// bit-identical to the pre-move ones.)
func Scale(tasks, width, kinds int, seed int64) *afg.Graph {
	if tasks < 1 {
		tasks = 1
	}
	if width < 1 {
		width = 1
	}
	if kinds < 1 {
		kinds = 1
	}
	rng := rand.New(rand.NewSource(seed))
	type profile struct {
		cost  float64
		mem   int64
		bytes int64
	}
	catalogue := make([]profile, kinds)
	for i := range catalogue {
		catalogue[i] = profile{
			cost:  0.1 + rng.Float64()*4,
			mem:   int64(1+rng.Intn(64)) << 20,
			bytes: int64(1+rng.Intn(16)) << 10,
		}
	}
	b := newBuilder(tasks)
	var prev []int
	for made := 0; made < tasks; {
		n := width
		if rem := tasks - made; n > rem {
			n = rem
		}
		var cur []int
		for i := 0; i < n; i++ {
			p := catalogue[rng.Intn(kinds)]
			cur = append(cur, b.task(&afg.Task{
				ID: afg.TaskID(fmt.Sprintf("t%05d", made)), Function: "synthetic.noop",
				ComputeCost: p.cost, MemReq: p.mem, OutputBytes: p.bytes,
			}))
			made++
		}
		for _, c := range cur {
			if len(prev) == 0 {
				continue
			}
			// Sparse rank-to-rank wiring: every task gets one parent plus a
			// second with probability 1/4, keeping edges linear in tasks.
			p := prev[rng.Intn(len(prev))]
			b.link(p, c, b.tasks[p].OutputBytes)
			if rng.Intn(4) == 0 {
				if q := prev[rng.Intn(len(prev))]; q != p {
					b.link(q, c, b.tasks[q].OutputBytes)
				}
			}
		}
		prev = cur
	}
	return b.mustBuild(fmt.Sprintf("scale-%d", tasks))
}
