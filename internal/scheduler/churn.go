package scheduler

// churn.go is the seeded fault-injection harness behind the CHURN
// experiment: the script side of the one executor (sim.go). RunChurn replays
// a committed allocation table under a scripted churn trace — hosts going
// down (killing their running tasks), coming back, and straggler hosts
// running slower than predicted — and this file holds what the executor does
// on a deviation: kill, promote a hedge copy, drive the frontier
// rescheduler (resched.go), adopt the certified repair. The scheduler side
// only ever sees predicted costs; the trace's straggle multipliers are
// ground truth it discovers through overrun detection, exactly the
// information asymmetry of the live monitoring plane.
//
// Determinism contract: for a fixed graph, table, trace, and config the
// run is bit-identical — every ordered walk goes through dense ids or a
// heap with an id tie-break, the only randomness is the caller's explicit
// trace seed, and every adopted re-plan is certified by CertifyReplan first.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/afg"
	"repro/internal/netsim"
)

// ChurnEvent is one scripted availability transition.
type ChurnEvent struct {
	At   float64 `json:"at"`
	Host string  `json:"host"`
	Down bool    `json:"down"`
}

// ChurnTrace scripts one fault-injection run: availability transitions in
// ascending time order plus per-host straggle multipliers (actual
// execution time = predicted × multiplier; absent hosts run true to
// prediction).
type ChurnTrace struct {
	Events   []ChurnEvent       `json:"events"`
	Straggle map[string]float64 `json:"straggle,omitempty"`
}

// ChurnTraceConfig tunes the seeded trace generator.
type ChurnTraceConfig struct {
	// FailFraction of the hosts fail once, at a uniform random time in
	// [0.1, 0.6] × horizon. At least one host never fails.
	FailFraction float64
	// RepairAfter > 0 brings each failed host back after that many
	// seconds; 0 means failures are permanent for the run.
	RepairAfter float64
	// StraggleFraction of the remaining hosts run slow by
	// StraggleFactor (> 1). Straggler and failed sets are disjoint.
	StraggleFraction float64
	StraggleFactor   float64
}

// DefaultChurnTrace is a quarter of the fleet failing permanently and
// another quarter running at half speed.
var DefaultChurnTrace = ChurnTraceConfig{
	FailFraction:     0.25,
	StraggleFraction: 0.25,
	StraggleFactor:   2.0,
}

// GenerateChurnTrace scripts a deterministic trace over the given hosts
// from an explicit seed. horizon scales the failure times and should be
// on the order of the fault-free makespan.
func GenerateChurnTrace(hosts []string, horizon float64, cfg ChurnTraceConfig, seed int64) ChurnTrace {
	names := append([]string(nil), hosts...)
	sort.Strings(names)
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(names))

	nFail := int(math.Round(cfg.FailFraction * float64(len(names))))
	if nFail >= len(names) {
		nFail = len(names) - 1 // at least one survivor
	}
	if nFail < 0 {
		nFail = 0
	}
	nSlow := int(math.Round(cfg.StraggleFraction * float64(len(names))))
	if nFail+nSlow > len(names) {
		nSlow = len(names) - nFail
	}

	var tr ChurnTrace
	for i := 0; i < nFail; i++ {
		h := names[perm[i]]
		at := (0.1 + 0.5*rng.Float64()) * horizon
		tr.Events = append(tr.Events, ChurnEvent{At: at, Host: h, Down: true})
		if cfg.RepairAfter > 0 {
			tr.Events = append(tr.Events, ChurnEvent{At: at + cfg.RepairAfter, Host: h, Down: false})
		}
	}
	if nSlow > 0 && cfg.StraggleFactor > 1 {
		tr.Straggle = make(map[string]float64, nSlow)
		for i := nFail; i < nFail+nSlow; i++ {
			tr.Straggle[names[perm[i]]] = cfg.StraggleFactor
		}
	}
	sort.SliceStable(tr.Events, func(i, j int) bool {
		if tr.Events[i].At != tr.Events[j].At { // tie-break adjacent to the ordering
			return tr.Events[i].At < tr.Events[j].At
		}
		return tr.Events[i].Host < tr.Events[j].Host
	})
	return tr
}

// ChurnConfig tunes the deviation handling.
type ChurnConfig struct {
	// OverrunThreshold triggers an overrun deviation when a task's actual
	// running time exceeds threshold × predicted. ≤ 1 disables overrun
	// detection; the default is 1.5.
	OverrunThreshold float64
	// Replanner names the registered frontier re-planner; default "eft".
	Replanner string
}

const defaultOverrunThreshold = 1.5

func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.OverrunThreshold == 0 {
		c.OverrunThreshold = defaultOverrunThreshold
	}
	if c.Replanner == "" {
		c.Replanner = "eft"
	}
	return c
}

// ChurnOutcome summarizes one fault-injection run.
type ChurnOutcome struct {
	Makespan        float64 `json:"makespan"`
	Replans         int     `json:"replans"`
	HostDownReplans int     `json:"host_down_replans"`
	OverrunReplans  int     `json:"overrun_replans"`
	Moved           int     `json:"moved"`    // frontier tasks re-placed across all re-plans
	DupRuns         int     `json:"dup_runs"` // duplicate copies promoted to primary
	Killed          int     `json:"killed"`   // task executions lost to host failures
}

// RunChurn replays table under the churn trace, re-planning the unstarted
// frontier through the named re-planner on every deviation. predicted is
// the scheduler-visible cost model; the trace's straggle multipliers turn
// it into ground truth. Every adopted re-plan is certified by
// CertifyReplan against the predicted model first.
//
// predicted must be a pure function of (task, host) for the duration of the
// call — the determinism contract above already rests on it — and RunChurn
// asks it each (task, host) pair of the run at most once: the executor, every
// re-plan and every certification read one per-run price table (runPrices).
func RunChurn(g *afg.Graph, table *AllocationTable, predicted TimeModel, net *netsim.Network, hosts []HostRef, trace ChurnTrace, cfg ChurnConfig) (*ChurnOutcome, error) {
	cfg = cfg.withDefaults()
	rp, err := LookupReplanner(cfg.Replanner)
	if err != nil {
		return nil, err
	}
	ix, err := g.Index()
	if err != nil {
		return nil, err
	}
	if cfg.OverrunThreshold <= 1 {
		cfg.OverrunThreshold = math.Inf(1) // no finite run outlasts it: detection off
	}
	// A duplicate promotion writes the plan in force, so the executor gets a
	// private copy (entries the graph does not name are not part of the run).
	plan := NewAllocationTableSized(table.App, g.Len())
	for _, id := range g.TaskIDs() {
		if a, ok := table.Get(id); ok {
			plan.Set(a)
		}
	}
	x := executor{g: g, table: plan, model: newRunPrices(predicted, ix, hosts).price, net: net,
		events: trace.Events, straggle: trace.Straggle, threshold: cfg.OverrunThreshold, rp: rp, hosts: hosts}
	if err := x.run(); err != nil {
		return nil, err
	}
	out := x.out
	return &out, nil
}

// runPrices is one RunChurn's price table, installed as the executor's model
// and so read by everything that prices during the run: the executor's
// starts, every ReplanRequest.Costs (the re-planner's lazy CostMatrix, keep,
// dup's hedges) and both replays of every CertifyReplan. Rows are the run's
// dense task ids, columns its host names. A task or host outside them goes
// straight to predicted; a price is stored as returned — NaN, ±Inf and
// negatives included — so every refusal still fires where it would without
// the table. It is no cache: nothing invalidates it, and it dies with the run.
//
// Until some task is asked on a second host, each task holds its one price
// in first: all a run that never re-plans needs. The first such ask — the
// first re-plan's cost matrix, in practice — arms the V×H table.
type runPrices struct {
	predicted TimeModel
	ix        *afg.Index
	col       map[string]int32 // host name -> column

	first    []float64 // unarmed: task t's price on column firstCol[t]-1
	firstCol []int32   // 0 = not priced yet
	table    []float64 // armed: V×H row-major, valid where known
	known    []bool
}

func newRunPrices(predicted TimeModel, ix *afg.Index, hosts []HostRef) *runPrices {
	p := &runPrices{predicted: predicted, ix: ix, col: make(map[string]int32, len(hosts)),
		first: make([]float64, ix.Len()), firstCol: make([]int32, ix.Len())}
	for _, h := range hosts {
		if _, ok := p.col[h.Host]; !ok {
			p.col[h.Host] = int32(len(p.col))
		}
	}
	return p
}

// price is the run's TimeModel: predicted, asked once per pair.
func (p *runPrices) price(task *afg.Task, host string) float64 {
	t := p.ix.Of(task.ID)
	c, ok := p.col[host]
	if t < 0 || !ok || p.ix.Task(t) != task {
		return p.predicted(task, host)
	}
	if p.known == nil {
		switch p.firstCol[t] {
		case 0:
			p.first[t], p.firstCol[t] = p.predicted(task, host), c+1
			return p.first[t]
		case c + 1:
			return p.first[t]
		}
		p.arm()
	}
	k := t*len(p.col) + int(c)
	if !p.known[k] {
		p.table[k], p.known[k] = p.predicted(task, host), true
	}
	return p.table[k]
}

// arm allocates the V×H table and moves every task's first price into it.
func (p *runPrices) arm() {
	h := len(p.col)
	p.table, p.known = make([]float64, p.ix.Len()*h), make([]bool, p.ix.Len()*h)
	for t, c := range p.firstCol {
		if c > 0 {
			k := t*h + int(c-1)
			p.table[k], p.known[k] = p.first[t], true
		}
	}
}

// transition applies the next scripted availability event. A host going
// down kills what runs on it — the work is lost and the task returns to the
// frontier, on its hedge copy if a live one is registered — and raises a
// host-down deviation; a host coming back is free from now.
func (x *executor) transition() error {
	ev := x.events[x.traceIx]
	x.traceIx++
	x.now = ev.At
	c := x.colFor(ev.Host)
	var err error
	switch wasDown := x.isDown(c); {
	case !ev.Down && wasDown:
		x.hostFree[c] = x.now
	case ev.Down && !wasDown:
		x.hostFree[c] = math.Inf(1)
		running := x.fin[:0]
		for _, e := range x.fin {
			if !slices.Contains(x.hostCols[e.i], c) {
				running = append(running, e)
				continue
			}
			x.started[e.i] = false
			x.out.Killed++
			if int(e.i) < len(x.dup) && x.dup[e.i].Task != "" && !x.isDown(x.colFor(x.dup[e.i].Host)) {
				x.table.Set(x.dup[e.i])
				x.dup[e.i] = Assignment{}
				x.out.DupRuns++
			}
		}
		x.fin = running
		x.fin.Init()
		x.det = slices.DeleteFunc(x.det, func(e event) bool { return !x.started[e.i] })
		x.det.Init()
		err = x.replan(Deviation{Kind: DeviationHostDown, Host: ev.Host, At: x.now})
	}
	x.refresh()
	return err
}

func (x *executor) isDown(c int32) bool { return math.IsInf(x.hostFree[c], 1) }

// overrun raises the deviation of a running task caught past threshold ×
// its prediction; each run is caught at most once (its detection is popped).
func (x *executor) overrun(e event) error {
	x.now = e.at
	err := x.replan(Deviation{Kind: DeviationOverrun, Host: x.assigns[e.i].Host, Task: x.ix.ID(int(e.i)),
		At: x.now, Ratio: (x.end[e.i] - x.begin[e.i]) / x.pred[e.i]})
	x.refresh()
	return err
}

// refresh re-reads the plan in force after a deviation — the one moment a
// start can move earlier: unstarted tasks take their (possibly new)
// assignments, and the candidate heap is rebuilt from the ready set.
func (x *executor) refresh() {
	for i, started := range x.started {
		if !started {
			a, _ := x.table.Get(x.ix.ID(i))
			x.mirror(i, a)
		}
	}
	x.reseed()
}

// replan asks the re-planner to repair the frontier around the settled work
// and adopts the certified result. The request's map-keyed progress is built
// here, from the dense state, for this one call.
func (x *executor) replan(ev Deviation) error {
	req := &ReplanRequest{
		Graph: x.g, Table: x.table, Event: ev, Costs: x.model, Hosts: x.hosts, Net: x.net,
		Done:    make(map[afg.TaskID]float64, x.ix.Len()),
		Running: make(map[afg.TaskID]float64, len(x.fin)),
		Down:    map[string]bool{},
	}
	for _, e := range x.fin {
		// The scheduler's view of a running task is its expected finish,
		// floored at the present — it knows an overrunning task has not
		// finished yet, not when it will.
		req.Running[x.ix.ID(int(e.i))] = math.Max(x.begin[e.i]+x.pred[e.i], x.now)
	}
	for i, started := range x.started {
		if _, running := req.Running[x.ix.ID(i)]; started && !running {
			req.Done[x.ix.ID(i)] = x.end[i]
		}
	}
	for h, c := range x.hostCol {
		if x.isDown(c) {
			req.Down[h] = true
		}
	}
	pl, err := x.rp.Replan(req)
	if errors.Is(err, ErrNoEligibleHost) {
		// An unrepairable moment (e.g. every eligible host down) is
		// not fatal: execution continues on the stale plan and a
		// later recovery or deviation may retry.
		return nil
	}
	if err == nil {
		_, err = CertifyReplan(x.g, pl.Table, x.model, x.net)
	}
	if err != nil {
		return fmt.Errorf("churn replan (%s, %s): %w", x.rp.Name(), ev.Kind, err)
	}
	// Settled assignments must survive verbatim: the frontier
	// rescheduler may only move unstarted tasks.
	for i, was := range x.assigns {
		id := x.ix.ID(i)
		if is, ok := pl.Table.Get(id); x.started[i] && (!ok || was.Host != is.Host || was.Site != is.Site) {
			return fmt.Errorf("churn replan (%s): settled task %s moved from %s to %s",
				x.rp.Name(), id, was.Host, is.Host)
		}
	}
	x.table = pl.Table
	x.out.Replans++
	x.out.Moved += pl.Moved
	switch ev.Kind {
	case DeviationHostDown:
		x.out.HostDownReplans++
	case DeviationOverrun:
		x.out.OverrunReplans++
	}
	for _, d := range pl.Duplicates {
		if i := x.ix.Of(d.Task); i >= 0 && !x.started[i] {
			if x.dup == nil {
				x.dup = make([]Assignment, x.ix.Len())
			}
			x.dup[i] = d
		}
	}
	return nil
}
