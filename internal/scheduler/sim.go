package scheduler

import (
	"fmt"
	"math"

	"repro/internal/afg"
	"repro/internal/minheap"
	"repro/internal/netsim"
)

// TimeModel returns the ground-truth execution seconds of a task on a host.
// The evaluation benchmarks use it to score allocation tables: schedulers
// see (possibly stale) repository data, the simulator charges actual times.
//
// A model must be a pure function of (task, host) for as long as one call
// that takes it runs: RunChurn prices each pair at most once per run and
// reuses that price for every later start, re-plan and certification.
type TimeModel func(task *afg.Task, host string) float64

// Simulate replays an allocation table with the event-driven executor and
// returns the makespan (schedule length) in modelled seconds.
//
// Semantics:
//   - a task starts when all parents have finished AND their output has
//     arrived (inter-site transfer time from the network model) AND its
//     assigned host is free;
//   - each host executes one task at a time (the paper's hosts are single
//     workstations; parallel tasks occupy all their hosts);
//   - transfer between tasks sharing a host is free — parallel tasks
//     compare their full host sets, not just the primary — same site pays
//     the LAN cost, cross-site pays the WAN cost;
//   - among the tasks whose parents have finished, the one with the
//     earliest possible start runs next (ties broken by task id).
//
// Simulate is the executor with nothing scripted: no availability trace, no
// straggler, so no deviation ever fires and no re-planner is consulted.
// RunChurn (churn.go) is the same loop with a script.
//
//vdce:hot allocs=0
func Simulate(g *afg.Graph, table *AllocationTable, model TimeModel, net *netsim.Network) (float64, error) {
	x := executor{g: g, table: table, model: model, net: net, threshold: defaultOverrunThreshold}
	if err := x.run(); err != nil {
		return 0, err
	}
	return x.out.Makespan, nil
}

// executor is the one event loop that advances simulated time for a plan
// (ValidateSchedule's naive replay is the independent check on it, and
// shares no code with it). All per-task and per-host state is slice-indexed
// through the graph's dense Index and lives in the embedded pooled scratch;
// the loop itself runs map-free.
//
// Four event sources, served earliest first and in this order at equal
// times, so a re-plan always sees the freshest settled/down state and no
// task starts on a host in the instant it goes down:
//
//	fin    running tasks by actual finish; a finish unblocks children
//	trace  the scripted availability transitions, by cursor (churn.go)
//	det    overrun detections of running stragglers (churn.go)
//	cand   ready tasks by candidate start, keyed (start, dense id)
//
// cand is a lazy-update queue: a ready-tracker (per-task parent counters)
// feeds it, and between deviations a candidate's start only ever moves
// later (a host timeline moved out), so a stale top is re-pushed at its
// current start. Only a deviation — a trace event, a duplicate promotion, an
// adopted re-plan — can move a start earlier, and each of those rebuilds
// cand from the ready set (reseed). Total work is O((V+E)·log V) plus one
// re-push per (start, co-hosted ready task) pair.
type executor struct {
	g     *afg.Graph
	ix    *afg.Index
	table *AllocationTable // the plan in force; an adopted re-plan replaces it
	model TimeModel        // scheduler-visible cost; straggle turns it into ground truth
	net   *netsim.Network
	*scratch

	// The script (all zero for Simulate): availability events in time order,
	// per-host slowdowns, and who repairs the plan over which hosts.
	events    []ChurnEvent
	straggle  map[string]float64
	threshold float64 // a run past threshold × predicted raises an overrun
	rp        Replanner
	hosts     []HostRef

	now     float64
	traceIx int
	dup     []Assignment // hedge copy per task (zero = none); made by the first re-plan that emits one
	out     ChurnOutcome
}

// event is one heap entry, ordered (at, dense task id) — ascending TaskID on
// ties by the Index invariant.
type event struct {
	at float64
	i  int32
}

// LessThan implements minheap.Ordered.
func (a event) LessThan(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.i < b.i
}

type pq = minheap.Heap[event]

// run executes the plan to completion, filling x.out.
func (x *executor) run() error {
	if x.g.Len() == 0 {
		return afg.ErrEmpty
	}
	ix, err := x.g.Index()
	if err != nil {
		return err
	}
	x.ix = ix
	x.scratch = getScratch()
	defer x.release()
	if err := x.load(); err != nil {
		return err
	}

	inf, left := math.Inf(1), ix.Len()
loop:
	for left > 0 {
		startAt := inf
		for len(x.cand) > 0 {
			top := x.cand[0]
			if cur := x.startOf(top.i); cur > top.at {
				// A start since this entry was pushed moved one of the
				// task's hosts further out; re-queue at the current start.
				x.cand.Pop()
				top.at = cur
				x.cand.Push(top)
				continue
			}
			startAt = top.at
			break
		}
		finAt, traceAt, detAt := inf, inf, inf
		if len(x.fin) > 0 {
			finAt = x.fin[0].at
		}
		if x.traceIx < len(x.events) {
			traceAt = x.events[x.traceIx].At
		}
		if len(x.det) > 0 {
			detAt = x.det[0].at
		}
		switch {
		case finAt <= traceAt && finAt <= detAt && finAt <= startAt && len(x.fin) > 0:
			x.finish(x.fin.Pop())
			left--
		case traceAt <= detAt && traceAt <= startAt && x.traceIx < len(x.events):
			err = x.transition()
		case detAt <= startAt && len(x.det) > 0:
			err = x.overrun(x.det.Pop())
		case startAt < inf:
			err = x.start(x.cand.Pop())
		default:
			break loop
		}
		if err != nil {
			return err
		}
	}
	if left > 0 {
		return fmt.Errorf("scheduler: execution stuck with %d tasks pending (every runnable path is down and no recovery is scripted)", left)
	}
	return nil
}

// load mirrors the table into dense columns and seeds the ready set. The
// per-task columns are fully overwritten; the per-host vectors start empty
// and grow a zero per column (colFor).
func (x *executor) load() error {
	n := x.ix.Len()
	if x.hostCol == nil {
		x.hostCol = map[string]int32{}
	} else {
		clear(x.hostCol)
	}
	x.hostFree, x.slow = x.hostFree[:0], x.slow[:0]
	x.assigns, x.hostCols = grow(x.assigns, n), grow(x.hostCols, n)
	x.pending, x.started = grow(x.pending, n), growZero(x.started, n)
	x.dataReady, x.begin, x.pred, x.end = grow(x.dataReady, n), grow(x.begin, n), grow(x.pred, n), grow(x.end, n)
	for i := range x.assigns {
		a, ok := x.table.Get(x.ix.ID(i))
		if !ok {
			return fmt.Errorf("scheduler: task %q missing from allocation table", x.ix.ID(i))
		}
		x.mirror(i, a)
		x.pending[i] = int32(x.ix.NumParents(i))
	}
	// No heap ever holds more than one entry per task; capacity n keeps the
	// fault-free pushes growth-free.
	x.cand, x.fin, x.det = grow(x.cand, n), grow(x.fin, n)[:0], x.det[:0]
	x.reseed()
	return nil
}

// mirror records task i's assignment and resolves its hosts to dense
// columns, reusing the slot's backing array from the pooled scratch's last
// holder (a warm load allocates nothing).
func (x *executor) mirror(i int, a Assignment) {
	x.assigns[i] = a
	cols := x.hostCols[i][:0]
	if len(a.Hosts) == 0 { // single-host: no effectiveHosts slice
		cols = append(cols, x.colFor(a.Host))
	}
	for _, h := range a.Hosts {
		cols = append(cols, x.colFor(h))
	}
	x.hostCols[i] = cols
}

// colFor returns host h's dense column, opening one — free at 0, running at
// its scripted speed — the first time a table, trace or re-plan names it.
func (x *executor) colFor(h string) int32 {
	c, ok := x.hostCol[h]
	if !ok {
		c = int32(len(x.hostCol))
		x.hostCol[h] = c
		x.hostFree = append(x.hostFree, 0)
		x.slow = append(x.slow, x.straggle[h])
	}
	return c
}

// reseed rebuilds the candidate heap from the ready set: every unstarted
// task whose parents have all finished, at its current start but never in
// the past (a re-plan may hand a long-ready task a long-idle host).
func (x *executor) reseed() {
	x.cand = x.cand[:0]
	for i, p := range x.pending {
		if p == 0 && !x.started[i] {
			x.dataReady[i] = x.arrival(int32(i))
			x.cand = append(x.cand, event{at: math.Max(x.now, x.startOf(int32(i))), i: int32(i)})
		}
	}
	x.cand.Init()
}

// arrival is when task i's inputs are all on its hosts: the latest parent
// finish plus transfer. Valid once every parent has finished.
func (x *executor) arrival(i int32) float64 {
	var ready float64
	cols, site := x.hostCols[i], x.assigns[i].Site
	for _, arc := range x.ix.Parents(int(i)) {
		arrive := x.end[arc.Peer]
		if x.net != nil && !sharesCol(x.hostCols[arc.Peer], cols) {
			arrive += x.net.TransferTime(x.assigns[arc.Peer].Site, site, arc.Bytes).Seconds()
		}
		ready = math.Max(ready, arrive)
	}
	return ready
}

// startOf is the earliest time ready task i can begin given the current host
// timeline (a down host is free at +Inf).
func (x *executor) startOf(i int32) float64 {
	st := x.dataReady[i]
	for _, c := range x.hostCols[i] {
		st = math.Max(st, x.hostFree[c])
	}
	return st
}

// start runs candidate e.i from e.at: it occupies its hosts until its actual
// finish — predicted duration, split across a parallel host set, times the
// slowest host's straggle — and is watched for an overrun.
func (x *executor) start(e event) error {
	x.now = e.at
	dur := x.model(x.ix.Task(int(e.i)), x.assigns[e.i].Host)
	if dur < 0 || math.IsNaN(dur) || math.IsInf(dur, 0) {
		return fmt.Errorf("scheduler: invalid duration %v for task %q", dur, x.ix.ID(int(e.i)))
	}
	cols := x.hostCols[e.i]
	if len(cols) > 1 {
		dur /= float64(len(cols))
	}
	slow := 1.0
	for _, c := range cols {
		slow = math.Max(slow, x.slow[c])
	}
	end := e.at + dur*slow
	for _, c := range cols {
		x.hostFree[c] = end
	}
	x.started[e.i], x.begin[e.i], x.pred[e.i], x.end[e.i] = true, e.at, dur, end
	x.fin.Push(event{at: end, i: e.i})
	if at := e.at + x.threshold*dur; end > at {
		x.det.Push(event{at: at, i: e.i})
	}
	return nil
}

// finish completes a running task: children losing their last pending
// parent learn their data-ready time and enter the candidate heap.
func (x *executor) finish(e event) {
	x.now = e.at
	x.out.Makespan = math.Max(x.out.Makespan, e.at)
	for _, arc := range x.ix.Children(int(e.i)) {
		c := arc.Peer
		x.pending[c]--
		if x.pending[c] == 0 {
			x.dataReady[c] = x.arrival(c)
			x.cand.Push(event{at: x.startOf(c), i: c})
		}
	}
}

// sharesCol reports whether two dense host-column sets intersect (the
// integer twin of sharesHost; host sets are tiny, so the quadratic scan
// beats building a set).
func sharesCol(a, b []int32) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// CommVolume sums the modelled inter-host communication time of a table —
// the quantity the paper's co-location argument minimises ("to decrease the
// inter-task communication time"). A link between tasks sharing any host
// (parallel tasks occupy several) moves no data and costs nothing.
func CommVolume(g *afg.Graph, table *AllocationTable, net *netsim.Network) float64 {
	ix, err := g.Index()
	if err != nil || net == nil {
		return 0
	}
	var total float64
	for t := 0; t < ix.Len(); t++ {
		from, ok := table.Get(ix.ID(t))
		if !ok {
			continue
		}
		for _, a := range ix.Children(t) {
			to, ok := table.Get(ix.ID(int(a.Peer)))
			if !ok || sharesHost(effectiveHosts(from), effectiveHosts(to)) {
				continue
			}
			total += net.TransferTime(from.Site, to.Site, a.Bytes).Seconds()
		}
	}
	return total
}
