package scheduler

// churn.go is the seeded fault-injection harness behind the CHURN
// experiment: a deterministic discrete-event executor that replays a
// committed allocation table under a scripted churn trace — hosts going
// down (killing their running tasks), coming back, and straggler hosts
// running slower than predicted — and drives the frontier rescheduler
// (resched.go) on every deviation. The scheduler side only ever sees
// predicted costs; the trace's straggle multipliers are ground truth it
// discovers through overrun detection, exactly the information asymmetry
// of the live monitoring plane.
//
// Determinism contract: for a fixed graph, table, trace, and config the
// run is bit-identical — every set iterated here goes through sorted
// slices, the only randomness is the caller's explicit trace seed, and
// every adopted re-plan is certified by CertifyReplan first.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/afg"
	"repro/internal/netsim"
)

// ChurnEvent is one scripted availability transition.
type ChurnEvent struct {
	//vdce:unit seconds
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
	//vdce:unit seconds
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
	// MaxReplans caps re-planning rounds; 0 = unlimited.
	MaxReplans int
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.OverrunThreshold == 0 {
		c.OverrunThreshold = 1.5
	}
	if c.Replanner == "" {
		c.Replanner = "eft"
	}
	return c
}

// ChurnOutcome summarizes one fault-injection run.
type ChurnOutcome struct {
	//vdce:unit seconds
	Makespan        float64 `json:"makespan"`
	Replans         int     `json:"replans"`
	HostDownReplans int     `json:"host_down_replans"`
	OverrunReplans  int     `json:"overrun_replans"`
	Moved           int     `json:"moved"`    // frontier tasks re-placed across all re-plans
	DupRuns         int     `json:"dup_runs"` // duplicate copies promoted to primary
	Killed          int     `json:"killed"`   // task executions lost to host failures
}

type churnRun struct {
	host  string // primary host
	hosts []string
	start float64
	pred  float64 // predicted duration as scheduled
	//vdce:unit seconds
	predFin   float64 // start + pred: the finish the scheduler expects
	actualFin float64
	detected  bool // overrun deviation already raised
}

// RunChurn replays table under the churn trace, re-planning the unstarted
// frontier through the named re-planner on every deviation. predicted is
// the scheduler-visible cost model; the trace's straggle multipliers turn
// it into ground truth. Every adopted re-plan is certified by
// CertifyReplan against the predicted model first.
func RunChurn(g *afg.Graph, table *AllocationTable, predicted TimeModel, net *netsim.Network, hosts []HostRef, trace ChurnTrace, cfg ChurnConfig) (*ChurnOutcome, error) {
	cfg = cfg.withDefaults()
	rp, err := LookupReplanner(cfg.Replanner)
	if err != nil {
		return nil, err
	}
	ids := g.TaskIDs()
	for _, id := range ids {
		if _, ok := table.Get(id); !ok {
			return nil, fmt.Errorf("scheduler: churn: task %s missing from table", id)
		}
	}

	cur := NewAllocationTableSized(table.App, len(ids))
	for _, id := range ids {
		a, _ := table.Get(id)
		cur.Set(a)
	}

	var (
		out      ChurnOutcome
		now      float64
		done     = make(map[afg.TaskID]float64, len(ids))
		running  = make(map[afg.TaskID]*churnRun)
		down     = make(map[string]bool)
		hostFree = make(map[string]float64)
		dupOf    = make(map[afg.TaskID]Assignment)
		traceIx  = 0
	)
	straggleOf := func(hs []string) float64 {
		m := 1.0
		for _, h := range hs {
			if s, ok := trace.Straggle[h]; ok && s > m {
				m = s
			}
		}
		return m
	}

	replan := func(ev Deviation) error {
		if cfg.MaxReplans > 0 && out.Replans >= cfg.MaxReplans {
			return nil
		}
		req := &ReplanRequest{
			Graph: g,
			Table: cur,
			Done:  done,
			// The scheduler's view of a running task is its expected
			// finish, floored at the present — it knows an overrunning
			// task has not finished yet, not when it will.
			Running: make(map[afg.TaskID]float64, len(running)),
			Down:    down,
			Event:   ev,
			Costs:   predicted,
			Hosts:   hosts,
			Net:     net,
		}
		for _, id := range sortedIDs(running) {
			f := running[id].predFin
			if now > f {
				f = now
			}
			req.Running[id] = f
		}
		pl, err := rp.Replan(req)
		if errors.Is(err, ErrNoEligibleHost) {
			// An unrepairable moment (e.g. every eligible host down) is
			// not fatal: execution continues on the stale plan and a
			// later recovery or deviation may retry.
			return nil
		}
		if err != nil {
			return fmt.Errorf("churn replan (%s, %s): %w", cfg.Replanner, ev.Kind, err)
		}
		if _, err := CertifyReplan(g, pl.Table, predicted, net); err != nil {
			return fmt.Errorf("churn replan (%s, %s): %w", cfg.Replanner, ev.Kind, err)
		}
		// Settled assignments must survive verbatim: the frontier
		// rescheduler may only move unstarted tasks.
		for _, id := range ids {
			_, isDone := done[id]
			_, isRun := running[id]
			if !isDone && !isRun {
				continue
			}
			was, _ := cur.Get(id)
			is, ok := pl.Table.Get(id)
			if !ok || was.Host != is.Host || was.Site != is.Site {
				return fmt.Errorf("churn replan (%s): settled task %s moved from %s to %s",
					cfg.Replanner, id, was.Host, is.Host)
			}
		}
		cur = pl.Table
		out.Replans++
		out.Moved += pl.Moved
		switch ev.Kind {
		case DeviationHostDown:
			out.HostDownReplans++
		case DeviationOverrun:
			out.OverrunReplans++
		}
		for _, d := range pl.Duplicates {
			if _, isDone := done[d.Task]; isDone {
				continue
			}
			if _, isRun := running[d.Task]; isRun {
				continue
			}
			dupOf[d.Task] = d
		}
		return nil
	}

	for len(done) < len(ids) {
		// Earliest pending start: parents done, every host up, clamped to
		// the present.
		const none = math.MaxFloat64
		startAt, startID := none, afg.TaskID("")
		for _, id := range ids {
			if _, isDone := done[id]; isDone {
				continue
			}
			if _, isRun := running[id]; isRun {
				continue
			}
			a, _ := cur.Get(id)
			hs := effectiveHosts(a)
			ok := true
			for _, h := range hs {
				if down[h] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			at := now
			for _, l := range g.Parents(id) {
				pf, isDone := done[l.From]
				if !isDone {
					ok = false
					break
				}
				arrive := pf
				if net != nil {
					pa, _ := cur.Get(l.From)
					// Simulate's transfer rule exactly: a link between
					// tasks sharing any host moves no data.
					if !sharesHost(effectiveHosts(pa), hs) {
						arrive += net.TransferTime(pa.Site, a.Site, transferBytes(g, l)).Seconds()
					}
				}
				if arrive > at {
					at = arrive
				}
			}
			if !ok {
				continue
			}
			for _, h := range hs {
				if f := hostFree[h]; f > at {
					at = f
				}
			}
			if at < startAt {
				startAt, startID = at, id
			}
		}

		finAt, finID := none, afg.TaskID("")
		detAt, detID := none, afg.TaskID("")
		for _, id := range sortedIDs(running) {
			r := running[id]
			if r.actualFin < finAt {
				finAt, finID = r.actualFin, id
			}
			if cfg.OverrunThreshold > 1 && !r.detected {
				d := r.start + cfg.OverrunThreshold*r.pred
				if r.actualFin > d && d < detAt {
					detAt, detID = d, id
				}
			}
		}
		traceAt := none
		if traceIx < len(trace.Events) {
			traceAt = trace.Events[traceIx].At
		}

		// Priority at equal times: finishes land first, then availability
		// transitions, then overrun detections, then new starts — so a
		// re-plan always sees the freshest settled/down state, and no task
		// starts on a host in the same instant it goes down.
		switch {
		case finAt <= traceAt && finAt <= detAt && finAt <= startAt && finID != "":
			r := running[finID]
			now = finAt
			done[finID] = r.actualFin
			delete(running, finID)
			delete(dupOf, finID)

		case traceAt <= detAt && traceAt <= startAt && traceAt < none:
			ev := trace.Events[traceIx]
			traceIx++
			now = ev.At
			if !ev.Down {
				if down[ev.Host] {
					delete(down, ev.Host)
					if hostFree[ev.Host] < now {
						hostFree[ev.Host] = now
					}
				}
				break
			}
			if down[ev.Host] {
				break
			}
			down[ev.Host] = true
			hostFree[ev.Host] = now
			for _, id := range sortedIDs(running) {
				r := running[id]
				if !hostIn(r.hosts, ev.Host) {
					continue
				}
				// Work lost: the task returns to the frontier. A live
				// registered duplicate becomes its new primary placement.
				delete(running, id)
				out.Killed++
				if d, ok := dupOf[id]; ok && !down[d.Host] {
					cur.Set(d)
					delete(dupOf, id)
					out.DupRuns++
				}
			}
			if err := replan(Deviation{Kind: DeviationHostDown, Host: ev.Host, At: now}); err != nil {
				return nil, err
			}

		case detAt <= startAt && detID != "":
			r := running[detID]
			now = detAt
			r.detected = true
			ratio := 0.0
			if r.pred > 0 {
				ratio = (r.actualFin - r.start) / r.pred
			}
			if err := replan(Deviation{
				Kind: DeviationOverrun, Host: r.host, Task: detID, At: now, Ratio: ratio,
			}); err != nil {
				return nil, err
			}

		case startID != "":
			now = startAt
			a, _ := cur.Get(startID)
			hs := effectiveHosts(a)
			task := g.Task(startID)
			pred := predicted(task, a.Host)
			if len(hs) > 1 {
				pred /= float64(len(hs)) // Simulate's parallel split
			}
			r := &churnRun{
				host: a.Host, hosts: hs, start: startAt, pred: pred,
				predFin:   startAt + pred,
				actualFin: startAt + pred*straggleOf(hs),
			}
			running[startID] = r
			for _, h := range hs {
				hostFree[h] = r.actualFin
			}

		default:
			return nil, errors.New("scheduler: churn: execution stuck (every runnable path is down and no recovery is scripted)")
		}
	}

	for _, id := range ids {
		if f := done[id]; f > out.Makespan {
			out.Makespan = f
		}
	}
	return &out, nil
}
