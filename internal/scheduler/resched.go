package scheduler

// resched.go is the frontier rescheduler (paper §2.3.1): when the
// monitoring plane reports a deviation — a host down, or a task
// overrunning its prediction past a threshold — the *unstarted frontier*
// of an in-flight application is re-planned around the settled work
// instead of re-solving the whole application. Completed and running tasks
// keep their assignments verbatim; only tasks that have not started may
// move.
//
// Re-planners are pluggable behind the registry the policies use
// (registry.go): RegisterReplanner at init, LookupReplanner by name,
// sorted Replanners() for error messages and flag help. The three
// built-ins are strategies over the one scheduling kernel (heft.go's
// placement, started from the settled set — initial scheduling is the
// re-plan with nothing settled); they differ in which frontier tasks may
// move, the start rule, and whether hedge copies are emitted:
//
//	heft — the heft policy's own pass over the whole frontier: upward
//	       ranks over the frontier subgraph, insertion-based placement
//	eft  — cheap patch: only frontier tasks touching a suspect host are
//	       re-placed (append-based), on unsuspected hosts; the rest stay
//	dup  — the eft patch plus duplicate copies of the re-placed tasks on
//	       idle hosts, a hedge the churn harness may promote if the
//	       primary copy's host fails too
//
// Every re-planned table is certified by CertifyReplan: the two replay
// engines — the executor (sim.go, here as Simulate) and the independent
// validator (validate.go) — must both replay it without violations and agree
// bit-for-bit on the makespan. The executor's deviation path (churn.go) is
// this file's one in-package caller; the live one is site.Manager.

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/afg"
	"repro/internal/netsim"
)

// DeviationKind classifies what the monitoring plane observed.
type DeviationKind int

const (
	// DeviationHostDown is a Group Manager failure report: echo probes
	// stopped answering and the host was marked down.
	DeviationHostDown DeviationKind = iota
	// DeviationOverrun is a straggler report: a running task exceeded its
	// predicted execution time by the configured threshold.
	DeviationOverrun
)

func (k DeviationKind) String() string {
	switch k {
	case DeviationHostDown:
		return "host-down"
	case DeviationOverrun:
		return "overrun"
	}
	return fmt.Sprintf("DeviationKind(%d)", int(k))
}

// Deviation is one monitoring-plane signal that triggers a re-plan.
type Deviation struct {
	Kind DeviationKind
	Host string     // the failed or straggling host
	Task afg.TaskID // overrun only: the straggling task
	At   float64    // detection time, seconds since schedule start
	// Ratio is observed/predicted execution time at detection (overrun
	// only; ≥ the configured threshold by construction).
	Ratio float64
}

// ReplanRequest is the full context a re-planner sees: the application,
// its committed table, execution progress, and the environment.
type ReplanRequest struct {
	Graph *afg.Graph
	Table *AllocationTable // the committed plan being repaired

	// Done maps finished tasks to their actual finish time; Running maps
	// started-but-unfinished tasks to their expected finish. Every other
	// task is the unstarted frontier and may be re-placed.
	Done    map[afg.TaskID]float64
	Running map[afg.TaskID]float64

	// Down marks hosts that must receive no further mappings (§2.3.1:
	// "the machine is marked as 'down' ... to prevent further task
	// mappings").
	Down map[string]bool

	Event Deviation

	// Costs predicts execution seconds per (task, host); Hosts is the
	// candidate pool in dense-column order (site asc, host asc). Net is the
	// initial scheduling environment's network and may be nil.
	Costs TimeModel
	Hosts []HostRef
	Net   *netsim.Network
	// RunChurn's only: the run's price table over Hosts, and the table its
	// last adopted repair retired, into which the repair writes its own.
	prices *runPrices
	spare  *AllocationTable
}

// Replan is a re-planner's output: the complete repaired table (settled
// assignments copied verbatim, frontier re-placed), the number of frontier
// tasks whose primary host changed, and optional duplicate assignments —
// hedge copies on idle hosts that are NOT part of the certified table.
type Replan struct {
	Table      *AllocationTable
	Moved      int
	Duplicates []Assignment
}

// Replanner re-plans the unstarted frontier after a deviation. It must not
// retain the request, its maps or its table: the churn executor refills the
// maps for every deviation and recycles a table once a later repair retires it.
type Replanner interface {
	Name() string
	Replan(req *ReplanRequest) (*Replan, error)
}

// ErrUnknownReplanner reports a LookupReplanner for a name nothing
// registered.
var ErrUnknownReplanner = errors.New("scheduler: unknown replanner")

var replanners = registry[Replanner]{kind: "replanner", unknown: ErrUnknownReplanner, m: map[string]Replanner{}}

// RegisterReplanner installs a re-planner under r.Name(). It panics on an
// empty name or a duplicate registration — programming errors caught at
// init, exactly like the policy registry.
func RegisterReplanner(r Replanner) { replanners.register(r) }

// LookupReplanner resolves a re-planner by name. Unknown names return an
// error wrapping ErrUnknownReplanner that lists every registered one.
func LookupReplanner(name string) (Replanner, error) { return replanners.lookup(name) }

// Replanners returns the registered re-planner names, sorted.
func Replanners() []string { return replanners.names() }

// The built-in re-planners: what may move and by which start rule (patch),
// and whether hedge copies are emitted (hedge).
func init() {
	RegisterReplanner(frontierStrategy{name: "heft"})
	RegisterReplanner(frontierStrategy{name: "eft", patch: true})
	RegisterReplanner(frontierStrategy{name: "dup", patch: true, hedge: true})
}

// hostsOutside refills *buf with the price columns excluded does not mark,
// ascending — the gather's (site, host) order every strategy iterates.
func hostsOutside(buf *[]int32, excluded []bool) []int32 {
	out := (*buf)[:0]
	for c, x := range excluded {
		if !x {
			out = append(out, int32(c))
		}
	}
	*buf = out
	return out
}

// validate checks the request, reads its settled set into r (front, done,
// fin) and returns its graph's index. It walks the index, ids ascending, so a
// malformed request always gets the same error; a settled task the graph
// does not name is found by a sorted walk.
func (req *ReplanRequest) validate(r *repair) (*afg.Index, error) {
	if req.Graph == nil || req.Graph.Len() == 0 {
		return nil, errors.New("scheduler: replan: empty graph")
	}
	if req.Table == nil {
		return nil, errors.New("scheduler: replan: nil table")
	}
	if req.Costs == nil {
		return nil, errors.New("scheduler: replan: nil cost model")
	}
	ix, err := req.Graph.Index()
	if err != nil {
		return nil, fmt.Errorf("scheduler: replan: %w", err)
	}
	r.front, r.done, r.fin = grow(r.front, ix.Len()), grow(r.done, ix.Len()), grow(r.fin, ix.Len())
	named := 0
	for i, id := range ix.IDs() {
		fin, done := req.Done[id]
		ran, run := req.Running[id]
		_, ok := req.Table.at(ix, i)
		switch {
		case done && run:
			return nil, fmt.Errorf("scheduler: replan: task %s both done and running", id)
		case done && !ok:
			return nil, fmt.Errorf("scheduler: replan: done task %s missing from table", id)
		case run && !ok:
			return nil, fmt.Errorf("scheduler: replan: running task %s missing from table", id)
		case done || run:
			named++
		}
		r.front[i], r.done[i], r.fin[i] = !done && !run, done, fin+ran // one of the two is zero
	}
	if named < len(req.Done)+len(req.Running) {
		for _, id := range append(sortedIDs(req.Done), sortedIDs(req.Running)...) {
			if ix.Of(id) < 0 {
				return nil, fmt.Errorf("scheduler: replan: settled task %s is not in the graph", id)
			}
		}
	}
	return ix, nil
}

// sortedIDs returns a map's task keys in ascending order.
func sortedIDs[V any](m map[afg.TaskID]V) []afg.TaskID {
	out := make([]afg.TaskID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// repair is one re-plan in flight: the scheduling kernel (heft.go's
// placement) seeded with the settled set, over a lazy cost matrix of the
// hosts the strategy may use, plus the masks that say what may move.
// A holder's scratch keeps one, so its buffers serve every later repair.
type repair struct {
	req              *ReplanRequest
	ix               *afg.Index
	sc               *scratch
	p                *placement
	prices           *runPrices // the request's run table, or one over its Hosts in sc
	straggler        string     // patch strategies on an overrun: the straggling host
	down, suspect    []bool     // per price column: down; marked
	front, done      []bool     // per row (validate): the unstarted frontier; finished
	fin              []float64  // per settled row: its finish
	stay             []bool     // frontier tasks left on their current hosts
	hedged           []bool     // tasks hedges has considered
	cols, safe, idle []int32    // the up, the unsuspected and the idle price columns
	targets          []int32    // the tasks to hedge
}

// newRepair validates the request and starts the kernel from its settled
// set: done and running assignments are copied verbatim into the repaired
// table in ascending id order, their finishes feed the frontier's
// data-ready times, and every host they occupy — down ones included — is
// busy until its last settled task finishes.
//
// The full rescan (patch false) may move the whole frontier, by insertion,
// over every eligible host; only a parallel task whose machine set is
// intact stays (one that lost a member is re-placed on a single host). The
// cheap patch moves just the tasks touching a suspect host or missing from
// the table, append-only, onto unsuspected hosts — or, when none is left
// (the sole survivor straggles), onto the full eligible pool rather than
// failing the repair. sc backs the kernel; the caller hands the placement's
// buffers back (releaseScratch) when done.
func newRepair(req *ReplanRequest, patch bool, sc *scratch) (*repair, error) {
	r := &sc.repair
	ix, err := req.validate(r)
	if err != nil {
		return nil, err
	}
	r.req, r.ix, r.sc, r.prices, r.straggler = req, ix, sc, req.prices, ""
	if r.prices == nil {
		r.prices = sc.prices.reset(req.Costs, ix, req.Hosts)
	}
	if patch && req.Event.Kind == DeviationOverrun {
		r.straggler = req.Event.Host
	}
	r.down, r.suspect = grow(r.down, len(r.prices.hosts)), grow(r.suspect, len(r.prices.hosts))
	for c, h := range r.prices.hosts {
		r.down[c], r.suspect[c] = req.Down[h.Host], r.marked(h.Host)
	}
	cols := hostsOutside(&r.cols, r.down)
	if len(cols) == 0 {
		return nil, fmt.Errorf("scheduler: replan: %w", ErrNoEligibleHost)
	}
	if safe := hostsOutside(&r.safe, r.suspect); len(safe) > 0 {
		cols = safe
	}
	r.p = newPlacement(lazyCostMatrix(ix, cols, r.prices, sc), req.Table.App, req.spare, req.Net, nil, sc)
	r.p.prior, r.p.singleHost, r.p.appendOnly = req.Table, true, patch
	r.stay = growZero(r.stay, ix.Len())
	for t, front := range r.front {
		old, ok := req.Table.at(ix, t)
		switch {
		case !front:
			r.p.settle(t, old, r.fin[t])
		case patch:
			r.stay[t] = ok && !slices.ContainsFunc(effectiveHosts(old), r.marked)
		default:
			r.stay[t] = len(old.Hosts) > 1 && !slices.ContainsFunc(old.Hosts, r.marked)
		}
	}
	return r, nil
}

// result wraps the repaired table, counting the frontier tasks whose
// primary host changed.
func (r *repair) result(dups []Assignment) *Replan {
	moved := 0
	for t, front := range r.front {
		if !front {
			continue
		}
		was, _ := r.req.Table.at(r.ix, t)
		if is, _ := r.p.table.at(r.ix, t); is.Host != was.Host {
			moved++
		}
	}
	return &Replan{Table: r.p.table, Moved: moved, Duplicates: dups}
}

// marked reports whether h is down or, for a patch on an overrun, the straggler.
func (r *repair) marked(h string) bool { return r.req.Down[h] || h != "" && h == r.straggler }

// frontierStrategy is a built-in re-planner. Without patch it is the full
// HEFT rescan: the heft policy's own pass (heftPass) over the unstarted
// frontier — upward ranks on the frontier subgraph (mean cost over eligible
// hosts, environment-average comm), then rank-descending insertion-based
// placement. With patch it is the cheap repair: the frontier walked in
// topological order, tasks clear of suspicion kept, the rest re-placed
// append-only. hedge adds duplicates of what the patch re-placed.
type frontierStrategy struct {
	name         string
	patch, hedge bool
}

func (s frontierStrategy) Name() string { return s.name }

// Replan implements Replanner.
//
//vdce:hot allocs=6
func (s frontierStrategy) Replan(req *ReplanRequest) (*Replan, error) {
	sc := getScratch()
	defer sc.release()
	r, err := newRepair(req, s.patch, sc)
	if err != nil {
		return nil, err
	}
	defer r.p.releaseScratch(sc)
	ctx := context.Background()
	if s.patch {
		sc.order = sc.order[:0]
		for _, t := range r.ix.Topo() {
			if r.front[t] {
				sc.order = append(sc.order, t)
			}
		}
		err = r.p.placeAll(ctx, sc.order, r.stay)
	} else {
		err = heftPass(ctx, r.p, averageComm(r.p.pairs, r.p.cm.sites), r.front, r.stay, sc)
	}
	if err != nil {
		return nil, fmt.Errorf("scheduler: replan: %w", err)
	}
	var dups []Assignment
	if s.hedge {
		dups = r.hedges()
	}
	return r.result(dups), nil
}

// hedges picks the duplicates of a finished patch: each re-placed frontier
// task (and, on an overrun, each frontier child of the straggling task)
// gets a hedge copy on an idle host — a host running nothing and hosting no
// frontier assignment. Each idle host carries at most one duplicate.
// Duplicates are NOT part of the certified table; the churn harness
// promotes one only if the primary copy's host fails.
func (r *repair) hedges() []Assignment {
	req := r.req
	// Idle = unsuspected (hence up) and carrying no running or frontier
	// assignment; a finished task's host is free again. The patch is done
	// with the suspect mask, so it grows into the busy mask in place.
	busy := r.suspect
	for t, done := range r.done {
		if !done {
			for _, l := range r.p.hosts[t] {
				if c, ok := r.prices.col[r.p.hostOf[l]]; ok {
					busy[c] = true
				}
			}
		}
	}
	idle := hostsOutside(&r.idle, busy)

	// Targets: the re-placed tasks in placement order, then the straggler's
	// frontier children by ascending id.
	targets := r.targets[:0]
	for _, t := range r.sc.order {
		if !r.stay[t] {
			targets = append(targets, t)
		}
	}
	if s := r.ix.Of(req.Event.Task); req.Event.Kind == DeviationOverrun && s >= 0 {
		n := len(targets)
		for _, a := range r.ix.Children(s) {
			if r.front[a.Peer] {
				targets = append(targets, a.Peer)
			}
		}
		slices.Sort(targets[n:])
	}
	r.targets = targets

	r.hedged = growZero(r.hedged, r.ix.Len())
	var dups []Assignment
	for _, t := range targets {
		if len(idle) == 0 {
			break
		}
		if r.hedged[t] {
			continue
		}
		r.hedged[t] = true
		bestIx := -1
		var bestCost float64
		for i, c := range idle {
			cost := r.prices.at(int(t), c)
			if !validCost(cost) {
				continue
			}
			if bestIx < 0 || cost < bestCost {
				bestIx, bestCost = i, cost
			}
		}
		if bestIx < 0 {
			continue
		}
		h := r.prices.hosts[idle[bestIx]]
		idle = slices.Delete(idle, bestIx, bestIx+1)
		dups = append(dups, Assignment{Task: r.ix.ID(int(t)), Site: h.Site, Host: h.Host,
			Hosts: []string{h.Host}, Predicted: bestCost})
	}
	return dups
}

// CertifyReplan certifies a repaired table: Simulate and ValidateSchedule
// must both replay it without violations and agree on the makespan
// bit-for-bit — the same equivalence the property tests pin for initial
// schedules. Every adopted re-plan goes through this gate.
func CertifyReplan(g *afg.Graph, table *AllocationTable, model TimeModel, net *netsim.Network) (*ScheduleAudit, error) {
	return new(validator).certify(g, table, model, nil, net)
}

// certify is CertifyReplan on v's buffers, which RunChurn's repairs share. In
// a run the executor's replay prices by column from the run's table (prices).
//
//vdce:hot allocs=0
func (v *validator) certify(g *afg.Graph, table *AllocationTable, model TimeModel, prices *runPrices, net *netsim.Network) (*ScheduleAudit, error) {
	x := executor{g: g, table: table, model: model, prices: prices, net: net, threshold: defaultOverrunThreshold}
	if err := x.run(); err != nil {
		return nil, fmt.Errorf("scheduler: certify replan: simulate: %w", err)
	}
	audit, err := v.validate(g, table, model, net)
	if err != nil {
		return nil, fmt.Errorf("scheduler: certify replan: %w", err)
	}
	if mk := x.out.Makespan; audit.Makespan != mk { //vdce:ignore floateq bit-identity between the replay paths is the certification contract, not an approximate comparison
		return nil, fmt.Errorf("scheduler: certify replan: validator makespan %v != simulator %v", audit.Makespan, mk)
	}
	return audit, nil
}
