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
	"sort"

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

// Replanner re-plans the unstarted frontier after a deviation.
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

// hostsOutside returns the candidate pool minus the hosts excluded marks,
// sorted by (site, host) — the dense-column order every strategy iterates.
func (req *ReplanRequest) hostsOutside(excluded map[string]bool) []HostRef {
	out := make([]HostRef, 0, len(req.Hosts))
	for _, h := range req.Hosts {
		if !excluded[h.Host] {
			out = append(out, h)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		return a.Site < b.Site || (a.Site == b.Site && a.Host < b.Host)
	})
	return out
}

func (req *ReplanRequest) validate() error {
	if req.Graph == nil || req.Graph.Len() == 0 {
		return errors.New("scheduler: replan: empty graph")
	}
	if req.Table == nil {
		return errors.New("scheduler: replan: nil table")
	}
	if req.Costs == nil {
		return errors.New("scheduler: replan: nil cost model")
	}
	// Sorted walks so the same malformed request surfaces the same error.
	for _, id := range sortedIDs(req.Done) {
		if _, run := req.Running[id]; run {
			return fmt.Errorf("scheduler: replan: task %s both done and running", id)
		}
		if _, ok := req.Table.Get(id); !ok {
			return fmt.Errorf("scheduler: replan: done task %s missing from table", id)
		}
	}
	for _, id := range sortedIDs(req.Running) {
		if _, ok := req.Table.Get(id); !ok {
			return fmt.Errorf("scheduler: replan: running task %s missing from table", id)
		}
	}
	return nil
}

// sortedIDs returns a map's task keys in ascending order.
func sortedIDs[V any](m map[afg.TaskID]V) []afg.TaskID {
	out := make([]afg.TaskID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// repair is one re-plan in flight: the scheduling kernel (heft.go's
// placement) seeded with the settled set, over a lazy cost matrix of the
// hosts the strategy may use, plus the two masks that say what may move.
type repair struct {
	req     *ReplanRequest
	ix      *afg.Index
	sc      *scratch
	p       *placement
	suspect map[string]bool // patch strategies only: hosts to route around
	front   []bool          // the unstarted frontier: not Done, not Running
	stay    []bool          // frontier tasks left on their current hosts
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
	if err := req.validate(); err != nil {
		return nil, err
	}
	r := &repair{req: req, sc: sc}
	cols := req.hostsOutside(req.Down)
	if len(cols) == 0 {
		return nil, fmt.Errorf("scheduler: replan: %w", ErrNoEligibleHost)
	}
	if patch {
		r.suspect = req.suspectHosts()
		if safe := req.hostsOutside(r.suspect); len(safe) > 0 {
			cols = safe
		}
	}
	ix, err := req.Graph.Index()
	if err != nil {
		return nil, fmt.Errorf("scheduler: replan: %w", err)
	}
	r.ix = ix
	r.p = newPlacement(modelCostMatrix(ix, cols, req.Costs, sc), req.Table.App, req.Net, nil, sc)
	r.p.prior, r.p.singleHost, r.p.appendOnly = req.Table, true, patch
	r.front, r.stay = make([]bool, ix.Len()), make([]bool, ix.Len())
	for t, id := range ix.IDs() {
		old, ok := req.Table.Get(id)
		fin, settled := req.Done[id]
		if !settled {
			fin, settled = req.Running[id]
		}
		switch {
		case settled:
			r.p.settle(t, old, fin)
		case patch:
			r.front[t], r.stay[t] = true, ok && !anyIn(effectiveHosts(old), r.suspect)
		default:
			r.front[t], r.stay[t] = true, len(old.Hosts) > 1 && !anyIn(old.Hosts, req.Down)
		}
	}
	return r, nil
}

// result wraps the repaired table, counting the frontier tasks whose
// primary host changed.
func (r *repair) result(dups []Assignment) *Replan {
	moved := 0
	for t, id := range r.ix.IDs() {
		if !r.front[t] {
			continue
		}
		was, _ := r.req.Table.Get(id)
		if is, _ := r.p.table.Get(id); is.Host != was.Host {
			moved++
		}
	}
	return &Replan{Table: r.p.table, Moved: moved, Duplicates: dups}
}

// anyIn reports whether any of hosts is marked in set.
func anyIn(hosts []string, set map[string]bool) bool {
	for _, h := range hosts {
		if set[h] {
			return true
		}
	}
	return false
}

// suspectHosts is the set a patch-style re-planner routes around: every
// down host plus, for an overrun event, the straggling host.
func (req *ReplanRequest) suspectHosts() map[string]bool {
	suspect := make(map[string]bool, len(req.Down)+1)
	for h, d := range req.Down {
		if d {
			suspect[h] = true
		}
	}
	if req.Event.Kind == DeviationOverrun && req.Event.Host != "" {
		suspect[req.Event.Host] = true
	}
	return suspect
}

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
		err = heftPass(ctx, r.p, averageComm(req.Net, r.p.cm.sites), r.front, r.stay, sc)
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
	// with the suspect set, so it grows into the busy set in place.
	busy := r.suspect
	for t, id := range r.ix.IDs() {
		if _, done := req.Done[id]; !done {
			for _, h := range r.p.hosts[t] {
				busy[h] = true
			}
		}
	}
	idle := req.hostsOutside(busy)

	// Targets: the re-placed tasks in placement order, then the straggler's
	// frontier children by ascending id.
	var targets []int32
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
		kids := targets[n:]
		sort.Slice(kids, func(i, j int) bool { return kids[i] < kids[j] })
	}

	seen := make([]bool, r.ix.Len())
	var dups []Assignment
	for _, t := range targets {
		if len(idle) == 0 {
			break
		}
		if seen[t] {
			continue
		}
		seen[t] = true
		task := r.ix.Task(int(t))
		bestIx := -1
		var bestCost float64
		for i, c := range idle {
			cost := req.Costs(task, c.Host)
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
		h := idle[bestIx]
		idle = append(idle[:bestIx], idle[bestIx+1:]...)
		dups = append(dups, Assignment{Task: task.ID, Site: h.Site, Host: h.Host,
			Hosts: []string{h.Host}, Predicted: bestCost})
	}
	return dups
}

// CertifyReplan certifies a repaired table: Simulate and ValidateSchedule
// must both replay it without violations and agree on the makespan
// bit-for-bit — the same equivalence the property tests pin for initial
// schedules. Every adopted re-plan goes through this gate.
func CertifyReplan(g *afg.Graph, table *AllocationTable, model TimeModel, net *netsim.Network) (*ScheduleAudit, error) {
	mk, err := Simulate(g, table, model, net)
	if err != nil {
		return nil, fmt.Errorf("scheduler: certify replan: simulate: %w", err)
	}
	audit, err := ValidateSchedule(g, table, model, net)
	if err != nil {
		return nil, fmt.Errorf("scheduler: certify replan: %w", err)
	}
	if audit.Makespan != mk { //vdce:ignore floateq bit-identity between the replay paths is the certification contract, not an approximate comparison
		return nil, fmt.Errorf("scheduler: certify replan: validator makespan %v != simulator %v", audit.Makespan, mk)
	}
	return audit, nil
}
