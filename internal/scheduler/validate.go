package scheduler

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/afg"
	"repro/internal/netsim"
)

// This file is the independent schedule validator: an oracle-grade audit of
// an AllocationTable against the executor's execution semantics. It shares
// one structure with the code it checks — the graph's dense afg.Index, which
// FuzzGraphIndex pins against the map-keyed Graph — and nothing else: no
// event heap, no scratch, no placement kernel, no code of the executor
// (sim.go). Its replay is deliberately naive: per-task parent counters feed a
// ready list, and a task's data-ready time (latest parent finish plus
// transfer) is derived once, when its last parent finishes — it cannot move
// after that. Every step then recomputes the start of every ready task as
// that time against its hosts' current free times and runs the
// (start, id)-minimal one — O(V·width) and obviously right — so a bug in the
// optimized scheduling or simulation core cannot hide from it. Experiments
// call it on every schedule they score, CertifyReplan on every repair, and
// the policy property tests use it as their backbone:
// whatever a policy emits must replay without precedence violations, without
// two tasks overlapping on one host, and with every inter-site transfer
// accounted. It prices each transfer with net.TransferTime, on purpose: the
// executor and the placement kernel price from a per-run site-pair table
// (scratch.go's sitePairs), and a validator reading that table would share
// the very code it checks.
//
// A validator holds the replay's and the checks' buffers: slices by dense
// task index, host names interned into its own columns. RunChurn reuses one
// across its certifications, so that audit is valid only until the next one
// and never leaves RunChurn. The shape and host checks accept in one pass and
// fall back to their sorted walks to reject, so every error reads as before.

// ScheduledSpan is one task's realized execution interval in the audit.
type ScheduledSpan struct {
	Task  afg.TaskID
	Site  string
	Hosts []string
	Start float64
	End   float64
}

// ScheduleAudit is the validator's reconstruction of the schedule: every
// task's interval (ascending by start time, task id on ties) plus the
// resulting makespan. Makespan equals Simulate's result exactly — the
// equivalence the property tests pin.
type ScheduleAudit struct {
	Spans    []ScheduledSpan
	Makespan float64
}

// Span returns the audited interval of one task.
func (a *ScheduleAudit) Span(id afg.TaskID) (ScheduledSpan, bool) {
	for _, s := range a.Spans {
		if s.Task == id {
			return s, true
		}
	}
	return ScheduledSpan{}, false
}

// ValidateSchedule audits table against the graph, ground-truth time model,
// and network: it checks the table is complete and well-formed, replays it
// under the documented execution semantics (a task starts when every parent
// has finished, transfers have arrived, and its hosts are free; among ready
// tasks the earliest start runs first, ties by id), and then re-verifies the
// realized intervals independently — precedence plus transfer accounting
// link by link, and per-host mutual exclusion interval by interval. Any
// violation is an error naming the offending tasks.
func ValidateSchedule(g *afg.Graph, table *AllocationTable, model TimeModel, net *netsim.Network) (*ScheduleAudit, error) {
	return new(validator).validate(g, table, model, net)
}

// validator is every buffer of a validation; the zero value is ready.
type validator struct {
	col               map[string]int32 // host name -> column, kept across calls
	colAt, cols       []int32          // task i's columns are cols[colAt[i]:colAt[i+1]]
	one               []string         // task -> its primary host, the Hosts of a single-host span
	assigned          []Assignment     // Hosts always set: the parallel set or a slice of one
	finish, dataReady []float64        // dataReady is set when the last parent finishes; 0 for roots
	waiting, ready    []int32          // parents not yet finished; the ready dense ids, unordered
	hostFree          []float64        // column -> host-free time, then latest end (checkHostExclusive)
	pos               []int32          // task -> its span in the audit
	audit             ScheduleAudit
}

// validate is ValidateSchedule on v's buffers.
func (v *validator) validate(g *afg.Graph, table *AllocationTable, model TimeModel, net *netsim.Network) (*ScheduleAudit, error) {
	if g == nil || g.Len() == 0 {
		return nil, afg.ErrEmpty
	}
	if table == nil {
		return nil, fmt.Errorf("scheduler: validate: nil allocation table")
	}
	ix, err := g.Index()
	if err != nil {
		return nil, err
	}
	if !v.load(ix, table) {
		return nil, checkTableShape(ix, table)
	}
	audit, err := v.replay(ix, model, net)
	if err != nil {
		return nil, err
	}
	if err := v.checkPrecedence(ix, net, audit); err != nil {
		return nil, err
	}
	if err := v.checkHostExclusive(audit); err != nil {
		return nil, err
	}
	return audit, nil
}

// load mirrors the table into v's dense columns and seeds the ready list. It
// accepts exactly what checkTableShape accepts and leaves errors to that walk.
func (v *validator) load(ix *afg.Index, table *AllocationTable) bool {
	n := ix.Len()
	if table.Len() != n {
		return false
	}
	if v.col == nil {
		v.col = map[string]int32{}
	}
	v.assigned, v.one, v.finish, v.waiting = grow(v.assigned, n), grow(v.one, n), grow(v.finish, n), grow(v.waiting, n)
	v.dataReady, v.colAt, v.cols, v.ready = growZero(v.dataReady, n), append(v.colAt[:0], 0), v.cols[:0], v.ready[:0]
	for i, id := range ix.IDs() {
		a, ok := table.at(ix, i)
		if !ok || a.Task != id || a.Host == "" || slices.Contains(a.Hosts, "") || len(a.Hosts) > 0 && !slices.Contains(a.Hosts, a.Host) {
			return false
		}
		if len(a.Hosts) == 0 {
			v.one[i] = a.Host
			a.Hosts = v.one[i : i+1 : i+1]
		}
		v.assigned[i] = a
		for _, h := range a.Hosts {
			if _, ok := v.col[h]; !ok {
				v.col[h] = int32(len(v.col))
			}
			v.cols = append(v.cols, v.col[h])
		}
		v.colAt = append(v.colAt, int32(len(v.cols)))
		if v.waiting[i] = int32(ix.NumParents(i)); v.waiting[i] == 0 {
			v.ready = append(v.ready, int32(i))
		}
	}
	v.hostFree = growZero(v.hostFree, len(v.col))
	return true
}

// hostCols is task i's host set as interned columns.
func (v *validator) hostCols(i int32) []int32 { return v.cols[v.colAt[i]:v.colAt[i+1]] }

// checkTableShape verifies the table covers the graph exactly: every task
// assigned once, no assignments for unknown tasks, and each assignment
// naming a primary host that belongs to its host set.
func checkTableShape(ix *afg.Index, table *AllocationTable) error {
	// Sorted entry walk: a malformed table must produce the same error
	// every run, not whichever violation map order reaches first.
	entryIDs := table.Order()
	slices.Sort(entryIDs)
	for _, id := range entryIDs {
		a, _ := table.Get(id)
		if ix.Of(id) < 0 {
			return fmt.Errorf("scheduler: validate: assignment for unknown task %q", id)
		}
		if a.Task != id {
			return fmt.Errorf("scheduler: validate: entry %q names task %q", id, a.Task)
		}
		if a.Host == "" {
			return fmt.Errorf("scheduler: validate: task %q has no host", id)
		}
		if len(a.Hosts) > 0 {
			member := false
			for _, h := range a.Hosts {
				if h == "" {
					return fmt.Errorf("scheduler: validate: task %q has an empty host in its host set", id)
				}
				if h == a.Host {
					member = true
				}
			}
			if !member {
				return fmt.Errorf("scheduler: validate: task %q primary host %q not in host set %v", id, a.Host, a.Hosts)
			}
		}
	}
	for _, id := range ix.IDs() {
		if _, ok := table.Get(id); !ok {
			return fmt.Errorf("scheduler: validate: task %q missing from allocation table", id)
		}
	}
	return nil
}

// replay executes the loaded table under the executor's semantics, naively:
// the ready list holds every unfinished task whose parents are done (per-task
// parent counters put it there, and derive its data-ready time as they do),
// and each step recomputes every ready task's earliest start against the
// current host-free times and runs the (start, id)-minimal one. Identical
// arithmetic to the executor — start = max(parent finish + transfer, host
// free) and duration split across a parallel host set — so the realized times
// match it bit for bit.
func (v *validator) replay(ix *afg.Index, model TimeModel, net *netsim.Network) (*ScheduleAudit, error) {
	n := ix.Len()
	audit := &v.audit
	audit.Spans, audit.Makespan = grow(audit.Spans, n)[:0], 0
	for completed := 0; completed < n; completed++ {
		if len(v.ready) == 0 {
			return nil, fmt.Errorf("scheduler: validate: deadlock with %d tasks pending", n-completed)
		}
		at, pickStart := 0, v.startOf(v.ready[0])
		for k := 1; k < len(v.ready); k++ {
			if s := v.startOf(v.ready[k]); s < pickStart || (s == pickStart && v.ready[k] < v.ready[at]) {
				at, pickStart = k, s
			}
		}
		pick := v.ready[at]
		v.ready[at] = v.ready[len(v.ready)-1]
		v.ready = v.ready[:len(v.ready)-1]

		a, cols := v.assigned[pick], v.hostCols(pick)
		dur := model(ix.Task(int(pick)), a.Host)
		if dur < 0 || math.IsNaN(dur) || math.IsInf(dur, 0) {
			return nil, fmt.Errorf("scheduler: validate: invalid duration %v for task %q", dur, a.Task)
		}
		if len(cols) > 1 {
			dur /= float64(len(cols))
		}
		end := pickStart + dur
		v.finish[pick] = end
		for _, c := range cols {
			v.hostFree[c] = end
		}
		for _, arc := range ix.Children(int(pick)) {
			if v.waiting[arc.Peer]--; v.waiting[arc.Peer] == 0 {
				v.dataReady[arc.Peer] = v.arrival(ix, net, arc.Peer)
				v.ready = append(v.ready, arc.Peer)
			}
		}
		audit.Spans = append(audit.Spans, ScheduledSpan{Task: a.Task, Site: a.Site, Hosts: a.Hosts, Start: pickStart, End: end})
		audit.Makespan = math.Max(audit.Makespan, end)
	}
	slices.SortFunc(audit.Spans, func(x, y ScheduledSpan) int {
		return cmp.Or(cmp.Compare(x.Start, y.Start), cmp.Compare(x.Task, y.Task))
	})
	return audit, nil
}

// arrival is when task i's inputs are all on its hosts, once its parents finished.
func (v *validator) arrival(ix *afg.Index, net *netsim.Network, i int32) float64 {
	site, cols := v.assigned[i].Site, v.hostCols(i)
	var at float64
	for _, arc := range ix.Parents(int(i)) {
		arrive := v.finish[arc.Peer]
		if net != nil && !sharesHost(v.hostCols(arc.Peer), cols) {
			arrive += net.TransferTime(v.assigned[arc.Peer].Site, site, arc.Bytes).Seconds()
		}
		at = math.Max(at, arrive)
	}
	return at
}

// startOf is ready task i's earliest start given the current host-free times.
func (v *validator) startOf(i int32) float64 {
	start := v.dataReady[i]
	for _, c := range v.hostCols(i) {
		start = math.Max(start, v.hostFree[c])
	}
	return start
}

// checkPrecedence re-verifies every link against the realized intervals
// alone (the audit spans carry the sites and host sets): the child may not
// start before the parent's finish plus the inter-site transfer (zero when
// the two assignments share a host).
func (v *validator) checkPrecedence(ix *afg.Index, net *netsim.Network, audit *ScheduleAudit) error {
	v.pos = grow(v.pos, ix.Len())
	for k, s := range audit.Spans {
		v.pos[ix.Of(s.Task)] = int32(k)
	}
	for i, at := range v.pos {
		child := &audit.Spans[at]
		for _, arc := range ix.Parents(i) {
			parent := &audit.Spans[v.pos[arc.Peer]]
			need := parent.End
			if net != nil && !sharesHost(parent.Hosts, child.Hosts) {
				need += net.TransferTime(parent.Site, child.Site, arc.Bytes).Seconds()
			}
			if child.Start < need {
				return fmt.Errorf("scheduler: validate: precedence violation %s -> %s: child starts %v before data ready %v",
					parent.Task, child.Task, child.Start, need)
			}
		}
	}
	return nil
}

// checkHostExclusive accepts in one pass: the replay's spans come in
// (start, id) order, so keeping each host's latest end makes exactly the
// sorted walk's comparisons. On doubt the package-level sorted walk decides.
func (v *validator) checkHostExclusive(audit *ScheduleAudit) error {
	clear(v.hostFree) // the replay is done with it
	for _, s := range audit.Spans {
		for _, h := range s.Hosts {
			c, ok := v.col[h]
			if !ok || s.Start < v.hostFree[c] {
				return checkHostExclusive(audit)
			}
			v.hostFree[c] = s.End
		}
	}
	return nil
}

// checkHostExclusive re-verifies per-host mutual exclusion: on every host,
// the realized intervals must be disjoint (a host is a single workstation;
// parallel tasks occupy their whole host set for their full interval).
func checkHostExclusive(audit *ScheduleAudit) error {
	type interval struct {
		task       afg.TaskID
		start, end float64
	}
	byHost := map[string][]interval{}
	for _, s := range audit.Spans {
		for _, h := range s.Hosts {
			byHost[h] = append(byHost[h], interval{s.Task, s.Start, s.End})
		}
	}
	hosts := make([]string, 0, len(byHost))
	for h := range byHost {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, host := range hosts {
		iv := byHost[host]
		sort.Slice(iv, func(i, j int) bool {
			if iv[i].start != iv[j].start {
				return iv[i].start < iv[j].start
			}
			return iv[i].task < iv[j].task
		})
		for i := 1; i < len(iv); i++ {
			if iv[i].start < iv[i-1].end {
				return fmt.Errorf("scheduler: validate: host %s double-booked: %s [%v, %v) overlaps %s [%v, %v)",
					host, iv[i-1].task, iv[i-1].start, iv[i-1].end, iv[i].task, iv[i].start, iv[i].end)
			}
		}
	}
	return nil
}
