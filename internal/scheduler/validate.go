package scheduler

import (
	"fmt"
	"math"
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
	if err := checkTableShape(ix, table); err != nil {
		return nil, err
	}
	audit, err := replay(ix, table, model, net)
	if err != nil {
		return nil, err
	}
	if err := checkPrecedence(ix, net, audit); err != nil {
		return nil, err
	}
	if err := checkHostExclusive(audit); err != nil {
		return nil, err
	}
	return audit, nil
}

// checkTableShape verifies the table covers the graph exactly: every task
// assigned once, no assignments for unknown tasks, and each assignment
// naming a primary host that belongs to its host set.
func checkTableShape(ix *afg.Index, table *AllocationTable) error {
	// Sorted entry walk: a malformed table must produce the same error
	// every run, not whichever violation map order reaches first.
	entryIDs := make([]afg.TaskID, 0, len(table.Entries))
	for id := range table.Entries {
		entryIDs = append(entryIDs, id)
	}
	sort.Slice(entryIDs, func(i, j int) bool { return entryIDs[i] < entryIDs[j] })
	for _, id := range entryIDs {
		a := table.Entries[id]
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

// replay executes the table under the executor's semantics, naively: the
// ready list holds every unfinished task whose parents are done (per-task
// parent counters put it there, and derive its data-ready time as they do),
// and each step recomputes every ready task's earliest start against the
// current host-free times and runs the (start, id)-minimal one. Identical
// arithmetic to the executor — start = max(parent finish + transfer, host
// free) and duration split across a parallel host set — so the realized times
// match it bit for bit.
func replay(ix *afg.Index, table *AllocationTable, model TimeModel, net *netsim.Network) (*ScheduleAudit, error) {
	n := ix.Len()
	assigned := make([]Assignment, n)
	finish := make([]float64, n)
	dataReady := make([]float64, n) // set when the last parent finishes; 0 for roots
	waiting := make([]int, n)       // parents not yet finished
	var ready []int                 // dense ids, in no particular order
	hostFree := map[string]float64{}
	for i := range assigned {
		assigned[i], _ = table.Get(ix.ID(i))
		if waiting[i] = ix.NumParents(i); waiting[i] == 0 {
			ready = append(ready, i)
		}
	}

	// arrival is when task i's inputs are all on its hosts: the latest
	// parent finish plus transfer. Valid once every parent has finished.
	arrival := func(i int) float64 {
		a := assigned[i]
		hosts := effectiveHosts(a)
		var at float64
		for _, arc := range ix.Parents(i) {
			p := assigned[arc.Peer]
			arrive := finish[arc.Peer]
			if net != nil && !sharesHost(effectiveHosts(p), hosts) {
				arrive += net.TransferTime(p.Site, a.Site, arc.Bytes).Seconds()
			}
			at = math.Max(at, arrive)
		}
		return at
	}
	startOf := func(i int) float64 {
		start := dataReady[i]
		for _, h := range effectiveHosts(assigned[i]) {
			start = math.Max(start, hostFree[h])
		}
		return start
	}

	audit := &ScheduleAudit{Spans: make([]ScheduledSpan, 0, n)}
	for completed := 0; completed < n; completed++ {
		if len(ready) == 0 {
			return nil, fmt.Errorf("scheduler: validate: deadlock with %d tasks pending", n-completed)
		}
		at, pickStart := 0, startOf(ready[0])
		for k := 1; k < len(ready); k++ {
			if s := startOf(ready[k]); s < pickStart || (s == pickStart && ready[k] < ready[at]) {
				at, pickStart = k, s
			}
		}
		pick := ready[at]
		ready[at] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]

		a := assigned[pick]
		hosts := effectiveHosts(a)
		dur := model(ix.Task(pick), a.Host)
		if dur < 0 || math.IsNaN(dur) || math.IsInf(dur, 0) {
			return nil, fmt.Errorf("scheduler: validate: invalid duration %v for task %q", dur, a.Task)
		}
		if len(hosts) > 1 {
			dur /= float64(len(hosts))
		}
		end := pickStart + dur
		finish[pick] = end
		for _, h := range hosts {
			hostFree[h] = end
		}
		for _, arc := range ix.Children(pick) {
			if waiting[arc.Peer]--; waiting[arc.Peer] == 0 {
				dataReady[arc.Peer] = arrival(int(arc.Peer))
				ready = append(ready, int(arc.Peer))
			}
		}
		audit.Spans = append(audit.Spans, ScheduledSpan{
			Task: a.Task, Site: a.Site, Hosts: hosts, Start: pickStart, End: end,
		})
		audit.Makespan = math.Max(audit.Makespan, end)
	}
	sort.Slice(audit.Spans, func(i, j int) bool {
		if audit.Spans[i].Start != audit.Spans[j].Start {
			return audit.Spans[i].Start < audit.Spans[j].Start
		}
		return audit.Spans[i].Task < audit.Spans[j].Task
	})
	return audit, nil
}

// checkPrecedence re-verifies every link against the realized intervals
// alone (the audit spans carry the sites and host sets): the child may not
// start before the parent's finish plus the inter-site transfer (zero when
// the two assignments share a host).
func checkPrecedence(ix *afg.Index, net *netsim.Network, audit *ScheduleAudit) error {
	span := make([]ScheduledSpan, ix.Len())
	for _, s := range audit.Spans {
		span[ix.Of(s.Task)] = s
	}
	for i, child := range span {
		for _, arc := range ix.Parents(i) {
			parent := span[arc.Peer]
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
