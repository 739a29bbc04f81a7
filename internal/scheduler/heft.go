package scheduler

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/afg"
	"repro/internal/minheap"
	"repro/internal/netsim"
)

// The paper's two headline list-scheduling heuristics, as registered
// policies:
//
//   - HEFT (Heterogeneous Earliest Finish Time): tasks ordered by upward
//     rank — mean execution cost plus the most expensive (communication +
//     rank) path to an exit — and placed one by one on the host minimising
//     earliest finish time, with insertion: a task may slide into an idle
//     gap between two already-scheduled tasks on the host.
//   - CPOP (Critical Path On a Processor): tasks prioritised by upward +
//     downward rank; the tasks forming the critical path are pinned to the
//     single host minimising the path's total execution, everything else
//     placed by earliest finish time.
//
// Both run on the dense scheduling core: per-(task, host) costs come from
// the request's CostMatrix (one batched gather, shared across policies via
// CostCache), ranks and placement state are slice-indexed through the
// graph's dense Index, and host timelines find insertion gaps by binary
// search. The original map-keyed implementations are retained in
// oracle_test.go; equivalence tests prove the dense paths produce
// identical allocation tables. placement below is the package's one
// earliest-finish kernel: the eft-family site policies (site.go) place
// through it over their Fig 5 offers, and the frontier re-planners
// (resched.go) are strategies over it, started from a settled set.

// commModel is the environment-average communication cost the rank
// computations use (the classic HEFT "average transfer rate" treatment):
// cost(bytes) = mean latency + bytes × mean per-byte seconds, averaged over
// every ordered pair of participating sites.
type commModel struct {
	latency float64
	perByte float64
}

func (m commModel) cost(bytes int64) float64 {
	return m.latency + float64(bytes)*m.perByte
}

// averageComm derives the commModel from the participating sites (sorted),
// averaging the probe-measured latency and per-byte cost over every ordered
// pair, priced from the pair table. No network, or a single site, means
// communication is free.
func averageComm(pairs *sitePairs, sites []string) commModel {
	if pairs.net == nil || len(sites) < 2 {
		return commModel{}
	}
	const probe = 1 << 20
	var lat, perByte float64
	n := 0
	for _, a := range sites {
		from := pairs.id(a)
		for _, b := range sites {
			if a == b {
				continue
			}
			to := pairs.id(b)
			l := pairs.seconds(from, to, 0)
			lat += l
			perByte += (pairs.seconds(from, to, probe) - l) / probe
			n++
		}
	}
	return commModel{latency: lat / float64(n), perByte: perByte / float64(n)}
}

// upwardRanks computes rank_u(t) = w̄(t) + max over children of
// (c̄(t, child) + rank_u(child)) — the length of the most expensive path
// from t to an exit, in mean costs — as a dense slice over the matrix.
// front, when non-nil, restricts the sweep to the subgraph it marks (a
// re-plan's unstarted frontier); other elements are left unwritten and must
// not be read. The rank vector is written into buf (grown only until its
// capacity reaches the graph size), so a warm scratch makes the sweep
// allocation-free; every swept element is overwritten before it is read.
//
//vdce:hot allocs=0
func upwardRanks(cm *CostMatrix, c commModel, front []bool, buf []float64) []float64 {
	ix := cm.ix
	topo := ix.Topo()
	rank := grow(buf, ix.Len())
	for k := len(topo) - 1; k >= 0; k-- {
		i := topo[k]
		if front != nil && !front[i] {
			continue
		}
		var best float64
		for _, a := range ix.Children(int(i)) {
			if front != nil && !front[a.Peer] {
				continue
			}
			if v := c.cost(a.Bytes) + rank[a.Peer]; v > best {
				best = v
			}
		}
		rank[i] = cm.meanExec(int(i)) + best
	}
	return rank
}

// downwardRanks computes rank_d(t) = max over parents of
// (rank_d(parent) + w̄(parent) + c̄(parent, t)); entry tasks rank 0. Like
// upwardRanks, the vector reuses buf and every element is overwritten.
func downwardRanks(cm *CostMatrix, c commModel, buf []float64) []float64 {
	ix := cm.ix
	rank := grow(buf, ix.Len())
	for _, i := range ix.Topo() {
		var best float64
		for _, a := range ix.Parents(int(i)) {
			v := rank[a.Peer] + cm.meanExec(int(a.Peer)) + c.cost(a.Bytes)
			if v > best {
				best = v
			}
		}
		rank[i] = best
	}
	return rank
}

// rankOrderDesc fills buf with the dense indices of the tasks front marks
// (nil = every task) by descending rank, index (= ascending TaskID) on
// ties, and returns it (grown when short).
func rankOrderDesc(rank []float64, front []bool, buf []int32) []int32 {
	out := grow(buf, len(rank))[:0]
	for i := range rank {
		if front == nil || front[i] {
			out = append(out, int32(i))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := rank[out[i]], rank[out[j]]
		if ri != rj {
			return ri > rj
		}
		return out[i] < out[j]
	})
	return out
}

// span is one reserved busy interval on a host timeline.
type span struct {
	start, end float64
}

// timeline is one host's reserved intervals, sorted by start and disjoint,
// plus the busy seconds the walk placing on it has reserved there in the
// shared ledger.
type timeline struct {
	busy []span
	own  float64
}

// earliest returns the insertion-based earliest start at or after ready
// with room for dur: the first idle gap (or the end of the schedule) that
// fits the task. Spans ending at or before ready can neither host the gap
// nor push the start, so the scan begins at the first span still live at
// ready — found by binary search — instead of walking the whole timeline.
//
//vdce:hot allocs=0
func (t *timeline) earliest(ready, dur float64) float64 {
	i := sort.Search(len(t.busy), func(i int) bool { return t.busy[i].end > ready })
	start := ready
	for ; i < len(t.busy); i++ {
		s := t.busy[i]
		if start+dur <= s.start {
			break
		}
		if s.end > start {
			start = s.end
		}
	}
	return start
}

// end is the time the host's last reserved interval finishes.
func (t *timeline) end() float64 {
	if n := len(t.busy); n > 0 {
		return t.busy[n-1].end
	}
	return 0
}

// add reserves [start, end), keeping the interval list sorted; a span
// goes after any that start at the same time, so an append-only line's last
// span is always its latest.
func (t *timeline) add(start, end float64) {
	i := sort.Search(len(t.busy), func(i int) bool { return t.busy[i].start > start })
	t.busy = append(t.busy, span{})
	copy(t.busy[i+1:], t.busy[i:])
	t.busy[i] = span{start, end}
}

// placement is the package's one earliest-finish kernel — heft, cpop, the
// eft-family site policies and the frontier re-planners all place through
// it — slice-indexed end to end: per-host-column timelines (empty, or
// seeded from the settled set of a running application), per-task
// estimated finishes and assigned host sets by dense task index, and the
// allocation table under construction. Hosts outside the matrix — a
// fallback site's offers, the down machines a settled task still sits on —
// get lines appended after the columns. With a shared ledger, no task
// starts on a host before the work other applications hold there has run
// (floor, read from the ledger per candidate), every commit reserves its
// prediction on each of its hosts, and a failed walk releases them (done).
// The zero strategy fields are planning from scratch; only this package's
// re-planners set them.
type placement struct {
	cm     *CostMatrix
	pairs  *sitePairs       // transfer prices by site id
	ledger *LoadLedger      // the shared ledger, read per candidate; nil = none
	lines  []timeline       // per column (canonical ones used), then per host outside the matrix
	canon  []int32          // column -> canonical column for its host NAME
	extra  map[string]int32 // host outside the matrix -> its line

	placed []bool // task is settled or committed; gates finish/siteID/hosts
	finish []float64
	siteID []int32    // assigned site id per task
	hosts  [][]string // assigned host set per task
	table  *AllocationTable

	appendOnly bool             // start after the host's last reservation instead of in the first fitting gap
	singleHost bool             // place a parallel-mode task on one host (its machine set broke)
	prior      *AllocationTable // the committed table under repair: where keep finds a task's current hosts

	choiceBuf []Choice // one site's candidates for a parallel-mode task

	// hostSlab backs the committed single-host sets. It is schedule
	// OUTPUT — the carved sets escape into the allocation table — so it is
	// allocated fresh per placement and never returned to the pool.
	hostSlab []string

	blockReady  []float64 // per-site-block data-ready memo for the current task
	blockSite   []int32   // per-site-block site id
	parentHosts []string  // hosts of the current task's byte-carrying placed parents
}

// newPlacement wires the placement state onto sc's pooled buffers. The
// timelines, columns, and per-task vectors are scratch (contract 2 in
// scratch.go: placed and hostSets are reset, finish and siteID are gated by
// the placed marker, the pair table starts empty and interns every block's
// site); the table and hostSlab are output and allocated fresh.
func newPlacement(cm *CostMatrix, app string, net *netsim.Network, ledger *LoadLedger, sc *scratch) *placement {
	n := cm.ix.Len()
	sc.lines = growTimelines(sc.lines, len(cm.hosts))
	sc.canon = grow(sc.canon, len(cm.hosts))
	clear(sc.lineOf)
	sc.placed = growZero(sc.placed, n)     // false = unplaced marker must reset
	sc.finish = grow(sc.finish, n)         // gated by placed before reads
	sc.siteID = grow(sc.siteID, n)         // gated by placed before reads
	sc.hostSets = growZero(sc.hostSets, n) // drop the prior schedule's refs
	sc.blockReady = grow(sc.blockReady, len(cm.blocks))
	sc.blockSite = grow(sc.blockSite, len(cm.blocks))
	sc.pairs.reset(net)
	for bi := range cm.blocks {
		sc.blockSite[bi] = sc.pairs.id(cm.blocks[bi].name)
	}
	p := &placement{
		cm:          cm,
		pairs:       &sc.pairs,
		ledger:      ledger,
		lines:       sc.lines,
		canon:       sc.canon,
		extra:       sc.lineOf,
		placed:      sc.placed,
		finish:      sc.finish,
		siteID:      sc.siteID,
		hosts:       sc.hostSets,
		table:       NewAllocationTableSized(app, n),
		choiceBuf:   sc.choiceBuf,
		blockReady:  sc.blockReady,
		blockSite:   sc.blockSite,
		parentHosts: sc.parentHosts,
	}
	// A host NAME owns one timeline, however many sites offer it (the
	// map-keyed path keyed timelines by name): every column resolves to
	// the name's canonical column, and only canonical lines are used.
	for c := range p.canon {
		p.canon[c] = p.cm.col[cm.hosts[c].Host]
	}
	return p
}

// line resolves a host name to its timeline: the canonical column's when
// the matrix knows the host, else one appended after the columns on first
// use. The pointer is good until the next line call, which may move lines.
func (p *placement) line(host string) *timeline {
	if c, ok := p.cm.col[host]; ok {
		return &p.lines[c]
	}
	c, ok := p.extra[host]
	if !ok {
		c = int32(len(p.lines))
		if len(p.lines) < cap(p.lines) {
			p.lines = p.lines[:c+1]
			p.lines[c] = timeline{busy: p.lines[c].busy[:0]}
		} else {
			p.lines = append(p.lines, timeline{})
		}
		if p.extra == nil {
			p.extra = map[string]int32{}
		}
		p.extra[host] = c
	}
	return &p.lines[c]
}

// releaseScratch hands the placement's pooled buffers back to sc so any
// growth is retained for the next schedule. The table and hostSlab are
// schedule output and are never returned, and neither is a gathered cost
// matrix (a CostCache may share it); a re-plan's lazy one is scratch. Call
// before sc.release().
func (p *placement) releaseScratch(sc *scratch) {
	sc.lines, sc.canon, sc.lineOf = p.lines, p.canon, p.extra
	sc.placed, sc.finish, sc.siteID, sc.hostSets = p.placed, p.finish, p.siteID, p.hosts
	sc.blockReady, sc.blockSite, sc.parentHosts = p.blockReady, p.blockSite, p.parentHosts
	sc.choiceBuf = p.choiceBuf
	if p.cm.model != nil {
		sc.lazyPred, sc.lazyFilled = p.cm.pred, p.cm.filled
	}
}

// readyAt is the data-ready time of task t on the given host set at site
// (an id in the pair table): every scheduled parent's estimated finish, plus
// the transfer from the parent's site unless a host is shared with the
// parent, priced from the schedule's pair table. A nil host set shares
// nothing: the same float operations, in the same order, as for any
// candidate off the parents' hosts, which lets prepReady memoise it per
// site block.
func (p *placement) readyAt(t int, site int32, hosts []string) float64 {
	var ready float64
	for _, a := range p.cm.ix.Parents(t) {
		if !p.placed[a.Peer] {
			continue // unplaced parent (possible only on rank ties); skip
		}
		arrive := p.finish[a.Peer]
		if p.pairs.net != nil && a.Bytes > 0 && !sharesHost(p.hosts[a.Peer], hosts) {
			arrive += p.pairs.seconds(p.siteID[a.Peer], site, a.Bytes)
		}
		if arrive > ready {
			ready = arrive
		}
	}
	return ready
}

// prepReady memoises, per dense site block, the current task's data-ready
// time assuming no host sharing, and collects the hosts of byte-carrying
// placed parents. Inside a block every host sees the same transfer terms
// except the few appearing in a parent's host set (a zero-byte parent's
// sharing never changes readyAt), so only those fall back to the full
// recompute. This is the cache-blocked CostMatrix traversal: the
// O(parents) transfer walk runs once per (task, site block) instead of
// once per (task, host) — O(S·P) against the former O(H·P) — which
// profiled far better at 1000 hosts than an indexed O(log H) structure,
// whose per-host heterogeneous ready times defeat any shared ordering.
// A matrix without columns (a site walk's offers) has nothing to memoise.
func (p *placement) prepReady(t int) {
	if len(p.cm.hosts) == 0 {
		return
	}
	p.parentHosts = p.parentHosts[:0]
	for _, a := range p.cm.ix.Parents(t) {
		if a.Bytes > 0 && p.placed[a.Peer] {
			p.parentHosts = append(p.parentHosts, p.hosts[a.Peer]...)
		}
	}
	for bi := range p.cm.blocks {
		if p.cm.blocks[bi].fallback != nil {
			continue // single candidate per block: memoising buys nothing
		}
		p.blockReady[bi] = p.readyAt(t, p.blockSite[bi], nil)
	}
}

// hostIn is a linear probe over the (tiny) parent host list.
func hostIn(hosts []string, h string) bool {
	for _, x := range hosts {
		if x == h {
			return true
		}
	}
	return false
}

// floor is the kernel's ledger rule: with a shared ledger, host h (whose
// line is l) is busy until the work other applications hold on it has run —
// the ledger's busy seconds there less what this walk reserved itself.
func (p *placement) floor(h string, l *timeline) float64 {
	if p.ledger == nil {
		return 0
	}
	return p.ledger.Busy(h) - l.own
}

// free is when host h can take work appended to it: after its last
// reservation and its ledger floor.
func (p *placement) free(h string) float64 {
	l := p.line(h)
	if f := p.floor(h, l); f > l.end() {
		return f
	}
	return l.end()
}

// startOn is the strategy's start rule on host h, whose line is l: never
// before ready or the host's ledger floor, then the first idle gap that
// fits dur (insertion) or, append-only, after the line's last reservation.
func (p *placement) startOn(h string, l *timeline, ready, dur float64) float64 {
	if f := p.floor(h, l); f > ready {
		ready = f
	}
	if !p.appendOnly {
		return l.earliest(ready, dur)
	}
	if e := l.end(); e > ready {
		return e
	}
	return ready
}

// after is the machine-set start rule: once the data is ready and every
// member is free — appended, because idle gaps rarely align across a set.
func (p *placement) after(hosts []string, ready float64) float64 {
	for _, h := range hosts {
		if f := p.free(h); f > ready {
			ready = f
		}
	}
	return ready
}

// place schedules one task on the candidate minimising earliest finish
// time under the strategy's start rule, walking the matrix row in
// deterministic site/host order: every eligible column host (for a
// parallel-mode task, one machine set per site), and every fallback site's
// offer with its host set as offered. restrict, when non-nil, limits the
// hosts considered (CPOP's critical-path pinning); if it excludes every
// candidate, placement retries unrestricted rather than failing the
// application.
func (p *placement) place(t int, restrict map[string]bool) error {
	task := p.cm.ix.Task(t)
	set := task.Mode == afg.Parallel && task.Processors > 1 && !p.singleHost
	p.prepReady(t)
	var best Choice
	var bestStart float64
	bestFinish := math.Inf(1)
	found := false
	var hostBuf [1]string
	row := p.cm.row(t)
	for bi, b := range p.cm.blocks {
		if b.fallback != nil {
			c := b.fallback[t]
			if c.Host == "" || (restrict != nil && !restrict[c.Host]) {
				continue
			}
			hosts := c.Hosts
			if len(hosts) == 0 {
				hostBuf[0] = c.Host
				hosts = hostBuf[:]
			}
			site := p.blockSite[bi]
			if c.Site != b.name {
				site = p.pairs.id(c.Site)
			}
			ready := p.readyAt(t, site, hosts)
			var start float64
			if len(hosts) == 1 && !set {
				start = p.startOn(c.Host, p.line(c.Host), ready, c.Predicted)
			} else {
				start = p.after(hosts, ready)
			}
			p.consider(&best, &bestStart, &bestFinish, &found, c, start)
			continue
		}
		if set {
			if c, start, ok := p.machineSet(t, task.Processors, bi, row, restrict); ok {
				p.consider(&best, &bestStart, &bestFinish, &found, c, start)
			}
			continue
		}
		base := p.blockReady[bi]
		for col := b.col0; col < b.col1; col++ {
			pr := row[col]
			if math.IsNaN(pr) {
				continue
			}
			host := p.cm.hosts[col].Host
			if restrict != nil && !restrict[host] {
				continue
			}
			ready := base
			if hostIn(p.parentHosts, host) {
				hostBuf[0] = host
				ready = p.readyAt(t, p.blockSite[bi], hostBuf[:])
			}
			start := p.startOn(host, &p.lines[p.canon[col]], ready, pr)
			p.consider(&best, &bestStart, &bestFinish, &found,
				Choice{Site: b.name, Host: host, Predicted: pr}, start)
		}
	}
	if !found {
		if restrict != nil {
			return p.place(t, nil)
		}
		return fmt.Errorf("%w: %q", ErrNoEligibleHost, p.cm.ix.ID(t))
	}
	hosts := best.Hosts
	if len(hosts) == 0 {
		// A one-host set is carved from hostSlab (schedule output; see the
		// placement struct), allocated on the first carve: a full-capacity
		// reslice, so the set can never grow into its neighbour.
		if len(p.hostSlab) == 0 {
			p.hostSlab = make([]string, p.cm.ix.Len())
		}
		hosts = p.hostSlab[:1:1]
		p.hostSlab = p.hostSlab[1:]
		hosts[0] = best.Host
	}
	p.commit(t, Assignment{
		Task:      p.cm.ix.ID(t),
		Site:      best.Site,
		Host:      best.Host,
		Hosts:     hosts,
		Predicted: best.Predicted,
	}, bestStart, bestFinish)
	return nil
}

// consider folds one candidate into the running minimum with the map
// path's exact tie-break: earliest finish, then site name, then host name.
func (p *placement) consider(best *Choice, bestStart, bestFinish *float64, found *bool, c Choice, start float64) {
	fin := start + c.Predicted
	better := fin < *bestFinish
	if fin == *bestFinish {
		better = c.Site < best.Site || (c.Site == best.Site && c.Host < best.Host)
	}
	if better {
		*best, *bestStart, *bestFinish, *found = c, start, fin, true
	}
}

// machineSet is a parallel-mode task's candidate at column block bi: the
// task.Processors eligible hosts that free up earliest (host name on ties),
// charged the slowest member's prediction split n ways. ok is false when
// restrict leaves the block no host.
func (p *placement) machineSet(t, n, bi int, row []float64, restrict map[string]bool) (c Choice, start float64, ok bool) {
	b := &p.cm.blocks[bi]
	group := p.choiceBuf[:0]
	for col := b.col0; col < b.col1; col++ {
		if pr := row[col]; !math.IsNaN(pr) {
			if host := p.cm.hosts[col].Host; restrict == nil || restrict[host] {
				group = append(group, Choice{Host: host, Predicted: pr})
			}
		}
	}
	p.choiceBuf = group
	if len(group) == 0 {
		return Choice{}, 0, false
	}
	if n > len(group) {
		n = len(group)
	}
	sort.Slice(group, func(i, j int) bool {
		ei, ej := p.free(group[i].Host), p.free(group[j].Host)
		if ei != ej {
			return ei < ej
		}
		return group[i].Host < group[j].Host
	})
	hosts := make([]string, n)
	var maxPred float64
	for i, g := range group[:n] {
		hosts[i] = g.Host
		if g.Predicted > maxPred {
			maxPred = g.Predicted
		}
	}
	c = Choice{Site: b.name, Host: hosts[0], Hosts: hosts, Predicted: maxPred / float64(n)}
	return c, p.after(hosts, p.readyAt(t, p.blockSite[bi], hosts)), true
}

// commit enters a's assignment and reserves [start, fin) on each of its
// hosts — with a shared ledger, a's prediction per host there as well.
func (p *placement) commit(t int, a Assignment, start, fin float64) {
	p.record(t, a, fin)
	for _, h := range p.hosts[t] {
		l := p.line(h)
		l.add(start, fin)
		if p.ledger != nil {
			p.ledger.Reserve(h, a.Predicted)
			l.own += a.Predicted
		}
	}
}

// record enters a's assignment in the table and makes it visible to
// readyAt; the caller reserves the host lines.
func (p *placement) record(t int, a Assignment, fin float64) {
	p.table.Set(a)
	p.placed[t] = true
	p.finish[t] = fin
	p.siteID[t] = p.pairs.id(a.Site)
	p.hosts[t] = effectiveHosts(a)
}

// done ends a walk: its table or, when the walk failed, err — after every
// second the walk reserved in the shared ledger has been released.
func (p *placement) done(err error) (*AllocationTable, error) {
	if err == nil {
		return p.table, nil
	}
	if p.ledger != nil {
		for t, ok := range p.placed {
			if !ok {
				continue
			}
			for _, h := range p.hosts[t] {
				if l := p.line(h); l.own != 0 {
					p.ledger.Release(h, l.own)
					l.own = 0
				}
			}
		}
	}
	return nil, err
}

// settle enters a task that has already started (finished at fin, or
// running and expected to finish then): its assignment is copied verbatim
// and every host it occupies is held busy from 0 to the latest settled
// finish on it, as one span per line.
func (p *placement) settle(t int, a Assignment, fin float64) {
	p.record(t, a, fin)
	for _, h := range p.hosts[t] {
		l := p.line(h)
		if len(l.busy) == 0 {
			if fin > 0 {
				l.busy = append(l.busy, span{0, fin})
			}
		} else if fin > l.busy[0].end {
			l.busy[0].end = fin
		}
	}
}

// keep commits a movable task on the hosts the table under repair already
// gives it, after their last reservations, so later placements see the
// occupancy. A single-host task is re-priced by the model; a machine set
// keeps its committed prediction and is data-ready when its primary is.
func (p *placement) keep(t int) {
	a, _ := p.prior.Get(p.cm.ix.ID(t))
	hosts := effectiveHosts(a)
	dur := a.Predicted
	if len(hosts) == 1 {
		if c := p.cm.model(p.cm.ix.Task(t), a.Host); validCost(c) {
			dur = c
		}
	}
	primary := [1]string{a.Host}
	start := p.readyAt(t, p.pairs.id(a.Site), primary[:])
	for _, h := range hosts {
		if e := p.line(h).end(); e > start {
			start = e
		}
	}
	p.commit(t, a, start, start+dur)
}

// placeAll walks order, keeping the tasks stay marks (nil = none) where
// they are and placing every other one.
func (p *placement) placeAll(ctx context.Context, order []int32, stay []bool) error {
	for _, t := range order {
		if err := ctx.Err(); err != nil {
			return err
		}
		if stay != nil && stay[t] {
			p.keep(int(t))
		} else if err := p.place(int(t), nil); err != nil {
			return err
		}
	}
	return nil
}

// placeReady places every task in ready-set priority order over keys (see
// readyWalk); the tasks pinned marks (nil = none) go to the pin hosts when
// they can — CPOP's critical path.
func (p *placement) placeReady(ctx context.Context, keys []float64, pinned []bool, pin map[string]bool, sc *scratch) error {
	return readyWalk(ctx, p.cm.ix, keys, sc, func(t int) error {
		if pinned != nil && pinned[t] {
			return p.place(t, pin)
		}
		return p.place(t, nil)
	})
}

// heftPass is HEFT over the movable part of an application: upward ranks
// over the subgraph front marks (nil = every task), then rank-descending
// earliest-finish placement of it, the tasks in stay excepted. The heft
// policy is the pass with nothing settled; the heft re-planner runs it
// over the unstarted frontier.
func heftPass(ctx context.Context, p *placement, c commModel, front, stay []bool, sc *scratch) error {
	sc.rankU = upwardRanks(p.cm, c, front, sc.rankU)
	sc.order = rankOrderDesc(sc.rankU, front, sc.order)
	return p.placeAll(ctx, sc.order, stay)
}

// densePrep validates the graph and assembles the dense inputs shared by
// HEFT and CPOP: the index and the (possibly cached) cost matrix.
func densePrep(req *Request) (*afg.Index, *CostMatrix, error) {
	if req.Graph.Len() == 0 {
		return nil, nil, afg.ErrEmpty
	}
	ix, err := req.Graph.Index()
	if err != nil {
		return nil, nil, err
	}
	cm, err := req.costMatrix(ix)
	if err != nil {
		return nil, nil, err
	}
	return ix, cm, nil
}

// heftPolicy is the registered "heft" policy.
type heftPolicy struct{}

// Name implements Policy.
func (heftPolicy) Name() string { return "heft" }

// Schedule implements Policy: upward-rank order, insertion-based earliest
// finish placement.
//
//vdce:hot allocs=18
func (heftPolicy) Schedule(ctx context.Context, req *Request) (*AllocationTable, error) {
	_, cm, err := densePrep(req)
	if err != nil {
		return nil, err
	}
	sc := getScratch()
	defer sc.release()
	p := newPlacement(cm, req.Graph.Name, req.Net, req.Config.Ledger, sc)
	defer p.releaseScratch(sc)
	return p.done(heftPass(ctx, p, averageComm(p.pairs, cm.sites), nil, nil, sc))
}

// cpopPolicy is the registered "cpop" policy.
type cpopPolicy struct{}

// Name implements Policy.
func (cpopPolicy) Name() string { return "cpop" }

// Schedule implements Policy: priority = rank_u + rank_d; the critical path
// (the chain realising the maximum priority) is pinned to the host
// minimising its total execution; everything else places by earliest
// finish time in ready-set priority order.
//
//vdce:hot allocs=48
func (cpopPolicy) Schedule(ctx context.Context, req *Request) (*AllocationTable, error) {
	ix, cm, err := densePrep(req)
	if err != nil {
		return nil, err
	}
	sc := getScratch()
	defer sc.release()
	p := newPlacement(cm, req.Graph.Name, req.Net, req.Config.Ledger, sc)
	defer p.releaseScratch(sc)
	c := averageComm(p.pairs, cm.sites)
	sc.rankU = upwardRanks(cm, c, nil, sc.rankU)
	sc.rankD = downwardRanks(cm, c, sc.rankD)
	prio := sc.rankU
	for i := range prio {
		prio[i] += sc.rankD[i]
	}
	sc.cp = criticalPath(ix, prio, sc.cp)
	restrict := criticalHost(cm, sc.cp)
	return p.done(p.placeReady(ctx, prio, sc.cp, restrict, sc))
}

// criticalPath walks one maximum-priority chain from the highest-priority
// entry task to an exit: at every step the child whose priority is largest
// (the critical child) extends the path. cp[i] marks membership; buf is
// pooled scratch and must be zeroed, because only members are written.
func criticalPath(ix *afg.Index, prio []float64, buf []bool) []bool {
	cp := growZero(buf, ix.Len())
	cur := -1
	best := math.Inf(-1)
	for i := 0; i < ix.Len(); i++ {
		if ix.NumParents(i) == 0 && prio[i] > best {
			cur, best = i, prio[i]
		}
	}
	if cur < 0 {
		return cp
	}
	cp[cur] = true
	for {
		children := ix.Children(cur)
		if len(children) == 0 {
			return cp
		}
		next := children[0].Peer
		for _, a := range children[1:] {
			if prio[a.Peer] > prio[next] || (prio[a.Peer] == prio[next] && a.Peer < next) {
				next = a.Peer
			}
		}
		cur = int(next)
		cp[cur] = true
	}
}

// criticalHost picks the critical-path processor: among hosts offered to
// every critical task, the one minimising the path's summed prediction
// (most-covering, then cheapest, then name, when no host covers them all).
// Returns a restrict set for placement, nil when there are no candidates.
func criticalHost(cm *CostMatrix, cp []bool) map[string]bool {
	type agg struct {
		sum float64
		cnt int
	}
	per := map[string]*agg{}
	var buf []Choice
	for t := range cp {
		if !cp[t] {
			continue
		}
		buf = cm.choices(t, buf[:0])
		for _, c := range buf {
			a := per[c.Host]
			if a == nil {
				a = &agg{}
				per[c.Host] = a
			}
			a.sum += c.Predicted
			a.cnt++
		}
	}
	var bestHost string
	bestCnt, bestSum := 0, math.Inf(1)
	hosts := make([]string, 0, len(per))
	for h := range per {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		a := per[h]
		if a.cnt > bestCnt || (a.cnt == bestCnt && a.sum < bestSum) {
			bestHost, bestCnt, bestSum = h, a.cnt, a.sum
		}
	}
	if bestHost == "" {
		return nil
	}
	return map[string]bool{bestHost: true}
}

// prioItem orders ready tasks by descending priority, dense index
// (= ascending TaskID) on ties — the order the map path realised by
// re-sorting the whole ready set every step. prioHeap is its min-heap.
type prioItem struct {
	prio float64
	idx  int32
}

// LessThan implements minheap.Ordered.
func (a prioItem) LessThan(b prioItem) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.idx < b.idx
}

type prioHeap = minheap.Heap[prioItem]
