package scheduler

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

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
// graph's dense Index, and every host is a dense line whose timeline finds
// insertion gaps by binary search. The original map-keyed implementations
// are retained in oracle_test.go; equivalence tests prove the dense paths
// produce identical allocation tables. placement below is the package's one
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
// from t to an exit, in mean costs — as a dense slice over the matrix, w̄
// read from the gathered matrix's vector (summed per task in a re-plan's).
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
// upwardRanks, it reads w̄ from the gathered matrix's vector, here once per
// arc; the rank vector reuses buf and every element is overwritten.
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
// it — slice-indexed end to end. Every host is a dense line, interned once
// per placement by name (a host NAME owns one timeline, however many sites
// offer it): the matrix's columns, then every offer block's hosts, then any
// host settled work names. Per line it keeps a timeline (empty, or seeded
// from the settled set of a running application); per task by dense index,
// the estimated finish, site and host lines; and the allocation table under
// construction. Names are read only to fill a table row, for the shared
// ledger, and where a re-plan prices a kept task by name. With a shared
// ledger, no task starts on a host before the work other applications hold
// there has run (floor, read from the ledger per candidate), every commit
// reserves its prediction on each of its hosts, and a failed walk releases
// them (done). The zero strategy fields are planning from scratch; only this
// package's re-planners set them.
type placement struct {
	cm     *CostMatrix
	pairs  *sitePairs       // transfer prices by site id
	ledger *LoadLedger      // the shared ledger, read per candidate; nil = none
	ids    map[string]int32 // host name -> its line
	hostOf []string         // line -> host name
	lines  []timeline       // per line
	canon  []int32          // column, then offered host -> its line

	placed []bool // task is settled or committed; gates finish/siteID/hosts
	finish []float64
	siteID []int32   // assigned site id per task
	hosts  [][]int32 // assigned host lines per task, carved from slab
	slab   []int32
	table  *AllocationTable

	appendOnly bool             // start after the host's last reservation instead of in the first fitting gap
	singleHost bool             // place a parallel-mode task on one host (its machine set broke)
	prior      *AllocationTable // the committed table under repair: where keep finds a task's current hosts

	cand      []scored // one column block's candidates for a machine set, keyed by free time
	set, best []int32  // one candidate's host lines; the best set so far

	// hostSlab backs the committed single-host sets. It is schedule
	// OUTPUT — the carved sets escape into the allocation table — so it is
	// allocated fresh per placement and never returned to the pool.
	hostSlab []string

	blockReady []float64 // per-site-block data-ready memo for the current task
	blockSite  []int32   // per-site-block site id
	mark       []int32   // line -> stamp of the last task with a byte-carrying parent on its host
	stamp      int32     // the current task's stamp
}

// newPlacement wires the placement state onto sc's pooled buffers. The
// lines, columns, and per-task vectors are scratch (contract 2 in
// scratch.go: placed, hosts and mark are reset, finish and siteID are gated
// by the placed marker, lineOf reopens each line, the pair table starts
// empty and interns every block's site); the table and hostSlab are output,
// allocated fresh — unless spare, a table RunChurn retired, has cm's
// positions: then it is emptied and reused.
func newPlacement(cm *CostMatrix, app string, spare *AllocationTable, net *netsim.Network, ledger *LoadLedger, sc *scratch) *placement {
	n := cm.ix.Len()
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
	if spare == nil || spare.ix != cm.ix {
		spare = tableFor(app, cm.ix)
	}
	clear(spare.rows)
	clear(spare.set)
	spare.App, spare.order = app, spare.order[:0]
	p := &sc.kernel
	*p = placement{
		cm:         cm,
		pairs:      &sc.pairs,
		ledger:     ledger,
		ids:        cleared(&sc.lineIDs),
		hostOf:     sc.hostOf[:0],
		lines:      sc.lines[:0],
		canon:      sc.canon[:0],
		placed:     sc.placed,
		finish:     sc.finish,
		siteID:     sc.siteID,
		hosts:      sc.hostSets,
		slab:       sc.lineSlab[:0],
		table:      spare,
		cand:       sc.scored,
		set:        sc.set,
		best:       sc.best,
		blockReady: sc.blockReady,
		blockSite:  sc.blockSite,
	}
	for c := range cm.hosts {
		p.canon = append(p.canon, p.lineOf(cm.hosts[c].Host))
	}
	for _, b := range cm.blocks {
		for _, h := range b.hosts {
			p.canon = append(p.canon, p.lineOf(h))
		}
	}
	p.mark = growZero(sc.mark, len(p.lines)) // 0 = no stamp yet
	return p
}

// lineOf interns a host name: its line, opened on first sight in the next
// pooled slot (its span slab kept, emptied) or a new one.
func (p *placement) lineOf(host string) int32 {
	l, ok := p.ids[host]
	if !ok {
		l = int32(len(p.lines))
		if len(p.lines) < cap(p.lines) {
			p.lines = p.lines[:l+1]
			p.lines[l] = timeline{busy: p.lines[l].busy[:0]}
		} else {
			p.lines = append(p.lines, timeline{})
		}
		p.ids[host], p.hostOf = l, append(p.hostOf, host)
	}
	return l
}

// releaseScratch hands the placement's pooled buffers back to sc so any
// growth is retained for the next schedule. The table and hostSlab are
// schedule output and are never returned, and neither is a gathered cost
// matrix (a CostCache may share it); a re-plan's lazy one is sc's already.
// Call before sc.release().
func (p *placement) releaseScratch(sc *scratch) {
	sc.lines, sc.canon, sc.lineIDs, sc.hostOf = p.lines, p.canon, p.ids, p.hostOf
	sc.placed, sc.finish, sc.siteID, sc.hostSets, sc.lineSlab = p.placed, p.finish, p.siteID, p.hosts, p.slab
	sc.blockReady, sc.blockSite, sc.mark = p.blockReady, p.blockSite, p.mark
	sc.scored, sc.set, sc.best = p.cand, p.set, p.best
}

// readyAt is the data-ready time of task t on the given host lines at site
// (an id in the pair table): every scheduled parent's estimated finish, plus
// the transfer from the parent's site unless a host is shared with the
// parent, priced from the schedule's pair table. A nil host set shares
// nothing: the same float operations, in the same order, as for any
// candidate off the parents' hosts, which lets prepReady memoise it per
// site block.
func (p *placement) readyAt(t int, site int32, set []int32) float64 {
	var ready float64
	for _, a := range p.cm.ix.Parents(t) {
		if !p.placed[a.Peer] {
			continue // unplaced parent (possible only on rank ties); skip
		}
		arrive := p.finish[a.Peer]
		if p.pairs.net != nil && a.Bytes > 0 && !sharesHost(p.hosts[a.Peer], set) {
			arrive += p.pairs.seconds(p.siteID[a.Peer], site, a.Bytes)
		}
		if arrive > ready {
			ready = arrive
		}
	}
	return ready
}

// prepReady memoises, per dense site block, the current task's data-ready
// time assuming no host sharing, and stamps the lines of byte-carrying
// placed parents in mark. Inside a block every host sees the same transfer
// terms except the few appearing in a parent's host set (a zero-byte
// parent's sharing never changes readyAt), so only those fall back to the
// full recompute. A line is its host name's, which every site offering that
// name shares; one opened after newPlacement (a settled host outside the
// matrix and its offers) is no column's, so it is not stamped. This is the
// cache-blocked CostMatrix traversal: the O(parents) transfer walk runs once
// per (task, site block) instead of once per (task, host) — O(S·P) against
// the former O(H·P) — which profiled far better at 1000 hosts than an
// indexed O(log H) structure, whose per-host heterogeneous ready times
// defeat any shared ordering. The memo is also place's finish bound for
// every unmarked column; a marked one is bounded by its own readyAt.
// A matrix without columns (a site walk's offers) has nothing to memoise.
func (p *placement) prepReady(t int) {
	if len(p.cm.hosts) == 0 {
		return
	}
	p.stamp++
	for _, a := range p.cm.ix.Parents(t) {
		if a.Bytes > 0 && p.placed[a.Peer] {
			for _, l := range p.hosts[a.Peer] {
				if int(l) < len(p.mark) {
					p.mark[l] = p.stamp
				}
			}
		}
	}
	for bi := range p.cm.blocks {
		if p.cm.blocks[bi].at != nil {
			continue // single candidate per block: memoising buys nothing
		}
		p.blockReady[bi] = p.readyAt(t, p.blockSite[bi], nil)
	}
}

// floor is the kernel's ledger rule: with a shared ledger, line l's host is
// busy until the work other applications hold on it has run — the ledger's
// busy seconds there less what this walk reserved itself.
func (p *placement) floor(l int32) float64 {
	if p.ledger == nil {
		return 0
	}
	return p.ledger.Busy(p.hostOf[l]) - p.lines[l].own
}

// free is when line l can take work appended to it: after its last
// reservation and its ledger floor.
func (p *placement) free(l int32) float64 {
	if f := p.floor(l); f > p.lines[l].end() {
		return f
	}
	return p.lines[l].end()
}

// startOn is the strategy's start rule on line l: never before ready or the
// host's ledger floor, then the first idle gap that fits dur (insertion)
// or, append-only, after the line's last reservation.
func (p *placement) startOn(l int32, ready, dur float64) float64 {
	if f := p.floor(l); f > ready {
		ready = f
	}
	if !p.appendOnly {
		return p.lines[l].earliest(ready, dur)
	}
	if e := p.lines[l].end(); e > ready {
		return e
	}
	return ready
}

// candidate is one way to place a task on site block bi, and its timing.
type candidate struct {
	bi               int     // -1 = none yet
	set              []int32 // its host lines, primary first
	pred, start, fin float64
}

// improve makes c the best candidate so far, its set copied into the best
// buffer, as the next candidate reuses set.
func (p *placement) improve(best *candidate, c candidate) {
	p.best = append(p.best[:0], c.set...)
	c.set = p.best
	*best = c
}

// place schedules one task on the candidate minimising earliest finish
// time under the strategy's start rule: every eligible column host (for a
// parallel-mode task, one machine set per site), and every offer block's
// offer with its host set as offered, read by column. Blocks ascend by site
// name and columns by host name within one, so taking only a strictly
// earlier finish gives exact ties to the first candidate in (site, host)
// order. No start precedes the data-ready time, so a column or offer whose
// ready + prediction is not strictly below the best finish cannot finish
// first: it is skipped before the start rule reads its timeline or the
// ledger (a NaN, ineligible, cell too). A parent's own host keeps its own
// readyAt. pin, when a line (not -1), limits the hosts considered to it
// (CPOP's critical-path pinning); if it excludes every candidate, placement
// retries unpinned rather than failing the application.
func (p *placement) place(t int, pin int32) error {
	task := p.cm.ix.Task(t)
	parallel := task.Mode == afg.Parallel && task.Processors > 1 && !p.singleHost
	p.prepReady(t)
	best := candidate{bi: -1, fin: math.Inf(1)}
	slot := int32(len(p.cm.hosts)) // canon slot of the next offer block's first host
	for bi := range p.cm.blocks {
		b := &p.cm.blocks[bi]
		if b.at != nil {
			base := slot
			slot += int32(len(b.hosts))
			o := b.at[t]
			if o.lo == o.hi || pin >= 0 && p.canon[base+b.cols[o.lo]] != pin {
				continue
			}
			p.set = p.set[:0]
			for _, c := range b.cols[o.lo:o.hi] {
				p.set = append(p.set, p.canon[base+c])
			}
			start := p.readyAt(t, p.blockSite[bi], p.set)
			if !(start+o.pred < best.fin) {
				continue
			}
			if len(p.set) == 1 && !parallel {
				start = p.startOn(p.set[0], start, o.pred)
			} else { // appended: idle gaps rarely align across a set
				for _, l := range p.set {
					start = max(start, p.free(l))
				}
			}
			if fin := start + o.pred; fin < best.fin {
				p.improve(&best, candidate{bi, p.set, o.pred, start, fin})
			}
			continue
		}
		row := p.cm.row(t, bi)
		if parallel {
			p.machineSet(&best, t, task.Processors, bi, row, pin)
			continue
		}
		base := p.blockReady[bi]
		for k, pr := range row {
			col := b.col0 + int32(k)
			l, set, ready := p.canon[col], p.canon[col:col+1], base
			if p.mark[l] == p.stamp {
				ready = p.readyAt(t, p.blockSite[bi], set)
			}
			if pin >= 0 && l != pin || !(ready+pr < best.fin) {
				continue
			}
			start := p.startOn(l, ready, pr)
			if fin := start + pr; fin < best.fin {
				best = candidate{bi, set, pr, start, fin}
			}
		}
	}
	if best.bi < 0 {
		if pin >= 0 {
			return p.place(t, -1)
		}
		return fmt.Errorf("%w: %q", ErrNoEligibleHost, p.cm.ix.ID(t))
	}
	hosts := hostSet(p.hostOf[best.set[0]], p.hostOf, best.set, &p.hostSlab, p.cm.ix.Len())
	p.commit(t, Assignment{Task: p.cm.ix.ID(t), Site: p.cm.blocks[best.bi].name, Host: hosts[0], Hosts: hosts, Predicted: best.pred},
		best.set, best.start, best.fin)
	return nil
}

// machineSet folds a parallel-mode task's candidate at column block bi,
// whose row of predictions is row, into best: the n eligible hosts that free
// up earliest (host name on ties), charged the slowest member's prediction
// split n ways, started once the data is ready and every member is free.
func (p *placement) machineSet(best *candidate, t, n, bi int, row []float64, pin int32) {
	b := &p.cm.blocks[bi]
	group := p.cand[:0]
	for k, pr := range row {
		col := b.col0 + int32(k)
		if l := p.canon[col]; !math.IsNaN(pr) && (pin < 0 || l == pin) {
			group = append(group, scored{col, pr, p.free(l)})
		}
	}
	p.cand = group
	if len(group) == 0 {
		return
	}
	n = min(n, len(group))
	pick(group, n)
	p.set = p.set[:0]
	var maxPred float64
	for _, g := range group[:n] {
		p.set = append(p.set, p.canon[g.col])
		maxPred = max(maxPred, g.pred)
	}
	pred := maxPred / float64(n)
	start := p.readyAt(t, p.blockSite[bi], p.set)
	for _, g := range group[:n] {
		start = max(start, g.key)
	}
	if fin := start + pred; fin < best.fin {
		p.improve(best, candidate{bi, p.set, pred, start, fin})
	}
}

// commit enters a's assignment on host lines set and reserves [start, fin)
// on each — with a shared ledger, a's prediction per host there as well.
func (p *placement) commit(t int, a Assignment, set []int32, start, fin float64) {
	p.record(t, a, set, fin)
	for _, l := range set {
		p.lines[l].add(start, fin)
		if p.ledger != nil {
			p.ledger.Reserve(p.hostOf[l], a.Predicted)
			p.lines[l].own += a.Predicted
		}
	}
}

// record enters a's assignment on host lines set in the table and makes it
// visible to readyAt; the caller reserves the lines.
func (p *placement) record(t int, a Assignment, set []int32, fin float64) {
	p.table.setAt(int32(t), a)
	p.placed[t] = true
	p.finish[t] = fin
	p.siteID[t] = p.pairs.id(a.Site)
	p.slab = append(p.slab, set...)
	p.hosts[t] = p.slab[len(p.slab)-len(set):]
}

// linesOf interns the hosts a's assignment occupies into the set buffer.
func (p *placement) linesOf(a Assignment) []int32 {
	p.set = p.set[:0]
	for _, h := range effectiveHosts(a) {
		p.set = append(p.set, p.lineOf(h))
	}
	return p.set
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
			for _, l := range p.hosts[t] {
				if own := p.lines[l].own; own != 0 {
					p.ledger.Release(p.hostOf[l], own)
					p.lines[l].own = 0
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
	set := p.linesOf(a)
	p.record(t, a, set, fin)
	for _, l := range set {
		if busy := p.lines[l].busy; len(busy) == 0 {
			if fin > 0 {
				p.lines[l].busy = append(busy, span{0, fin})
			}
		} else if fin > busy[0].end {
			busy[0].end = fin
		}
	}
}

// keep commits a movable task on the hosts the table under repair already
// gives it, after their last reservations, so later placements see the
// occupancy. A single-host task is re-priced by the model; a machine set
// keeps its committed prediction and is data-ready when its primary is.
func (p *placement) keep(t int) {
	a, _ := p.prior.at(p.cm.ix, t)
	set := p.linesOf(a)
	dur := a.Predicted
	if len(set) == 1 {
		if c := p.cm.prices.price(p.cm.ix.Task(t), a.Host); validCost(c) {
			dur = c
		}
	}
	primary := [1]int32{p.lineOf(a.Host)}
	start := p.readyAt(t, p.pairs.id(a.Site), primary[:])
	for _, l := range set {
		start = max(start, p.lines[l].end())
	}
	p.commit(t, a, set, start, start+dur)
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
		} else if err := p.place(int(t), -1); err != nil {
			return err
		}
	}
	return nil
}

// placeReady places every task in ready-set priority order over keys (see
// readyWalk); the tasks pinned marks (nil = none) go to line pin when they
// can — CPOP's critical path.
func (p *placement) placeReady(ctx context.Context, keys []float64, pinned []bool, pin int32, sc *scratch) error {
	return readyWalk(ctx, p.cm.ix, keys, sc, func(t int) error {
		if pinned != nil && pinned[t] {
			return p.place(t, pin)
		}
		return p.place(t, -1)
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
//vdce:hot allocs=7
func (heftPolicy) Schedule(ctx context.Context, req *Request) (*AllocationTable, error) {
	_, cm, err := densePrep(req)
	if err != nil {
		return nil, err
	}
	sc := getScratch()
	defer sc.release()
	p := newPlacement(cm, req.Graph.Name, nil, req.Net, req.Config.Ledger, sc)
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
//vdce:hot allocs=6
func (cpopPolicy) Schedule(ctx context.Context, req *Request) (*AllocationTable, error) {
	ix, cm, err := densePrep(req)
	if err != nil {
		return nil, err
	}
	sc := getScratch()
	defer sc.release()
	p := newPlacement(cm, req.Graph.Name, nil, req.Net, req.Config.Ledger, sc)
	defer p.releaseScratch(sc)
	c := averageComm(p.pairs, cm.sites)
	sc.rankU = upwardRanks(cm, c, nil, sc.rankU)
	sc.rankD = downwardRanks(cm, c, sc.rankD)
	prio := sc.rankU
	for i := range prio {
		prio[i] += sc.rankD[i]
	}
	sc.cp = criticalPath(ix, prio, sc.cp)
	return p.done(p.placeReady(ctx, prio, sc.cp, p.criticalLine(sc.cp), sc))
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

// criticalLine picks the critical-path processor: among hosts offered to
// every critical task, the one minimising the path's summed prediction
// (most-covering, then cheapest, then first by name, when no host covers
// them all). Returns its line, -1 when there are no candidates.
func (p *placement) criticalLine(cp []bool) int32 {
	type agg struct {
		sum float64
		cnt int
	}
	per := make([]agg, len(p.lines))
	add := func(l int32, pred float64) { per[l].sum, per[l].cnt = per[l].sum+pred, per[l].cnt+1 }
	cm := p.cm
	for t := range cp {
		if !cp[t] {
			continue
		}
		slot := int32(len(cm.hosts))
		for bi, b := range cm.blocks { // the gather's site-then-host order
			if b.at != nil {
				if o := b.at[t]; o.lo < o.hi {
					add(p.canon[slot+b.cols[o.lo]], o.pred)
				}
				slot += int32(len(b.hosts))
				continue
			}
			for k, pr := range cm.row(t, bi) {
				if !math.IsNaN(pr) {
					add(p.canon[b.col0+int32(k)], pr)
				}
			}
		}
	}
	best := int32(-1)
	for l, a := range per {
		if a.cnt > 0 && (best < 0 || cmp.Or(cmp.Compare(per[best].cnt, a.cnt), cmp.Compare(a.sum, per[best].sum),
			strings.Compare(p.hostOf[l], p.hostOf[best])) < 0) {
			best = int32(l)
		}
	}
	return best
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
