package scheduler

// The pre-dense, map-keyed scheduling paths, retained verbatim (renamed)
// as test oracles: the dense-index rewrite of HEFT/CPOP/EFT/ledger must
// produce byte-identical allocation tables against these. Only mechanical
// renames and the removal of the worker fan-out (the oracle gathers
// serially; the merge order was deterministic either way) differ from the
// original implementations.
//
// Reviewed against ValidateSchedule (feasibility, not choice), the three
// goldens (today's choices on fixed grids, blessed by the code they pin),
// TestWalksPriceLikePerPairOracle (prices, not placements) and the replay
// goldens (execution, not planning). None of those says which host a task
// SHOULD get on an input nobody blessed; each oracle below is the only
// second implementation of one decision rule, so all six stay:
//
//	oracleHEFT               — rank-descending order and insertion-based EFT host choice on fresh graphs, ledger-seeded timelines included: a feasible but wrong host
//	oracleCPOP               — critical-path membership and the pin to the critical host, which no golden can tell from any other feasible table
//	oPlacement               — the kernel under both: the per-site-block data-ready memo, one timeline per host NAME across sites, the parallel machine-set pick
//	oracleSelectHosts        — the Fig 5 walk re-stated with id-keyed levels, host-name-keyed queue/free-time maps, a full candidate sort and per-pair pricing, against selectHostsDense's shared order, per-column slices and partial selection
//	oracleSiteRun            — the paper's Site Scheduler walk (level or FIFO order, entry-like rule, transfer-aware site choice) over oracleSelectHosts, against selectHostsDense, the shared priority order and the bulk ledger-view refresh
//	oracleAvailabilityAware  — the EFT walk's host-free bookkeeping and live per-candidate ledger probes, which the faithful walk never exercises

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/afg"
	"repro/internal/dagen"
	"repro/internal/netsim"
)

// transferBytes returns the data volume of one link: the link's explicit
// size, or the parent's declared output volume ("the input size of the
// application can be used for the transfer size parameter"). Production code
// reads the same rule resolved once into afg.Arc.Bytes.
func transferBytes(g *afg.Graph, l afg.Link) int64 {
	if l.Bytes > 0 {
		return l.Bytes
	}
	if p := g.Task(l.From); p != nil {
		return p.OutputBytes
	}
	return 0
}

// oraclePriority is the original priority contract: order a set of task ids
// given the graph's id-keyed level values.
type oraclePriority func([]afg.TaskID, map[afg.TaskID]float64) []afg.TaskID

// ByLevel sorts task ids by descending level (the paper's priority: "the
// node with a higher level value will have a higher priority"), with id as
// the deterministic tie-break.
func ByLevel(ids []afg.TaskID, levels map[afg.TaskID]float64) []afg.TaskID {
	out := append([]afg.TaskID(nil), ids...)
	sort.Slice(out, func(i, j int) bool {
		li, lj := levels[out[i]], levels[out[j]]
		if li != lj {
			return li > lj
		}
		return out[i] < out[j]
	})
	return out
}

// oracleFIFO is the original FIFOPriority: plain id order, ignoring levels.
func oracleFIFO(ids []afg.TaskID, _ map[afg.TaskID]float64) []afg.TaskID {
	out := append([]afg.TaskID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestByLevelOrdering(t *testing.T) {
	levels := map[afg.TaskID]float64{"a": 1, "b": 5, "c": 5, "d": 2}
	got := ByLevel([]afg.TaskID{"a", "c", "d", "b"}, levels)
	want := []afg.TaskID{"b", "c", "d", "a"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v", got)
		}
	}
}

// tracker is the original afg.Tracker: the id-keyed "ready tasks" set of the
// Site Scheduler Algorithm (paper Fig 4, steps 6–7) — a task is ready when it
// has no parents or all of its parents have been scheduled. The production
// walks count parents on the dense Index instead.
type tracker struct {
	g       *afg.Graph
	pending map[afg.TaskID]int // remaining unfinished parents
	ready   map[afg.TaskID]bool
	done    map[afg.TaskID]bool
}

// newTracker builds a tracker with all entry tasks initially ready.
func newTracker(g *afg.Graph) *tracker {
	t := &tracker{
		g:       g,
		pending: make(map[afg.TaskID]int, g.Len()),
		ready:   make(map[afg.TaskID]bool),
		done:    make(map[afg.TaskID]bool),
	}
	for _, id := range g.TaskIDs() {
		n := len(g.Parents(id))
		t.pending[id] = n
		if n == 0 {
			t.ready[id] = true
		}
	}
	return t
}

// Ready returns the current ready set in sorted order.
func (t *tracker) Ready() []afg.TaskID {
	out := make([]afg.TaskID, 0, len(t.ready))
	for id := range t.ready {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Complete marks id finished and returns the tasks that became ready as a
// result. Completing a task twice or a non-ready task returns nil.
func (t *tracker) Complete(id afg.TaskID) []afg.TaskID {
	if t.done[id] || !t.ready[id] {
		return nil
	}
	delete(t.ready, id)
	t.done[id] = true
	var newly []afg.TaskID
	for _, e := range t.g.Children(id) {
		t.pending[e.To]--
		if t.pending[e.To] == 0 {
			t.ready[e.To] = true
			newly = append(newly, e.To)
		}
	}
	sort.Slice(newly, func(i, j int) bool { return newly[i] < newly[j] })
	return newly
}

// Remaining returns the count of tasks not yet completed.
func (t *tracker) Remaining() int { return t.g.Len() - len(t.done) }

// AllDone reports whether every task has completed.
func (t *tracker) AllDone() bool { return len(t.done) == t.g.Len() }

func trackerDiamond(t *testing.T) *afg.Graph {
	t.Helper()
	g := afg.New("diamond")
	for _, id := range []afg.TaskID{"A", "B", "C", "D"} {
		if err := g.AddTask(&afg.Task{ID: id, Function: "noop", ComputeCost: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []afg.Link{{From: "A", To: "B"}, {From: "A", To: "C"}, {From: "B", To: "D"}, {From: "C", To: "D"}} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestTrackerDiamond(t *testing.T) {
	tr := newTracker(trackerDiamond(t))
	if r := tr.Ready(); len(r) != 1 || r[0] != "A" {
		t.Fatalf("ready = %v", r)
	}
	newly := tr.Complete("A")
	if len(newly) != 2 || newly[0] != "B" || newly[1] != "C" {
		t.Fatalf("newly = %v", newly)
	}
	if tr.Complete("D") != nil {
		t.Fatal("completing non-ready task should be a no-op")
	}
	tr.Complete("B")
	if tr.ready["D"] {
		t.Fatal("D ready too early")
	}
	newly = tr.Complete("C")
	if len(newly) != 1 || newly[0] != "D" {
		t.Fatalf("newly = %v", newly)
	}
	tr.Complete("D")
	if !tr.AllDone() || tr.Remaining() != 0 {
		t.Fatal("tracker should be finished")
	}
}

func TestTrackerDoubleComplete(t *testing.T) {
	tr := newTracker(trackerDiamond(t))
	tr.Complete("A")
	if tr.Complete("A") != nil {
		t.Fatal("double complete should return nil")
	}
	if tr.Remaining() != 3 {
		t.Fatalf("remaining = %d", tr.Remaining())
	}
}

// Property: completing tasks in any ready-respecting order finishes the whole
// graph exactly once per task.
func TestPropertyTrackerCompletes(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := dagen.Random(dagen.Params{Tasks: 4 + rng.Intn(12), CCR: 1, Alpha: 1, OutDegree: 3, Beta: 1, Seed: seed})
		tr := newTracker(g)
		steps := 0
		for !tr.AllDone() {
			ready := tr.Ready()
			if len(ready) == 0 {
				t.Fatalf("seed %d: deadlock with %d tasks remaining", seed, tr.Remaining())
			}
			tr.Complete(ready[rng.Intn(len(ready))])
			if steps++; steps > g.Len() {
				t.Fatalf("seed %d: more steps than tasks", seed)
			}
		}
		if steps != g.Len() {
			t.Fatalf("seed %d: %d steps for %d tasks", seed, steps, g.Len())
		}
	}
}

// oracleCollectCandidates is the original map-keyed collectCandidates.
func oracleCollectCandidates(g *afg.Graph, req *Request) (map[afg.TaskID][]Choice, error) {
	if req.Local == nil {
		return nil, ErrNoSites
	}
	selectors := append([]HostSelector{req.Local},
		nearestSelectors(req.Local, req.Remotes, req.Net, req.Config.K)...)

	perSite := make([]map[afg.TaskID][]Choice, len(selectors))
	for i, sel := range selectors {
		if ls, ok := sel.(*LocalSelector); ok {
			if m, err := oracleHostCosts(ls, g); err == nil {
				perSite[i] = m
			}
			continue
		}
		if m, err := sel.SelectHosts(g); err == nil {
			cs := make(map[afg.TaskID][]Choice, len(m))
			for id, c := range m {
				cs[id] = []Choice{c}
			}
			perSite[i] = cs
		}
	}

	type named struct {
		name string
		cs   map[afg.TaskID][]Choice
	}
	var sites []named
	for i, sel := range selectors {
		if perSite[i] != nil {
			sites = append(sites, named{sel.SiteName(), perSite[i]})
		}
	}
	if len(sites) == 0 {
		return nil, ErrNoSites
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].name < sites[j].name })
	out := make(map[afg.TaskID][]Choice, g.Len())
	for _, s := range sites {
		for id, cs := range s.cs {
			out[id] = append(out[id], cs...)
		}
	}
	return out, nil
}

// oracleHostCosts is the original map-keyed LocalSelector.HostCosts: for
// every task, the pure predicted execution seconds on every eligible host
// at the site, sorted by host name, with no queueing model.
func oracleHostCosts(s *LocalSelector, g *afg.Graph) (map[afg.TaskID][]Choice, error) {
	resources := s.Repo.Resources.List()
	out := make(map[afg.TaskID][]Choice, g.Len())
	for _, id := range g.TaskIDs() {
		task := g.Task(id)
		var choices []Choice
		for _, r := range resources {
			pred, ok := oraclePrice(s, task, r, 0)
			if !ok {
				continue
			}
			choices = append(choices, Choice{Site: s.Site, Host: r.Static.HostName, Predicted: pred})
		}
		if len(choices) == 0 {
			return nil, fmt.Errorf("task %q at site %s: %w", id, s.Site, ErrNoEligibleHost)
		}
		sort.Slice(choices, func(i, j int) bool { return choices[i].Host < choices[j].Host })
		out[id] = choices
	}
	return out, nil
}

// oracleAverageComm derives the commModel from the candidate map.
func oracleAverageComm(net *netsim.Network, cands map[afg.TaskID][]Choice) commModel {
	if net == nil {
		return commModel{}
	}
	seen := map[string]bool{}
	var names []string
	for _, cs := range cands {
		for _, c := range cs {
			if !seen[c.Site] {
				seen[c.Site] = true
				names = append(names, c.Site)
			}
		}
	}
	if len(names) < 2 {
		return commModel{}
	}
	sort.Strings(names)
	return commFromNames(net, names)
}

// oracleMeanExec is w̄(t) over a map candidate list.
func oracleMeanExec(cs []Choice) float64 {
	if len(cs) == 0 {
		return 0
	}
	var sum float64
	for _, c := range cs {
		sum += c.Predicted
	}
	return sum / float64(len(cs))
}

// oracleUpwardRanks is the original map-keyed rank_u.
func oracleUpwardRanks(g *afg.Graph, cands map[afg.TaskID][]Choice, cm commModel) (map[afg.TaskID]float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	rank := make(map[afg.TaskID]float64, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		var best float64
		for _, l := range g.Children(id) {
			if v := cm.cost(transferBytes(g, l)) + rank[l.To]; v > best {
				best = v
			}
		}
		rank[id] = oracleMeanExec(cands[id]) + best
	}
	return rank, nil
}

// oracleDownwardRanks is the original map-keyed rank_d.
func oracleDownwardRanks(g *afg.Graph, cands map[afg.TaskID][]Choice, cm commModel) (map[afg.TaskID]float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	rank := make(map[afg.TaskID]float64, len(order))
	for _, id := range order {
		var best float64
		for _, l := range g.Parents(id) {
			v := rank[l.From] + oracleMeanExec(cands[l.From]) + cm.cost(transferBytes(g, l))
			if v > best {
				best = v
			}
		}
		rank[id] = best
	}
	return rank, nil
}

// oracleByRankDesc orders ids by descending rank, id ascending on ties.
func oracleByRankDesc(ids []afg.TaskID, rank map[afg.TaskID]float64) []afg.TaskID {
	out := append([]afg.TaskID(nil), ids...)
	sort.Slice(out, func(i, j int) bool {
		ri, rj := rank[out[i]], rank[out[j]]
		if ri != rj {
			return ri > rj
		}
		return out[i] < out[j]
	})
	return out
}

// oracleEarliest is the original linear-scan insertion lookup.
func oracleEarliest(t *timeline, ready, dur float64) float64 {
	start := ready
	for _, s := range t.busy {
		if start+dur <= s.start {
			break
		}
		if s.end > start {
			start = s.end
		}
	}
	return start
}

// oPlacement is the original map-keyed HEFT/CPOP placement state.
type oPlacement struct {
	g      *afg.Graph
	net    *netsim.Network
	ledger *LoadLedger
	lines  map[string]*timeline
	finish map[afg.TaskID]float64
	table  *AllocationTable
}

func newOPlacement(g *afg.Graph, net *netsim.Network, ledger *LoadLedger) *oPlacement {
	return &oPlacement{
		g:      g,
		net:    net,
		ledger: ledger,
		lines:  make(map[string]*timeline),
		finish: make(map[afg.TaskID]float64, g.Len()),
		table:  NewAllocationTable(g.Name),
	}
}

func (p *oPlacement) line(host string) *timeline {
	t, ok := p.lines[host]
	if !ok {
		t = &timeline{}
		if p.ledger != nil {
			if busy := p.ledger.Busy(host); busy > 0 {
				t.busy = append(t.busy, span{0, busy})
			}
		}
		p.lines[host] = t
	}
	return t
}

func (p *oPlacement) readyAt(id afg.TaskID, site string, hosts []string) float64 {
	var ready float64
	for _, l := range p.g.Parents(id) {
		parent, ok := p.table.Get(l.From)
		if !ok {
			continue
		}
		arrive := p.finish[l.From]
		if p.net != nil {
			if bytes := transferBytes(p.g, l); bytes > 0 && !sharesHost(effectiveHosts(parent), hosts) {
				arrive += p.net.TransferTime(parent.Site, site, bytes).Seconds()
			}
		}
		if arrive > ready {
			ready = arrive
		}
	}
	return ready
}

func (p *oPlacement) place(id afg.TaskID, cands []Choice, restrict map[string]bool) error {
	task := p.g.Task(id)
	if task.Mode == afg.Parallel && task.Processors > 1 {
		return p.placeParallel(id, task, cands, restrict)
	}
	var best Choice
	var bestStart float64
	bestFinish := math.Inf(1)
	found := false
	for _, c := range cands {
		if restrict != nil && !restrict[c.Host] {
			continue
		}
		ready := p.readyAt(id, c.Site, []string{c.Host})
		start := oracleEarliest(p.line(c.Host), ready, c.Predicted)
		fin := start + c.Predicted
		better := fin < bestFinish
		if fin == bestFinish {
			better = c.Site < best.Site || (c.Site == best.Site && c.Host < best.Host)
		}
		if better {
			best, bestStart, bestFinish, found = c, start, fin, true
		}
	}
	if !found {
		if restrict != nil {
			return p.place(id, cands, nil)
		}
		return fmt.Errorf("%w: %q", ErrNoEligibleHost, id)
	}
	p.commit(id, Assignment{
		Task:      id,
		Site:      best.Site,
		Host:      best.Host,
		Hosts:     []string{best.Host},
		Predicted: best.Predicted,
	}, bestStart, bestFinish)
	return nil
}

func (p *oPlacement) placeParallel(id afg.TaskID, task *afg.Task, cands []Choice, restrict map[string]bool) error {
	bySite := map[string][]Choice{}
	var siteNames []string
	for _, c := range cands {
		if restrict != nil && !restrict[c.Host] {
			continue
		}
		if _, ok := bySite[c.Site]; !ok {
			siteNames = append(siteNames, c.Site)
		}
		bySite[c.Site] = append(bySite[c.Site], c)
	}
	if len(bySite) == 0 {
		if restrict != nil {
			return p.placeParallel(id, task, cands, nil)
		}
		return fmt.Errorf("%w: %q", ErrNoEligibleHost, id)
	}
	sort.Strings(siteNames)

	var bestAssign Assignment
	var bestStart float64
	bestFinish := math.Inf(1)
	for _, site := range siteNames {
		group := bySite[site]
		n := task.Processors
		if n > len(group) {
			n = len(group)
		}
		sort.Slice(group, func(i, j int) bool {
			ei, ej := p.line(group[i].Host).end(), p.line(group[j].Host).end()
			if ei != ej {
				return ei < ej
			}
			return group[i].Host < group[j].Host
		})
		chosen := group[:n]
		hosts := make([]string, n)
		var maxPred, free float64
		for i, c := range chosen {
			hosts[i] = c.Host
			if c.Predicted > maxPred {
				maxPred = c.Predicted
			}
			if e := p.line(c.Host).end(); e > free {
				free = e
			}
		}
		pred := maxPred / float64(n)
		start := math.Max(p.readyAt(id, site, hosts), free)
		fin := start + pred
		if fin < bestFinish || (fin == bestFinish && site < bestAssign.Site) {
			bestAssign = Assignment{Task: id, Site: site, Host: hosts[0], Hosts: hosts, Predicted: pred}
			bestStart, bestFinish = start, fin
		}
	}
	p.commit(id, bestAssign, bestStart, bestFinish)
	return nil
}

func (p *oPlacement) commit(id afg.TaskID, a Assignment, start, fin float64) {
	p.table.Set(a)
	p.finish[id] = fin
	for _, h := range effectiveHosts(a) {
		p.line(h).add(start, fin)
	}
}

func (p *oPlacement) reserveLedger() {
	if p.ledger == nil {
		return
	}
	for _, id := range p.table.Order() {
		a, _ := p.table.Get(id)
		for _, h := range effectiveHosts(a) {
			p.ledger.Reserve(h, a.Predicted)
		}
	}
}

// oracleHEFT is the original map-keyed heftPolicy.Schedule.
func oracleHEFT(ctx context.Context, req *Request) (*AllocationTable, error) {
	g := req.Graph
	if err := g.Validate(); err != nil {
		return nil, err
	}
	cands, err := oracleCollectCandidates(g, req)
	if err != nil {
		return nil, err
	}
	cm := oracleAverageComm(req.Net, cands)
	rank, err := oracleUpwardRanks(g, cands, cm)
	if err != nil {
		return nil, err
	}
	p := newOPlacement(g, req.Net, req.Config.Ledger)
	for _, id := range oracleByRankDesc(g.TaskIDs(), rank) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := p.place(id, cands[id], nil); err != nil {
			return nil, err
		}
	}
	p.reserveLedger()
	return p.table, nil
}

// oracleCPOP is the original map-keyed cpopPolicy.Schedule.
func oracleCPOP(ctx context.Context, req *Request) (*AllocationTable, error) {
	g := req.Graph
	if err := g.Validate(); err != nil {
		return nil, err
	}
	cands, err := oracleCollectCandidates(g, req)
	if err != nil {
		return nil, err
	}
	cm := oracleAverageComm(req.Net, cands)
	up, err := oracleUpwardRanks(g, cands, cm)
	if err != nil {
		return nil, err
	}
	down, err := oracleDownwardRanks(g, cands, cm)
	if err != nil {
		return nil, err
	}
	prio := make(map[afg.TaskID]float64, g.Len())
	for _, id := range g.TaskIDs() {
		prio[id] = up[id] + down[id]
	}

	cp := oracleCriticalPath(g, prio)
	restrict := oracleCriticalHost(cands, cp)

	p := newOPlacement(g, req.Net, req.Config.Ledger)
	tracker := newTracker(g)
	for !tracker.AllDone() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ready := tracker.Ready()
		if len(ready) == 0 {
			return nil, fmt.Errorf("scheduler: ready set empty with %d tasks remaining", tracker.Remaining())
		}
		sort.Slice(ready, func(i, j int) bool {
			pi, pj := prio[ready[i]], prio[ready[j]]
			if pi != pj {
				return pi > pj
			}
			return ready[i] < ready[j]
		})
		id := ready[0]
		var pin map[string]bool
		if cp[id] {
			pin = restrict
		}
		if err := p.place(id, cands[id], pin); err != nil {
			return nil, err
		}
		tracker.Complete(id)
	}
	p.reserveLedger()
	return p.table, nil
}

// oracleCriticalPath walks one maximum-priority chain (original).
func oracleCriticalPath(g *afg.Graph, prio map[afg.TaskID]float64) map[afg.TaskID]bool {
	var cur afg.TaskID
	best := math.Inf(-1)
	for _, id := range g.Entries() {
		if p := prio[id]; p > best || (p == best && id < cur) {
			cur, best = id, p
		}
	}
	cp := map[afg.TaskID]bool{}
	if best == math.Inf(-1) {
		return cp
	}
	cp[cur] = true
	for {
		children := g.Children(cur)
		if len(children) == 0 {
			return cp
		}
		next := children[0].To
		for _, l := range children[1:] {
			if prio[l.To] > prio[next] || (prio[l.To] == prio[next] && l.To < next) {
				next = l.To
			}
		}
		cur = next
		cp[cur] = true
	}
}

// oracleCriticalHost picks the critical-path processor (original), except
// that the critical tasks are visited in sorted order rather than map
// order — per-host sums are order-sensitive float additions, and the
// original's random map iteration made the oracle itself nondeterministic.
// The dense path visits tasks in ascending index (= id) order, so the
// oracle does the same.
func oracleCriticalHost(cands map[afg.TaskID][]Choice, cp map[afg.TaskID]bool) map[string]bool {
	type agg struct {
		sum float64
		cnt int
	}
	cpIDs := make([]afg.TaskID, 0, len(cp))
	for id := range cp {
		cpIDs = append(cpIDs, id)
	}
	sort.Slice(cpIDs, func(i, j int) bool { return cpIDs[i] < cpIDs[j] })
	per := map[string]*agg{}
	for _, id := range cpIDs {
		for _, c := range cands[id] {
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

// isEntryLike reports whether the task "is an entry task or does not
// require any input file from its parent node tasks" (Fig 4, step 7).
func isEntryLike(g *afg.Graph, id afg.TaskID) bool {
	for _, l := range g.Parents(id) {
		if transferBytes(g, l) > 0 {
			return false
		}
	}
	return true
}

// transferCost sums transfer_time(Sparent, Sj) over the task's already
// scheduled parents.
func transferCost(net *netsim.Network, g *afg.Graph, id afg.TaskID, site string, table *AllocationTable) float64 {
	if net == nil {
		return 0
	}
	var total float64
	for _, l := range g.Parents(id) {
		parent, ok := table.Get(l.From)
		if !ok {
			continue // parent unscheduled (possible only for cross runs)
		}
		bytes := transferBytes(g, l)
		total += net.TransferTime(parent.Site, site, bytes).Seconds()
	}
	return total
}

// oracleSelectHosts is the map-keyed Fig 5 walk: id-keyed levels,
// the whole queue sorted by the map-form priority rule, the walk's view of
// its hosts keyed by host name (seeded from one ledger snapshot), every
// candidate priced by the per-pair oracle and the full candidate list sorted
// by (key, host).
func oracleSelectHosts(s *LocalSelector, g *afg.Graph, avail bool, ledger *LoadLedger, prio oraclePriority) (map[afg.TaskID]Choice, error) {
	levels, err := g.Levels()
	if err != nil {
		return nil, err
	}
	resources := s.Repo.Resources.List()
	queued := make(map[string]float64) // paper mode: placed tasks per host
	freeAt := make(map[string]float64) // availability mode: est host-free times
	if ledger != nil {
		freeAt = ledger.Snapshot()
	}
	out := make(map[afg.TaskID]Choice, g.Len())
	for _, id := range prio(g.TaskIDs(), levels) {
		task := g.Task(id)
		type cand struct {
			host      string
			pred, key float64
		}
		var cands []cand
		for _, r := range resources {
			host := r.Static.HostName
			pred, ok := oraclePrice(s, task, r, queued[host])
			if !ok {
				continue
			}
			key := pred
			if avail {
				key = freeAt[host] + pred
			}
			cands = append(cands, cand{host, pred, key})
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf("task %q at site %s: %w", id, s.Site, ErrNoEligibleHost)
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].key != cands[j].key {
				return cands[i].key < cands[j].key
			}
			return cands[i].host < cands[j].host
		})
		n := 1
		if task.Mode == afg.Parallel {
			n = task.Processors
		}
		if n > len(cands) {
			n = len(cands)
		}
		hosts := make([]string, n)
		var maxPred, start float64
		for i, c := range cands[:n] {
			hosts[i] = c.host
			maxPred = math.Max(maxPred, c.pred)
			start = math.Max(start, freeAt[c.host])
		}
		pred := maxPred / float64(n)
		for _, h := range hosts {
			if avail {
				freeAt[h] = start + pred
			} else {
				queued[h]++
			}
		}
		out[id] = Choice{Site: s.Site, Host: hosts[0], Hosts: hosts, Predicted: pred}
	}
	return out, nil
}

// oracleSiteRun is the original Site Scheduler engine: map-keyed site
// results, Tracker ready sets re-sorted per step, and (in availability
// mode) a live per-candidate ledger probe. It reads the same engine
// configuration the dense walk runs from, except the priority: prio is the
// map-form rule (ByLevel, oracleFIFO) matching the request's Config.Priority.
func oracleSiteRun(s *siteScheduler, prio oraclePriority) (*AllocationTable, error) {
	g, cfg := s.req.Graph, s.req.Config
	if s.req.Local == nil {
		return nil, ErrNoSites
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}

	selectors := append([]HostSelector{s.req.Local},
		nearestSelectors(s.req.Local, s.req.Remotes, s.req.Net, cfg.K)...)
	var results []oracleSiteResult
	for _, sel := range selectors {
		var choices map[afg.TaskID]Choice
		var err error
		if ls, ok := sel.(*LocalSelector); ok {
			// The walk's mode propagates into in-process selectors.
			choices, err = oracleSelectHosts(ls, g, s.avail, s.ledger, prio)
		} else {
			choices, err = sel.SelectHosts(g)
		}
		if err == nil {
			results = append(results, oracleSiteResult{sel.SiteName(), choices})
		}
	}
	if len(results) == 0 {
		return nil, ErrNoSites
	}
	sort.Slice(results, func(i, j int) bool { return results[i].name < results[j].name })

	levels, err := g.Levels()
	if err != nil {
		return nil, err
	}

	if s.avail {
		return oracleAvailabilityAware(s, g, results, levels, prio)
	}

	table := NewAllocationTable(g.Name)
	tracker := newTracker(g)
	for !tracker.AllDone() {
		ready := prio(tracker.Ready(), levels)
		if len(ready) == 0 {
			return nil, fmt.Errorf("scheduler: ready set empty with %d tasks remaining", tracker.Remaining())
		}
		id := ready[0]

		best := Choice{Predicted: math.Inf(1)}
		bestTotal := math.Inf(1)
		found := false
		for _, sr := range results {
			choice, ok := sr.choices[id]
			if !ok {
				continue
			}
			total := choice.Predicted
			if cfg.TransferAware && !isEntryLike(g, id) {
				total += transferCost(s.req.Net, g, id, sr.name, table)
			}
			if total < bestTotal || (total == bestTotal && sr.name < best.Site) {
				best, bestTotal, found = choice, total, true
			}
		}
		if !found {
			return nil, fmt.Errorf("%w: %q", ErrNoEligibleHost, id)
		}
		table.Set(Assignment{
			Task:      id,
			Site:      best.Site,
			Host:      best.Host,
			Hosts:     best.Hosts,
			Predicted: best.Predicted,
		})
		tracker.Complete(id)
	}
	return table, nil
}

type oracleSiteResult struct {
	name    string
	choices map[afg.TaskID]Choice
}

// oracleAvailabilityAware is the original EFT walk with live per-candidate
// ledger probes.
func oracleAvailabilityAware(s *siteScheduler, g *afg.Graph, results []oracleSiteResult, levels map[afg.TaskID]float64, prio oraclePriority) (*AllocationTable, error) {
	table := NewAllocationTable(g.Name)
	estFinish := make(map[afg.TaskID]float64, g.Len())
	hostFree := map[string]float64{}
	own := map[string]float64{}
	freeAt := func(h string) float64 {
		f := hostFree[h]
		if s.ledger != nil {
			if other := s.ledger.Busy(h) - own[h]; other > f {
				f = other
			}
		}
		return f
	}
	releaseOwn := func() {
		if s.ledger == nil {
			return
		}
		for h, sec := range own {
			s.ledger.Release(h, sec)
		}
	}

	tracker := newTracker(g)
	for !tracker.AllDone() {
		ready := prio(tracker.Ready(), levels)
		if len(ready) == 0 {
			releaseOwn()
			return nil, fmt.Errorf("scheduler: ready set empty with %d tasks remaining", tracker.Remaining())
		}
		id := ready[0]

		var best Choice
		var bestHosts []string
		bestFinish := math.Inf(1)
		found := false
		for _, sr := range results {
			choice, ok := sr.choices[id]
			if !ok {
				continue
			}
			hosts := effectiveHosts(Assignment{Host: choice.Host, Hosts: choice.Hosts})
			start := 0.0
			for _, l := range g.Parents(id) {
				arrive := estFinish[l.From]
				if s.req.Net != nil {
					if p, ok := table.Get(l.From); ok {
						if bytes := transferBytes(g, l); bytes > 0 && !sharesHost(effectiveHosts(p), hosts) {
							arrive += s.req.Net.TransferTime(p.Site, sr.name, bytes).Seconds()
						}
					}
				}
				start = math.Max(start, arrive)
			}
			for _, h := range hosts {
				start = math.Max(start, freeAt(h))
			}
			finish := start + choice.Predicted
			if finish < bestFinish || (finish == bestFinish && sr.name < best.Site) {
				best, bestHosts, bestFinish, found = choice, hosts, finish, true
			}
		}
		if !found {
			releaseOwn()
			return nil, fmt.Errorf("%w: %q", ErrNoEligibleHost, id)
		}
		table.Set(Assignment{
			Task:      id,
			Site:      best.Site,
			Host:      best.Host,
			Hosts:     best.Hosts,
			Predicted: best.Predicted,
		})
		estFinish[id] = bestFinish
		for _, h := range bestHosts {
			hostFree[h] = bestFinish
			if s.ledger != nil {
				s.ledger.Reserve(h, best.Predicted)
				own[h] += best.Predicted
			}
		}
		tracker.Complete(id)
	}
	return table, nil
}
