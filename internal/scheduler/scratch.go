package scheduler

// The per-schedule scratch arena. Every hot scheduling path used to pay a
// fixed set of O(V) / O(H) allocations per Schedule or Simulate call: rank
// vectors, priority-heap backing arrays, host timelines and their span
// slabs, dense per-task placement columns, the simulator's event-loop
// state. Nothing in them survives the call, so they live in one pooled
// scratch struct recycled through a sync.Pool and repeated Batch.Schedule
// calls stop reallocating them.
//
// The pooling contract, in order of importance:
//
//  1. Schedule OUTPUT is never pooled: the returned AllocationTable, its
//     committed host sets and the slabs they are carved from, and a cost
//     matrix a CostCache shares are allocated fresh per schedule. A site
//     walk's Fig 5 offers are scratch (sites); only the table names hosts.
//     One exception: a RunChurn repair writes into the table the run retired.
//  2. Every pooled buffer is either fully overwritten before it is read
//     (rank vectors, dense columns, bulk heap loads: plain grow) or
//     explicitly reset: by growZero (placed markers back to false,
//     host-free and data-ready columns back to 0) or, for a placement's
//     host line, by placement.lineOf as it reopens the slot (span slab back
//     to length zero, no ledger reservation). A read-before-write buffer
//     acquired with plain grow is a correctness bug, not just a leak.
//  3. Scratch is function-scoped: a holder Gets at entry and releases on
//     exit. Concurrent Batch workers, gather goroutines, and parallel
//     RankingCells workers each draw their own scratch from the pool, so
//     no synchronisation happens inside one.
//
// A pooled scratch retains references from its last use (assignment
// strings, host sets, the last placement's table) until its next use or
// until the GC clears the pool's victim cache. That retention is bounded by
// one schedule's working set per pooled scratch and is the price of reuse.

import (
	"sync"

	"repro/internal/netsim"
)

// scratch is the arena. Fields group by consumer; consumers sharing a
// field (the ready walk's pending counters and the simulator's, say) never coexist
// in one holder, because a holder runs exactly one of those paths.
type scratch struct {
	// Rank and priority state (HEFT, CPOP, the ready walk).
	rankU   []float64  // upward ranks / combined CPOP priority
	rankD   []float64  // downward ranks
	order   []int32    // rank-sorted task order
	pending []int32    // unfinished-parent counters (ready walk, executor)
	heap    []prioItem // ready-heap backing array (ready walk)
	cp      []bool     // critical-path membership (CPOP)

	// Placement state (the earliest-finish kernel: HEFT, CPOP, the eft
	// site walks, re-planners).
	lineIDs    map[string]int32 // host name -> its line (cleared per use)
	hostOf     []string         // line -> host name (refilled per use)
	lines      []timeline       // per-line timelines; span slabs retained
	canon      []int32          // column, then offered host -> its line
	placed     []bool           // settled-or-committed marker per task (reset to false)
	finish     []float64        // estimated finish per task
	hostSets   [][]int32        // assigned host lines per task (refs dropped on reset)
	lineSlab   []int32          // backs hostSets (refilled per use)
	blockReady []float64        // per-site-block data-ready memo
	blockSite  []int32          // per-site-block site id
	mark       []int32          // line -> parent-host stamp (reset to 0)
	set, best  []int32          // one candidate's host lines; the best set so far
	scored     []scored         // one column block's candidates for a machine set
	lazy       CostMatrix       // a re-plan's cost matrix: its hosts, sites, blocks and row buffer are refilled per use
	prices     runPrices        // a re-plan's price table when its request brings none (reset per use)

	kernel placement // the one placement a holder runs; its table is output, never reused
	repair repair    // a re-plan's state, its buffers refilled per use

	// Transfer pricing (placement, the executor, the paper's walk): site
	// pairs read once per use, and each task's assigned site id in them.
	pairs  sitePairs
	siteID []int32

	// Site-walk state: the sites' answers to one Site Scheduler run, each
	// slot keeping its offer slabs and its walk's buffers.
	sites []siteResult

	// Executor state (sim.go's event loop).
	assigns   []Assignment     // dense assignment copies
	hostCols  [][]int32        // dense host columns per task (slots keep their backing arrays)
	hostFree  []float64        // column -> host-free time (grown a zero per column)
	slow      []float64        // column -> straggle multiplier (0 = true to prediction)
	dataReady []float64        // per-task data-ready time
	begin     []float64        // per-task start, once started
	pred      []float64        // per-task predicted duration as scheduled (parallel split applied)
	end       []float64        // per-task actual finish, once started
	started   []bool           // running or finished (reset to false)
	cand      pq               // ready tasks by candidate start
	fin       pq               // running tasks by actual finish
	det       pq               // overrun detections of running tasks
	hostCol   map[string]int32 // host outside the run -> dense column (cleared per use)
}

// sitePairs is one holder's snapshot of the network, grown as it meets
// sites: every site name met is interned to a dense id, and cell (i, j)
// caches the PathSpec i→j, read from the network the first time a transfer
// i→j is priced. Pricing is then one slice read and
// PathSpec.Transfer — the arithmetic Network.TransferTime runs, so the two
// agree bit for bit — with no lock and no string-keyed map. A schedule sees
// each pair as the network held it when the schedule first priced it.
type sitePairs struct {
	net    *netsim.Network // nil = transfers are free and never priced
	ids    map[string]int32
	names  []string
	stride int32
	cells  []netsim.PathSpec // i→j at i*stride+j; a zero Bandwidth marks a pair not yet read
}

// reset empties the table for a use against net, keeping the map, names and
// cells for the next holder.
func (sp *sitePairs) reset(net *netsim.Network) {
	sp.net = net
	if sp.ids == nil {
		sp.ids = map[string]int32{}
	} else {
		clear(sp.ids)
	}
	for i := range sp.names {
		row := int32(i) * sp.stride
		clear(sp.cells[row : row+int32(len(sp.names))])
	}
	clear(sp.names) // drop the last holder's strings
	sp.names = sp.names[:0]
}

// id interns site, widening the table when it is full.
func (sp *sitePairs) id(site string) int32 {
	if i, ok := sp.ids[site]; ok {
		return i
	}
	i := int32(len(sp.names))
	if i == sp.stride {
		stride := max(2*sp.stride, 8)
		cells := make([]netsim.PathSpec, stride*stride)
		for r := int32(0); r < i; r++ {
			copy(cells[r*stride:], sp.cells[r*sp.stride:r*sp.stride+i])
		}
		sp.stride, sp.cells = stride, cells
	}
	sp.ids[site] = i
	sp.names = append(sp.names, site)
	return i
}

// seconds prices moving bytes from site a to site b (ids), reading the pair
// from the network on its first use. Only for a table with a network. A
// spec the network hands out always has a positive bandwidth (SetPath and
// New refuse any other), so the zero marker never hides a real path.
func (sp *sitePairs) seconds(a, b int32, bytes int64) float64 {
	c := &sp.cells[a*sp.stride+b]
	if c.Bandwidth == 0 {
		*c = sp.net.Path(sp.names[a], sp.names[b])
	}
	return c.Transfer(bytes).Seconds()
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// scratchPoolOff disables recycling so equivalence tests can compare pooled
// runs against fresh-allocation runs. Written only by tests, before the
// goroutines under test start.
var scratchPoolOff bool

// getScratch draws a scratch from the pool (or allocates one on a miss or
// when the pool is disabled by tests).
func getScratch() *scratch {
	if scratchPoolOff {
		return new(scratch)
	}
	return scratchPool.Get().(*scratch)
}

// release returns s to the pool. Buffers keep their high-water capacity;
// the next holder's grow/growZero calls re-establish lengths and resets.
func (s *scratch) release() {
	if s == nil || scratchPoolOff {
		return
	}
	scratchPool.Put(s)
}

// grow returns buf with length n, reusing its capacity when it suffices.
// Contents are NOT cleared: grow is only for buffers every element of which
// is written before it is read. Anything with read-before-write or
// sentinel semantics must use growZero instead (contract 2 above).
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// cleared empties *m, making it when nil, and returns it.
func cleared[K comparable, V any](m *map[K]V) map[K]V {
	if *m == nil {
		*m = map[K]V{}
	}
	clear(*m)
	return *m
}

// growZero is grow plus an explicit clear. For buffers whose zero value is
// load-bearing under reuse — false as the unplaced marker, 0 as the
// host-free and data-ready baseline, false for path membership — the reset
// IS the correctness contract, and it also drops stale references (old
// host sets, strings) a recycled scratch would otherwise pin.
func growZero[T any](buf []T, n int) []T {
	buf = grow(buf, n)
	clear(buf)
	return buf
}
