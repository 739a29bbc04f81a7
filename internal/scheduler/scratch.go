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
//  1. Schedule OUTPUT is never pooled. Anything reachable from a returned
//     AllocationTable — the table itself, committed host sets and their
//     backing slabs, Choice slices handed to callers — is allocated fresh
//     per schedule. Pool reuse of output would corrupt live tables.
//  2. Every pooled buffer is either fully overwritten before it is read
//     (rank vectors, dense columns, bulk heap loads: plain grow) or
//     explicitly reset by growZero / growTimelines (placed markers back to
//     false, host-free and data-ready columns back to 0, span slabs back to
//     length zero). A read-before-write buffer acquired with
//     plain grow is a correctness bug, not just a leak.
//  3. Scratch is function-scoped: a holder Gets at entry and releases on
//     exit. Concurrent Batch workers, gather goroutines, and parallel
//     RankingCells workers each draw their own scratch from the pool, so
//     no synchronisation happens inside one.
//
// A pooled scratch retains references from its last use (assignment
// strings, parent host lists) until its next growZero or until the GC
// clears the pool's victim cache. That retention is bounded by one
// schedule's working set per pooled scratch and is the price of reuse.

import "sync"

// scratch is the arena. Fields group by consumer; consumers sharing a
// field (CPOP's pending counters and the simulator's, say) never coexist
// in one holder, because a holder runs exactly one of those paths.
type scratch struct {
	// Rank and priority state (HEFT, CPOP).
	rankU   []float64  // upward ranks / combined CPOP priority
	rankD   []float64  // downward ranks
	order   []int32    // rank-sorted task order
	pending []int32    // unfinished-parent counters (CPOP walk, executor)
	heap    []prioItem // ready-heap backing array (CPOP)
	cp      []bool     // critical-path membership (CPOP)

	// Placement state (the earliest-finish kernel: HEFT, CPOP, re-planners).
	lines       []timeline // per-host-column timelines; span slabs retained
	canon       []int32    // column -> canonical column per host name
	placed      []bool     // settled-or-committed marker per task (reset to false)
	finish      []float64  // estimated finish per task
	siteOf      []string   // assigned site per task
	hostSets    [][]string // assigned host set per task (refs dropped on reset)
	blockReady  []float64  // per-site-block data-ready memo
	parentHosts []string   // hosts of the current task's byte-carrying parents
	choiceBuf   []Choice   // candidate row scratch (parallel placement, CPOP pin)
	lazyPred    []float64  // a re-plan's lazy CostMatrix, V×H (rows gated by lazyFilled)
	lazyFilled  []bool     // its row-priced markers (reset to false)

	// Site-walk state (selectHostsDense).
	scored []scored  // candidate scratch for selectFor
	queued []float64 // column -> tasks this walk placed there, paper mode (reset to 0)
	freeAt []float64 // column -> estimated host-free time, availability mode (reset to 0)

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
	hostCol   map[string]int32 // host name -> dense column (cleared per use)
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

// growTimelines returns a timeline slice of length n with every span slab
// reset to length zero but its capacity retained: the per-host insertion
// lists reach a schedule's high-water mark once and are reused thereafter.
func growTimelines(buf []timeline, n int) []timeline {
	if cap(buf) < n {
		next := make([]timeline, n)
		copy(next, buf[:cap(buf)]) // keep the old span slabs' capacity
		buf = next
	} else {
		buf = buf[:n]
	}
	for i := range buf {
		buf[i].busy = buf[i].busy[:0]
	}
	return buf
}
