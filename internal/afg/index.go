package afg

import (
	"sort"

	"repro/internal/minheap"
)

// Index is the dense, slice-addressed view of a Graph the scheduling hot
// path runs on: every task gets a stable integer index (ascending TaskID
// order, so index order and id order agree), adjacency is CSR-style —
// one contiguous arc array per direction plus offset tables — and the
// deterministic topological order is computed once and cached with the
// structure.
//
// Invariants:
//
//   - Indices are assigned by sorted TaskID, so sorting indices ascending
//     is exactly the deterministic id tie-break the map-keyed code used.
//   - Arc.Bytes is resolved at build time (the link's explicit size, or the
//     parent task's OutputBytes: "the input size of the application can be
//     used for the transfer size parameter"); task cost
//     metadata must not change between Index() and the end of scheduling.
//   - The Index is immutable once built. Graph mutations (AddTask/AddLink)
//     invalidate the cached Index; holding one across a mutation yields a
//     stale structural snapshot.
type Index struct {
	ids   []TaskID
	of    map[TaskID]int32
	tasks []*Task
	topo  []int32 // deterministic topological order (Kahn, min-id frontier)

	childStart  []int32 // CSR offsets into childArc, len V+1
	childArc    []Arc
	parentStart []int32 // CSR offsets into parentArc, len V+1
	parentArc   []Arc
}

// Arc is one adjacency entry of the dense view: the dense index of the
// neighbour task and the resolved transfer volume of the link.
type Arc struct {
	Peer  int32 // dense index of the child (childArc) or parent (parentArc)
	Bytes int64 // resolved transfer volume (link bytes or parent OutputBytes)
}

// Index returns the graph's cached dense view, rebuilding it after any
// structural mutation. It fails only on a cyclic graph, which only Build's
// own call can meet: that call is how bulk construction refuses a cycle,
// and AddLink refuses one link at a time.
func (g *Graph) Index() (*Index, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.idx != nil && g.idxGen == g.gen {
		return g.idx, nil
	}
	ix, err := buildIndex(g)
	if err != nil {
		return nil, err
	}
	g.idx, g.idxGen = ix, g.gen
	return ix, nil
}

func buildIndex(g *Graph) (*Index, error) {
	n := len(g.tasks)
	ix := &Index{
		ids:   make([]TaskID, 0, n),
		of:    make(map[TaskID]int32, n),
		tasks: make([]*Task, n),
	}
	for id := range g.tasks {
		ix.ids = append(ix.ids, id)
	}
	sort.Slice(ix.ids, func(i, j int) bool { return ix.ids[i] < ix.ids[j] })
	for i, id := range ix.ids {
		ix.of[id] = int32(i)
		ix.tasks[i] = g.tasks[id]
	}

	resolve := func(l Link) int64 {
		if l.Bytes > 0 {
			return l.Bytes
		}
		return g.tasks[l.From].OutputBytes
	}
	ix.childStart = make([]int32, n+1)
	ix.parentStart = make([]int32, n+1)
	for i, id := range ix.ids {
		ix.childStart[i+1] = ix.childStart[i] + int32(len(g.succ[id]))
		ix.parentStart[i+1] = ix.parentStart[i] + int32(len(g.pred[id]))
	}
	ix.childArc = make([]Arc, ix.childStart[n])
	ix.parentArc = make([]Arc, ix.parentStart[n])
	for i, id := range ix.ids {
		for k, l := range g.succ[id] {
			ix.childArc[int(ix.childStart[i])+k] = Arc{Peer: ix.of[l.To], Bytes: resolve(l)}
		}
		// pred is kept in port order — the arc order mirrors Parents(id).
		for k, l := range g.pred[id] {
			ix.parentArc[int(ix.parentStart[i])+k] = Arc{Peer: ix.of[l.From], Bytes: resolve(l)}
		}
	}

	// Deterministic Kahn: the frontier is a min-heap on dense index, which
	// equals min TaskID — the same order TopoOrder produces.
	indeg := make([]int32, n)
	for i := range indeg {
		indeg[i] = ix.parentStart[i+1] - ix.parentStart[i]
	}
	var frontier minheap.Heap[minIdx]
	for i := n - 1; i >= 0; i-- {
		if indeg[i] == 0 {
			frontier = append(frontier, minIdx(i))
		}
	}
	frontier.Init()
	ix.topo = make([]int32, 0, n)
	for len(frontier) > 0 {
		i := int32(frontier.Pop())
		ix.topo = append(ix.topo, i)
		for _, a := range ix.Children(int(i)) {
			indeg[a.Peer]--
			if indeg[a.Peer] == 0 {
				frontier.Push(minIdx(a.Peer))
			}
		}
	}
	if len(ix.topo) != n {
		return nil, ErrCycle
	}
	return ix, nil
}

// Len returns the task count.
func (ix *Index) Len() int { return len(ix.ids) }

// ID returns the TaskID at dense index i.
func (ix *Index) ID(i int) TaskID { return ix.ids[i] }

// IDs returns the dense index → TaskID table (ascending id order). The
// caller must not mutate it.
func (ix *Index) IDs() []TaskID { return ix.ids }

// Of returns the dense index of id, or -1 when the task is unknown.
func (ix *Index) Of(id TaskID) int {
	if i, ok := ix.of[id]; ok {
		return int(i)
	}
	return -1
}

// Task returns the task at dense index i.
func (ix *Index) Task(i int) *Task { return ix.tasks[i] }

// Topo returns the cached deterministic topological order as dense
// indices. The caller must not mutate it.
func (ix *Index) Topo() []int32 { return ix.topo }

// Children returns the outgoing arcs of dense index i, in link-insertion
// order (the order Graph.Children reports).
func (ix *Index) Children(i int) []Arc {
	return ix.childArc[ix.childStart[i]:ix.childStart[i+1]]
}

// Parents returns the incoming arcs of dense index i, in input-port order
// (the order Graph.Parents reports).
func (ix *Index) Parents(i int) []Arc {
	return ix.parentArc[ix.parentStart[i]:ix.parentStart[i+1]]
}

// NumParents returns the in-degree of dense index i.
func (ix *Index) NumParents(i int) int {
	return int(ix.parentStart[i+1] - ix.parentStart[i])
}

// Levels computes the list-scheduling priority of every task (the same
// quantity as Graph.Levels) as a dense slice: levels[i] is the largest sum
// of computation costs on any path from task i to an exit, inclusive.
// Recomputed per call — it reads the current ComputeCost values.
func (ix *Index) Levels() []float64 {
	levels := make([]float64, len(ix.ids))
	for k := len(ix.topo) - 1; k >= 0; k-- {
		i := ix.topo[k]
		var best float64
		for _, a := range ix.Children(int(i)) {
			if l := levels[a.Peer]; l > best {
				best = l
			}
		}
		levels[i] = best + ix.tasks[i].ComputeCost
	}
	return levels
}

// minIdx is a dense index ordered ascending for the frontier heap.
type minIdx int32

// LessThan implements minheap.Ordered.
func (a minIdx) LessThan(b minIdx) bool { return a < b }
