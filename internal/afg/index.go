package afg

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/minheap"
)

// Index is the dense, slice-addressed form of a Graph, and the only one it
// has: every task gets a stable integer index, adjacency is CSR-style — one
// contiguous arc array per direction, the links behind them, and offset
// tables — and the deterministic topological order is computed once with
// the structure. Its invariants:
//
//   - Indices are assigned by sorted TaskID, so sorting indices ascending
//     is exactly the deterministic id tie-break. The Graph's sorted views
//     (TaskIDs, Entries, Exits, Links, TotalWork, Encode) read this order.
//   - Arc.Bytes is resolved when the Index is built (the link's explicit
//     size, or the parent task's OutputBytes: "the input size of the
//     application can be used for the transfer size parameter"); task cost
//     metadata must not change between building the graph and the end of
//     scheduling.
//   - Child links keep each source's insertion order, parent links are in
//     port order; Graph.Children and Graph.Parents are cap-limited windows
//     on the two link arrays.
//   - The Index is immutable once built. AddTask and AddLink give the graph
//     a new one; an Index held across them is the graph as it was before.
type Index struct {
	ids   []TaskID
	of    map[TaskID]int32
	tasks []*Task
	topo  []int32 // deterministic topological order (Kahn, min-id frontier)

	childStart  []int32 // CSR offsets into childArc and childLink, len V+1
	childArc    []Arc
	childLink   []Link  // the link behind each child arc
	parentStart []int32 // CSR offsets into parentArc and parentLink, len V+1
	parentArc   []Arc
	parentLink  []Link // the link behind each parent arc
}

// Arc is one adjacency entry of the dense view: the dense index of the
// neighbour task and the resolved transfer volume of the link.
type Arc struct {
	Peer  int32 // dense index of the child (childArc) or parent (parentArc)
	Bytes int64 // resolved transfer volume (link bytes or parent OutputBytes)
}

// Index returns the graph's dense view. The error is nil on every graph:
// each way of building one refuses a cycle.
func (g *Graph) Index() (*Index, error) { return g.ix, nil }

// buildDense builds the Index of a task and link list (Build's, AddTask's,
// AddLink's) in the two steps every Index is made in, newIndex and link, or
// refuses the graph as refusal names its defect.
func buildDense(tasks []*Task, links []Link) (*Index, error) {
	if ix := newIndex(slices.Clone(tasks)); ix != nil {
		if ends := ix.resolve(links); ends != nil && ix.link(links, ends, false) {
			return ix, nil
		}
	}
	return nil, refusal(tasks, links)
}

// resolve returns each link's dense (from, to), or nil for an unknown end.
func (ix *Index) resolve(links []Link) []int32 {
	ends := make([]int32, 2*len(links))
	for k, l := range links {
		from, okFrom := ix.of[l.From]
		to, okTo := ix.of[l.To]
		if !okFrom || !okTo {
			return nil
		}
		ends[2*k], ends[2*k+1] = from, to
	}
	return ends
}

// newIndex indexes tasks by id, sorting the slice it is handed and raising
// Processors to at least one; nil for an empty or repeated id.
func newIndex(tasks []*Task) *Index {
	n := len(tasks)
	ix := &Index{ids: make([]TaskID, n), of: make(map[TaskID]int32, n), tasks: tasks}
	slices.SortFunc(tasks, byID)
	for i, t := range tasks {
		if t.ID == "" || i > 0 && t.ID == ix.ids[i-1] {
			return nil
		}
		if t.Processors < 1 {
			t.Processors = 1
		}
		ix.ids[i], ix.of[t.ID] = t.ID, int32(i)
	}
	return ix
}

// link fills both CSR directions from one pass over the links, whose dense
// (from, to) pairs ends holds, the parent links in port order, and the
// topological order. own lets it keep links, if in child order as Encode
// writes them, as the child links. It reports false for a self link, a
// repeated (From, To) pair, two links on one input port or a cycle.
func (ix *Index) link(links []Link, ends []int32, own bool) bool {
	n := len(ix.ids)
	ix.childStart, ix.parentStart = make([]int32, n+1), make([]int32, n+1)
	for k := range links {
		from, to := ends[2*k], ends[2*k+1]
		if from == to {
			return false
		}
		own = own && (k == 0 || from >= ends[2*k-2])
		ix.childStart[from+1]++
		ix.parentStart[to+1]++
	}
	for i := 0; i < n; i++ {
		ix.childStart[i+1] += ix.childStart[i]
		ix.parentStart[i+1] += ix.parentStart[i]
	}
	bytes := func(k int32) int64 { // the transfer rule (see Arc)
		if b := links[k].Bytes; b > 0 {
			return b
		}
		return ix.tasks[ends[2*k]].OutputBytes
	}
	ix.childArc, ix.childLink = make([]Arc, len(links)), slices.Clip(links)
	if !own {
		ix.childLink = make([]Link, len(links))
	}
	ix.parentArc, ix.parentLink = make([]Arc, len(links)), make([]Link, len(links))
	// One pass in wire order fills each child segment and lists each
	// parent segment's link numbers, which are put in port order below.
	inLinks := make([]int32, len(links))
	// Fill cursors: each child segment's, then each parent segment's.
	next := append(append(make([]int32, 0, 2*n), ix.childStart[:n]...), ix.parentStart[:n]...)
	for k, l := range links {
		from, to := ends[2*k], ends[2*k+1]
		c, p := next[from], next[n+int(to)]
		next[from], next[n+int(to)] = c+1, p+1
		ix.childArc[c], ix.childLink[c] = Arc{Peer: to, Bytes: bytes(int32(k))}, l
		inLinks[p] = int32(k)
	}

	// A repeated (From, To) pair: mark each child with its parent's stamp.
	mark := next[:n]
	clear(mark)
	for i := 0; i < n; i++ {
		for _, a := range ix.Children(i) {
			if mark[a.Peer] == int32(i)+1 {
				return false
			}
			mark[a.Peer] = int32(i) + 1
		}
	}
	// Two links on one input port sit side by side once a segment is in
	// port order.
	byPort := func(a, b int32) int { return cmp.Compare(links[a].Port, links[b].Port) }
	for i := 0; i < n; i++ {
		s := ix.parentStart[i]
		in := inLinks[s:ix.parentStart[i+1]]
		slices.SortFunc(in, byPort)
		for q, k := range in {
			if q > 0 && links[in[q-1]].Port == links[k].Port {
				return false
			}
			ix.parentArc[s+int32(q)], ix.parentLink[s+int32(q)] = Arc{Peer: ends[2*k], Bytes: bytes(k)}, links[k]
		}
	}

	// Deterministic Kahn: the frontier is a min-heap on dense index, which
	// equals min TaskID — the same order TopoOrder produces.
	indeg := next[:n]
	var frontier minheap.Heap[minIdx]
	for i := range indeg {
		if indeg[i] = ix.parentStart[i+1] - ix.parentStart[i]; indeg[i] == 0 {
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
	return len(ix.topo) == n
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

// parentLinks returns the links into dense index i, in port order, as a
// cap-limited window.
func (ix *Index) parentLinks(i int) []Link {
	s, e := ix.parentStart[i], ix.parentStart[i+1]
	return ix.parentLink[s:e:e]
}

// reaches reports whether dense index dst is reachable from src by links.
func (ix *Index) reaches(src, dst int) bool {
	seen := make([]bool, ix.Len())
	stack := []int32{int32(src)}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range ix.Children(int(i)) {
			if int(a.Peer) == dst {
				return true
			}
			if !seen[a.Peer] {
				seen[a.Peer] = true
				stack = append(stack, a.Peer)
			}
		}
	}
	return false
}

// NumParents returns the in-degree of dense index i.
func (ix *Index) NumParents(i int) int {
	return int(ix.parentStart[i+1] - ix.parentStart[i])
}

// unlinked returns, in dense order, the tasks with no parents, or with
// parents false no children.
func (ix *Index) unlinked(parents bool) []TaskID {
	start := ix.childStart
	if parents {
		start = ix.parentStart
	}
	var out []TaskID
	for i, id := range ix.ids {
		if start[i] == start[i+1] {
			out = append(out, id)
		}
	}
	return out
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

func byID(a, b *Task) int { return strings.Compare(string(a.ID), string(b.ID)) }

// minIdx is a dense index ordered ascending for the frontier heap.
type minIdx int32

// LessThan implements minheap.Ordered.
func (a minIdx) LessThan(b minIdx) bool { return a < b }
