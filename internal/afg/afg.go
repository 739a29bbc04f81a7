// Package afg implements the Application Flow Graph (AFG), the dataflow
// program representation produced by the VDCE Application Editor and
// consumed by the Application Scheduler and Runtime System.
//
// An AFG is a directed acyclic graph G = (T, L): nodes are tasks selected
// from the VDCE task libraries and a directed link (i, j) means task i must
// complete before task j starts (paper §2.1). Each task carries the
// properties the editor's pop-up panel exposes — computational mode
// (sequential/parallel), machine-type preference, and processor count — plus
// the cost metadata the scheduler reads from the task-performance database.
//
// # Bulk vs incremental construction
//
// A graph is built one of two ways, and both end in the same state under
// the same rules (insertTask and insertLink hold the one copy of them).
//
// Incremental — New, then AddTask and AddLink/AddLinkExact — is the
// Application Editor's way: a user draws one link at a time and must be
// told at that gesture why it is refused. Each call leaves the graph valid
// or unchanged, and AddLink proves acyclicity with one reachability walk
// from the link's head, O(V+E) per link. AddLink also picks the next free
// input port when the caller names none.
//
// Bulk — Build — is for a caller that already holds the whole graph:
// Decode/UnmarshalJSON, the dagen and workload generators, the experiment
// harness's graph union. The same per-task and per-link refusals apply and
// ports are honoured exactly as written, but acyclicity is decided once,
// by the Kahn pass that builds the dense Index — O(V+E) for the graph, not
// per link — and that Index stays cached on the result. Build is
// all-or-nothing: on any refusal there is no graph. Since the cycle check
// runs last, a cyclic input with another defect reports the other defect.
package afg

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// TaskID identifies a task within one application flow graph.
type TaskID string

// Mode is the computational mode of a task (editor task-properties panel).
type Mode int

// Computational modes.
const (
	Sequential Mode = iota
	Parallel
)

func (m Mode) String() string {
	switch m {
	case Sequential:
		return "sequential"
	case Parallel:
		return "parallel"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Task is one node of an application flow graph.
type Task struct {
	ID       TaskID // unique within the graph
	Function string // task-library function, e.g. "matrix.lu"

	// Editor-specified preferences (paper Fig 3 right panel).
	Mode        Mode   // sequential or parallel execution
	Processors  int    // processor count for parallel mode (>=1)
	MachineType string // preferred architecture type; "" = any

	// Scheduler-visible cost metadata (task-performance database).
	ComputeCost float64 // execution time on the base processor, unit input
	MemReq      int64   // bytes of memory required
	OutputBytes int64   // bytes produced for each successor

	// Params are opaque task arguments (e.g. matrix size) passed to the
	// task-library function at execution time.
	Params map[string]string
}

// Clone returns a deep copy of t.
func (t *Task) Clone() *Task {
	c := *t
	if t.Params != nil {
		c.Params = make(map[string]string, len(t.Params))
		for k, v := range t.Params {
			c.Params[k] = v
		}
	}
	return &c
}

// Link is a directed precedence/communication edge between two tasks.
//
// Port is the input's logical port index on the destination task (the
// paper's editor marks "logical ports" on each task icon): a task's inputs
// are presented to its function in ascending Port order, which makes input
// order explicit and stable across serialisation. Port 0 on a task that
// already has parents means "auto-assign the next free port".
type Link struct {
	From, To TaskID
	Bytes    int64 // data volume transferred From → To
	Port     int   // input port index on To
}

// Graph is an application flow graph.
type Graph struct {
	Name  string
	tasks map[TaskID]*Task
	succ  map[TaskID][]Link // outgoing links, keyed by From
	pred  map[TaskID][]Link // incoming links, keyed by To

	// Dense-view cache (see Index): structural mutations bump gen, so a
	// cached Index is valid exactly while idxGen == gen. The mutex makes
	// Index() safe from the concurrent readers of a frozen graph (batch
	// scheduling fans selectors out over one graph); mutation itself is
	// single-writer, as before.
	mu     sync.Mutex
	gen    uint64
	idx    *Index
	idxGen uint64
}

// Common graph errors.
var (
	ErrDuplicateTask = errors.New("afg: duplicate task id")
	ErrUnknownTask   = errors.New("afg: unknown task id")
	ErrSelfLink      = errors.New("afg: link from a task to itself")
	ErrDuplicateLink = errors.New("afg: duplicate link")
	ErrCycle         = errors.New("afg: graph contains a cycle")
	ErrEmpty         = errors.New("afg: graph has no tasks")
	ErrPortConflict  = errors.New("afg: input port already connected")

	errEmptyID     = errors.New("afg: empty task id")
	errUnknownMode = errors.New("unknown mode") // wrapped with the task it was found on
)

// New returns an empty application flow graph.
func New(name string) *Graph {
	return newSized(name, 0)
}

// newSized sizes the id-keyed maps up front, so building a large graph
// skips the incremental rehash growth.
func newSized(name string, tasks int) *Graph {
	return &Graph{
		Name:  name,
		tasks: make(map[TaskID]*Task, tasks),
		succ:  make(map[TaskID][]Link, tasks),
		pred:  make(map[TaskID][]Link, tasks),
	}
}

// Build constructs a graph from a complete task and link list in one pass —
// the bulk counterpart of New + AddTask + AddLinkExact for callers that
// already hold the whole graph (deserialisation, generators, merges). It is
// all-or-nothing: every refusal AddTask and AddLinkExact can give comes back
// as the same typed error and no graph, each link's Port is honoured
// exactly, and acyclicity is decided once for the whole graph (ErrCycle) by
// the Kahn pass that builds the dense Index, which the returned graph keeps
// cached. The graph owns the tasks afterwards, as with AddTask. A graph of
// no tasks builds; Validate is what refuses it.
func Build(name string, tasks []*Task, links []Link) (*Graph, error) {
	g := newSized(name, len(tasks))
	for _, t := range tasks {
		if err := g.insertTask(t); err != nil {
			return nil, err
		}
	}
	for _, l := range links {
		if err := g.insertLink(l, false); err != nil {
			return nil, err
		}
	}
	if _, err := g.Index(); err != nil {
		return nil, err
	}
	return g, nil
}

// AddTask inserts a task node. The task's ID must be unique.
func (g *Graph) AddTask(t *Task) error {
	if err := g.insertTask(t); err != nil {
		return err
	}
	g.mutated()
	return nil
}

// AddLink inserts a directed link. Both endpoints must already exist and
// the link must not introduce a cycle. A zero Port on a task that already
// has parents is auto-assigned the next free port; use AddLinkExact to
// force port 0.
func (g *Graph) AddLink(l Link) error {
	return g.addLink(l, true)
}

// AddLinkExact inserts a link honouring l.Port exactly (editors that manage
// ports themselves).
func (g *Graph) AddLinkExact(l Link) error {
	return g.addLink(l, false)
}

// addLink is the incremental path: the graph is acyclic before the call, so
// one reachability walk proves it stays so and the editor gets its refusal
// at the offending link. A self link is left for insertLink to name.
func (g *Graph) addLink(l Link, autoPort bool) error {
	if l.From != l.To && g.reachable(l.To, l.From) {
		return fmt.Errorf("%w: adding %s -> %s", ErrCycle, l.From, l.To)
	}
	if err := g.insertLink(l, autoPort); err != nil {
		return err
	}
	g.mutated()
	return nil
}

// mutated invalidates the cached Index after a structural change.
func (g *Graph) mutated() {
	g.mu.Lock()
	g.gen++
	g.mu.Unlock()
}

// insertTask is the one copy of the per-task rules, shared by AddTask and
// Build.
func (g *Graph) insertTask(t *Task) error {
	if t.ID == "" {
		return errEmptyID
	}
	if _, ok := g.tasks[t.ID]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateTask, t.ID)
	}
	if t.Processors < 1 {
		t.Processors = 1
	}
	g.tasks[t.ID] = t
	return nil
}

// insertLink is the one copy of the per-link rules, shared by AddLink,
// AddLinkExact and Build: everything a link can be refused for except
// closing a cycle, which each caller decides its own way.
func (g *Graph) insertLink(l Link, autoPort bool) error {
	if l.From == l.To {
		return fmt.Errorf("%w: %q", ErrSelfLink, l.From)
	}
	if _, ok := g.tasks[l.From]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTask, l.From)
	}
	if _, ok := g.tasks[l.To]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTask, l.To)
	}
	out := g.succ[l.From]
	for _, e := range out {
		if e.To == l.To {
			return fmt.Errorf("%w: %s -> %s", ErrDuplicateLink, l.From, l.To)
		}
	}
	// Parents are kept in port order (a task's inputs arrive in it), so the
	// last one holds the highest port and one scan back from the end finds
	// where l belongs — at once for the usual ascending arrival.
	in := g.pred[l.To]
	if autoPort && l.Port == 0 && len(in) > 0 {
		// Next free port; explicit negative ports never pull it below 0.
		if next := in[len(in)-1].Port + 1; next > 0 {
			l.Port = next
		}
	}
	at := len(in)
	for at > 0 && in[at-1].Port > l.Port {
		at--
	}
	if at > 0 && in[at-1].Port == l.Port {
		return fmt.Errorf("%w: port %d on %s already connected (from %s)",
			ErrPortConflict, l.Port, l.To, in[at-1].From)
	}
	g.succ[l.From] = append(out, l)
	in = append(in, Link{})
	copy(in[at+1:], in[at:])
	in[at] = l
	g.pred[l.To] = in
	return nil
}

// reachable reports whether dst is reachable from src by directed links.
func (g *Graph) reachable(src, dst TaskID) bool {
	if src == dst {
		return true
	}
	seen := map[TaskID]bool{src: true}
	stack := []TaskID{src}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.succ[cur] {
			if e.To == dst {
				return true
			}
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return false
}

// Task returns the task with the given id, or nil if absent.
func (g *Graph) Task(id TaskID) *Task { return g.tasks[id] }

// Len returns the number of tasks.
func (g *Graph) Len() int { return len(g.tasks) }

// TaskIDs returns all task ids in deterministic (sorted) order.
func (g *Graph) TaskIDs() []TaskID {
	ids := make([]TaskID, 0, len(g.tasks))
	for id := range g.tasks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Links returns every link in deterministic order.
func (g *Graph) Links() []Link {
	var out []Link
	for _, id := range g.TaskIDs() {
		out = append(out, g.succ[id]...)
	}
	return out
}

// Parents returns the incoming links of id.
func (g *Graph) Parents(id TaskID) []Link { return g.pred[id] }

// Children returns the outgoing links of id.
func (g *Graph) Children(id TaskID) []Link { return g.succ[id] }

// Entries returns the tasks with no parents, in sorted order. The paper
// calls these "entry tasks"; the Site Scheduler treats them specially.
func (g *Graph) Entries() []TaskID {
	var out []TaskID
	for _, id := range g.TaskIDs() {
		if len(g.pred[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// Exits returns the tasks with no children ("exit nodes", §2.2).
func (g *Graph) Exits() []TaskID {
	var out []TaskID
	for _, id := range g.TaskIDs() {
		if len(g.succ[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// Validate checks structural invariants: non-empty and acyclic. Both ways
// of constructing a graph refuse cycles already, so on a graph built through
// this package's API only ErrEmpty can come back.
func (g *Graph) Validate() error {
	if len(g.tasks) == 0 {
		return ErrEmpty
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns a deterministic topological ordering (ascending-id
// frontier) or ErrCycle. The order itself comes from the cached dense
// Index; this wrapper materialises it as TaskIDs for map-keyed callers.
func (g *Graph) TopoOrder() ([]TaskID, error) {
	ix, err := g.Index()
	if err != nil {
		return nil, err
	}
	order := make([]TaskID, len(ix.topo))
	for k, i := range ix.topo {
		order[k] = ix.ids[i]
	}
	return order, nil
}

// Levels computes the list-scheduling priority of every task (paper §2.2):
// the level of a node is the largest sum of computation costs along any path
// from the node to an exit node, inclusive of the node's own cost. Higher
// level ⇒ higher scheduling priority.
func (g *Graph) Levels() (map[TaskID]float64, error) {
	ix, err := g.Index()
	if err != nil {
		return nil, err
	}
	dense := ix.Levels()
	levels := make(map[TaskID]float64, len(dense))
	for i, v := range dense {
		levels[ix.ids[i]] = v
	}
	return levels, nil
}

// CriticalPathLength returns the largest level value — the lower bound on
// schedule length ignoring communication.
func (g *Graph) CriticalPathLength() (float64, error) {
	levels, err := g.Levels()
	if err != nil {
		return 0, err
	}
	var max float64
	//vdce:ignore detflow max over map values is order-independent: float comparison, unlike float addition, commutes
	for _, l := range levels {
		if l > max {
			max = l
		}
	}
	return max, nil
}

// TotalWork returns the sum of all task computation costs. Summation runs
// in sorted task-id order: float addition is not bitwise-commutative, so a
// map-order walk would return different low bits run to run — observable
// wherever the value is serialized (the editor's /validate response).
func (g *Graph) TotalWork() float64 {
	var sum float64
	for _, id := range g.TaskIDs() {
		sum += g.tasks[id].ComputeCost
	}
	return sum
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.Name)
	for id, t := range g.tasks {
		c.tasks[id] = t.Clone()
	}
	for id, links := range g.succ {
		c.succ[id] = append([]Link(nil), links...)
	}
	for id, links := range g.pred {
		c.pred[id] = append([]Link(nil), links...)
	}
	return c
}
