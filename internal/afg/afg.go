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
// # One representation, one construction path
//
// A Graph is its name and its Index, the dense view every reader — the
// scheduler, the runtime, the encoder, the Graph's own accessors — runs on.
// An Index is made in two steps, newIndex (the tasks by id) and link (the
// links, resolved to dense indices, and one Kahn pass for acyclicity), which
// check the whole graph in O(V+E). buildDense takes both for Build, whose
// Index the dagen and workload generators and the experiment harness's
// graph union keep; Decode takes them around reading the links, so each
// endpoint is resolved as it is read, into storage the Index keeps.
// Build honours ports as written and is all-or-nothing: on a defect refusal
// names the first one in wire order, tasks before links, with one map probe
// per rule, and a cycle only when nothing else is wrong.
//
// The Application Editor draws one link at a time and must be told at that
// gesture why it is refused: AddTask and AddLink check the one new task or
// link, then rebuild the Index through buildDense, O(V+E) a call. AddLink
// names a link that closes a cycle before any other defect, and picks the
// next free input port when the caller names none.
package afg

import (
	"errors"
	"fmt"
	"maps"
	"slices"
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
	c.Params = maps.Clone(t.Params)
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

// Graph is an application flow graph: its name and its Index. A graph is
// made by New, Build or Decode; every accessor reads the Index, which
// AddTask and AddLink replace and nothing else changes, so a graph no one
// mutates is safe for concurrent readers.
type Graph struct {
	Name string
	ix   *Index
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
	g, _ := Build(name, nil, nil) // no task, no defect
	return g
}

// Build constructs a graph from a complete task and link list in one pass
// of buildDense, whose Index the graph keeps. It is all-or-nothing: a
// defect comes back as the typed error refusal names and no graph, each
// link's Port is honoured exactly, and a cycle is ErrCycle. The graph owns
// the tasks afterwards, as with AddTask. A graph of no tasks builds;
// Validate is what refuses it.
func Build(name string, tasks []*Task, links []Link) (*Graph, error) {
	ix, err := buildDense(tasks, links)
	if err != nil {
		return nil, err
	}
	return &Graph{Name: name, ix: ix}, nil
}

// refusal names the defect buildDense found: the first in wire order, tasks
// then links, each link tested for a self link, an unknown source, an
// unknown destination, a repeated (From, To) pair and a taken input port,
// in that order, and a cycle when none of those is there. Each rule is one
// map probe, so naming costs O(V+E).
func refusal(tasks []*Task, links []Link) error {
	ids := make(map[TaskID]bool, len(tasks))
	for _, t := range tasks {
		switch {
		case t.ID == "":
			return errEmptyID
		case ids[t.ID]:
			return fmt.Errorf("%w: %q", ErrDuplicateTask, t.ID)
		}
		ids[t.ID] = true
	}
	type port struct {
		to TaskID
		at int
	}
	pairs := make(map[[2]TaskID]bool, len(links))
	ports := make(map[port]TaskID, len(links))
	for _, l := range links {
		switch {
		case l.From == l.To:
			return fmt.Errorf("%w: %q", ErrSelfLink, l.From)
		case !ids[l.From]:
			return fmt.Errorf("%w: %q", ErrUnknownTask, l.From)
		case !ids[l.To]:
			return fmt.Errorf("%w: %q", ErrUnknownTask, l.To)
		case pairs[[2]TaskID{l.From, l.To}]:
			return fmt.Errorf("%w: %s -> %s", ErrDuplicateLink, l.From, l.To)
		}
		if from, taken := ports[port{l.To, l.Port}]; taken {
			return fmt.Errorf("%w: port %d on %s already connected (from %s)",
				ErrPortConflict, l.Port, l.To, from)
		}
		pairs[[2]TaskID{l.From, l.To}] = true
		ports[port{l.To, l.Port}] = l.From
	}
	return ErrCycle
}

// AddTask inserts a task node. The task's ID must be unique.
func (g *Graph) AddTask(t *Task) error {
	return g.rebuild(append(slices.Clip(g.ix.tasks), t), g.ix.childLink)
}

// AddLink inserts a directed link. Both endpoints must already exist and
// the link must not introduce a cycle, which is named before any other
// defect. A zero Port on a task that already has parents is auto-assigned
// the next free port.
func (g *Graph) AddLink(l Link) error {
	ix := g.ix
	from, to := ix.Of(l.From), ix.Of(l.To)
	if to >= 0 {
		// Parents are in port order, so the last holds the highest port;
		// explicit negative ports never pull the next one below 0.
		if in := ix.parentLinks(to); l.Port == 0 && len(in) > 0 {
			if next := in[len(in)-1].Port + 1; next > 0 {
				l.Port = next
			}
		}
		if from >= 0 && from != to && ix.reaches(to, from) {
			return fmt.Errorf("%w: adding %s -> %s", ErrCycle, l.From, l.To)
		}
	}
	return g.rebuild(ix.tasks, append(slices.Clip(ix.childLink), l))
}

// rebuild replaces the graph's Index with one built from tasks and links,
// or leaves it and returns buildDense's refusal.
func (g *Graph) rebuild(tasks []*Task, links []Link) error {
	ix, err := buildDense(tasks, links)
	if err != nil {
		return err
	}
	g.ix = ix
	return nil
}

// Task returns the task with the given id, or nil if absent.
func (g *Graph) Task(id TaskID) *Task {
	if i := g.ix.Of(id); i >= 0 {
		return g.ix.tasks[i]
	}
	return nil
}

// Len returns the number of tasks.
func (g *Graph) Len() int { return g.ix.Len() }

// TaskIDs returns all task ids in deterministic (sorted) order: a copy of
// the Index's.
func (g *Graph) TaskIDs() []TaskID { return slices.Clone(g.ix.ids) }

// Links returns every link in deterministic order: by source id, then in
// each source's insertion order.
func (g *Graph) Links() []Link { return append([]Link(nil), g.ix.childLink...) }

// Parents returns the incoming links of id in input-port order, as a
// cap-limited window on the Index: an append copies it.
func (g *Graph) Parents(id TaskID) []Link {
	if i := g.ix.Of(id); i >= 0 {
		return g.ix.parentLinks(i)
	}
	return nil
}

// Children returns the outgoing links of id in insertion order, as a
// cap-limited window on the Index.
func (g *Graph) Children(id TaskID) []Link {
	if i := g.ix.Of(id); i >= 0 {
		s, e := g.ix.childStart[i], g.ix.childStart[i+1]
		return g.ix.childLink[s:e:e]
	}
	return nil
}

// Entries returns the tasks with no parents, in sorted order. The paper
// calls these "entry tasks"; the Site Scheduler treats them specially.
func (g *Graph) Entries() []TaskID { return g.ix.unlinked(true) }

// Exits returns the tasks with no children ("exit nodes", §2.2).
func (g *Graph) Exits() []TaskID { return g.ix.unlinked(false) }

// Validate checks structural invariants: non-empty and acyclic. Every way
// of constructing a graph refuses a cycle already, so only ErrEmpty can
// come back.
func (g *Graph) Validate() error {
	if g.Len() == 0 {
		return ErrEmpty
	}
	return nil
}

// TopoOrder returns a deterministic topological ordering (ascending-id
// frontier), the Index's as TaskIDs for map-keyed callers. The error is nil
// on every graph: each way of building one refuses a cycle.
func (g *Graph) TopoOrder() ([]TaskID, error) {
	order := make([]TaskID, len(g.ix.topo))
	for k, i := range g.ix.topo {
		order[k] = g.ix.ids[i]
	}
	return order, nil
}

// Levels computes the list-scheduling priority of every task (paper §2.2):
// the level of a node is the largest sum of computation costs along any path
// from the node to an exit node, inclusive of the node's own cost. Higher
// level ⇒ higher scheduling priority.
func (g *Graph) Levels() (map[TaskID]float64, error) {
	dense := g.ix.Levels()
	levels := make(map[TaskID]float64, len(dense))
	for i, v := range dense {
		levels[g.ix.ids[i]] = v
	}
	return levels, nil
}

// CriticalPathLength returns the largest level value — the lower bound on
// schedule length ignoring communication.
func (g *Graph) CriticalPathLength() (float64, error) {
	return slices.Max(append(g.ix.Levels(), 0)), nil
}

// TotalWork returns the sum of all task computation costs. Summation runs
// in sorted task-id order: float addition is not bitwise-commutative, so a
// map-order walk would return different low bits run to run — observable
// wherever the value is serialized (the editor's /validate response).
func (g *Graph) TotalWork() float64 {
	var sum float64
	for _, t := range g.ix.tasks {
		sum += t.ComputeCost
	}
	return sum
}
