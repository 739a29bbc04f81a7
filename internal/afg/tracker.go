package afg

import "sort"

// Tracker maintains the "ready tasks" set of the Site Scheduler Algorithm
// (paper Fig 4, steps 6–7): a task is ready when it has no parents or all of
// its parents have been scheduled/completed. Its one non-test caller is the
// custom-priority branch of the scheduler's readyWalk; the default-priority
// walks count parents on the dense Index, and the Runtime System does not
// use it.
type Tracker struct {
	g       *Graph
	pending map[TaskID]int // remaining unfinished parents
	ready   map[TaskID]bool
	done    map[TaskID]bool
}

// NewTracker builds a tracker with all entry tasks initially ready.
func NewTracker(g *Graph) *Tracker {
	t := &Tracker{
		g:       g,
		pending: make(map[TaskID]int, g.Len()),
		ready:   make(map[TaskID]bool),
		done:    make(map[TaskID]bool),
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
func (t *Tracker) Ready() []TaskID {
	out := make([]TaskID, 0, len(t.ready))
	for id := range t.ready {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsReady reports whether id is currently ready.
func (t *Tracker) IsReady(id TaskID) bool { return t.ready[id] }

// IsDone reports whether id has completed.
func (t *Tracker) IsDone(id TaskID) bool { return t.done[id] }

// Complete marks id finished and returns the tasks that became ready as a
// result. Completing a task twice or a non-ready task returns nil.
func (t *Tracker) Complete(id TaskID) []TaskID {
	if t.done[id] || !t.ready[id] {
		return nil
	}
	delete(t.ready, id)
	t.done[id] = true
	var newly []TaskID
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
func (t *Tracker) Remaining() int { return t.g.Len() - len(t.done) }

// AllDone reports whether every task has completed.
func (t *Tracker) AllDone() bool { return len(t.done) == t.g.Len() }
