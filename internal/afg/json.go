package afg

import (
	"encoding/json"
	"fmt"
)

// wireGraph is the JSON wire format for an application flow graph. It is the
// contract between the Application Editor (which serialises graphs for
// storage or submission, §2.1 "the user may store the application flow graph
// for future use") and the Site Manager.
type wireGraph struct {
	Name  string     `json:"name"`
	Tasks []wireTask `json:"tasks"`
	Links []Link     `json:"links"`
}

type wireTask struct {
	ID          TaskID            `json:"id"`
	Function    string            `json:"function"`
	Mode        string            `json:"mode,omitempty"`
	Processors  int               `json:"processors,omitempty"`
	MachineType string            `json:"machineType,omitempty"`
	ComputeCost float64           `json:"computeCost,omitempty"`
	MemReq      int64             `json:"memReq,omitempty"`
	OutputBytes int64             `json:"outputBytes,omitempty"`
	Params      map[string]string `json:"params,omitempty"`
}

// MarshalJSON encodes the graph deterministically (tasks and links sorted).
func (g *Graph) MarshalJSON() ([]byte, error) {
	w := wireGraph{Name: g.Name, Links: g.Links()}
	for _, id := range g.TaskIDs() {
		t := g.tasks[id]
		w.Tasks = append(w.Tasks, wireTask{
			ID:          t.ID,
			Function:    t.Function,
			Mode:        t.Mode.String(),
			Processors:  t.Processors,
			MachineType: t.MachineType,
			ComputeCost: t.ComputeCost,
			MemReq:      t.MemReq,
			OutputBytes: t.OutputBytes,
			Params:      t.Params,
		})
	}
	return json.Marshal(w)
}

// task converts one wire task, refusing a mode the editor cannot have
// written.
func (wt wireTask) task() (*Task, error) {
	mode := Sequential
	switch wt.Mode {
	case "", "sequential":
	case "parallel":
		mode = Parallel
	default:
		return nil, fmt.Errorf("afg: task %q: %w %q", wt.ID, errUnknownMode, wt.Mode)
	}
	return &Task{
		ID:          wt.ID,
		Function:    wt.Function,
		Mode:        mode,
		Processors:  wt.Processors,
		MachineType: wt.MachineType,
		ComputeCost: wt.ComputeCost,
		MemReq:      wt.MemReq,
		OutputBytes: wt.OutputBytes,
		Params:      wt.Params,
	}, nil
}

// UnmarshalJSON decodes a graph and validates it: the whole document goes
// through Build, so a submission is refused for exactly what the editor
// would have refused link by link, with acyclicity decided once for the
// graph. When a document has more than one defect the error names one of
// them, not necessarily the first in wire order: every task is checked
// before any link, and a cycle is reported only for a document with no
// other defect. On error g is unchanged.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var w wireGraph
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("afg: decode: %w", err)
	}
	tasks := make([]*Task, len(w.Tasks))
	for i, wt := range w.Tasks {
		t, err := wt.task()
		if err != nil {
			return err
		}
		tasks[i] = t
	}
	fresh, err := Build(w.Name, tasks, w.Links)
	if err != nil {
		return err
	}
	if fresh.Len() == 0 {
		return ErrEmpty
	}
	// Move the decoded state field-by-field: copying the whole struct
	// would copy the dense-view mutex. The Index Build validated with comes
	// along, replacing any g had cached.
	g.mu.Lock()
	g.Name = fresh.Name
	g.tasks = fresh.tasks
	g.succ = fresh.succ
	g.pred = fresh.pred
	g.gen++
	g.idx, g.idxGen = fresh.idx, g.gen
	g.mu.Unlock()
	return nil
}

// Encode renders the graph as indented JSON.
func (g *Graph) Encode() ([]byte, error) {
	return json.MarshalIndent(g, "", "  ")
}

// Decode parses a JSON application flow graph.
func Decode(data []byte) (*Graph, error) {
	g := New("")
	if err := g.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return g, nil
}
