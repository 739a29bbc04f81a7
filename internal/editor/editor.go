// Package editor implements the Application Editor back end (paper §2.1).
//
// The paper's editor is a Java applet loaded into the user's browser after
// authentication; its essential function is producing a valid Application
// Flow Graph from menu-driven task-library selections, with per-task
// property panels. This package preserves that contract programmatically:
// a Builder with the editor's three operating modes (task, link, run), menu
// enumeration straight from the task registry, parameter-derived cost
// metadata, and the JSON wire format for storing/submitting graphs. An
// accompanying HTTP service (http.go) stands in for the web front end.
package editor

import (
	"errors"
	"fmt"

	"repro/internal/afg"
	"repro/internal/tasklib"
)

// Mode is the editor's operating mode: "the Application Editor can be in
// task mode, link mode, or run mode".
type Mode int

// Editor modes.
const (
	TaskMode Mode = iota // add/position tasks
	LinkMode             // connect tasks
	RunMode              // submit / store
)

func (m Mode) String() string {
	switch m {
	case TaskMode:
		return "task"
	case LinkMode:
		return "link"
	case RunMode:
		return "run"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Common errors.
var (
	ErrWrongMode = errors.New("editor: operation not allowed in current mode")
	ErrNoTask    = errors.New("editor: no such task in graph")
)

// Builder constructs an application flow graph the way the editor does.
// The zero Builder is not usable; call New.
type Builder struct {
	g    *afg.Graph
	reg  *tasklib.Registry
	mode Mode
}

// New starts a fresh application in task mode.
func New(appName string, reg *tasklib.Registry) *Builder {
	if reg == nil {
		reg = tasklib.Default()
	}
	return &Builder{g: afg.New(appName), reg: reg, mode: TaskMode}
}

// Mode returns the current editor mode.
func (b *Builder) Mode() Mode { return b.mode }

// SetMode switches the editor mode.
func (b *Builder) SetMode(m Mode) { b.mode = m }

// Libraries lists the task-library menu groups.
func (b *Builder) Libraries() []string { return b.reg.Libraries() }

// AddTask places a library task on the canvas (task mode only). The task's
// cost metadata is derived from the registry spec scaled by params — the
// numbers the scheduler will later read from the task-performance database.
func (b *Builder) AddTask(id afg.TaskID, function string, params map[string]string) error {
	if b.mode != TaskMode {
		return fmt.Errorf("%w: AddTask in %s mode", ErrWrongMode, b.mode)
	}
	spec, err := b.reg.Get(function)
	if err != nil {
		return err
	}
	scale := spec.Scale(params)
	return b.g.AddTask(&afg.Task{
		ID:          id,
		Function:    function,
		Params:      params,
		ComputeCost: spec.BaseTime * scale,
		MemReq:      int64(float64(spec.MemReq) * scale),
		OutputBytes: int64(float64(spec.OutputBytes) * scale),
	})
}

// SetProperties fills in the task-properties pop-up panel: computational
// mode, processor count, and machine-type preference (paper Fig 3, right).
func (b *Builder) SetProperties(id afg.TaskID, mode afg.Mode, processors int, machineType string) error {
	t := b.g.Task(id)
	if t == nil {
		return fmt.Errorf("%w: %q", ErrNoTask, id)
	}
	t.Mode = mode
	if processors >= 1 {
		t.Processors = processors
	}
	t.MachineType = machineType
	return nil
}

// Connect draws a link between two placed tasks (link mode only); the link
// volume defaults to the producer's output size.
func (b *Builder) Connect(from, to afg.TaskID) error {
	if b.mode != LinkMode {
		return fmt.Errorf("%w: Connect in %s mode", ErrWrongMode, b.mode)
	}
	p := b.g.Task(from)
	if p == nil {
		return fmt.Errorf("%w: %q", ErrNoTask, from)
	}
	return b.g.AddLink(afg.Link{From: from, To: to, Bytes: p.OutputBytes})
}

// Graph validates and returns the built application flow graph (run mode
// only — the editor's "submit the graph for execution" step).
func (b *Builder) Graph() (*afg.Graph, error) {
	if b.mode != RunMode {
		return nil, fmt.Errorf("%w: Graph in %s mode", ErrWrongMode, b.mode)
	}
	if err := b.g.Validate(); err != nil {
		return nil, err
	}
	return b.g, nil
}

// Store serialises the current graph ("the user may store the application
// flow graph for future use"), valid in any mode.
func (b *Builder) Store() ([]byte, error) {
	return b.g.Encode()
}

// Load restores a stored graph into a fresh builder in task mode.
func Load(data []byte, reg *tasklib.Registry) (*Builder, error) {
	g, err := afg.Decode(data)
	if err != nil {
		return nil, err
	}
	if reg == nil {
		reg = tasklib.Default()
	}
	return &Builder{g: g, reg: reg, mode: TaskMode}, nil
}
