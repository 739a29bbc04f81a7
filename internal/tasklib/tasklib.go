// Package tasklib implements the VDCE task libraries: the "well-defined
// library functions that relieve end-users of tedious task implementations
// and also support reusability" (paper §1). Tasks are grouped by
// functionality — matrix operations, Fourier analysis, and C3I (command,
// control, communication, and information) applications — exactly the
// grouping the Application Editor's menus expose (§2.1).
//
// Every task is a pure function from parent outputs + parameters to one
// output value, which is what lets the Runtime System ship task work to any
// machine and pipe results through Data Manager channels.
package tasklib

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// Library names (editor menu groups).
const (
	LibMatrix    = "matrix"
	LibFourier   = "fourier"
	LibC3I       = "c3i"
	LibSynthetic = "synthetic"
)

// Common errors.
var (
	ErrUnknownTask = errors.New("tasklib: unknown task function")
	ErrBadInput    = errors.New("tasklib: bad task input")
	ErrBadParam    = errors.New("tasklib: bad task parameter")
)

// Args carries a task invocation's inputs: the outputs of its parent tasks
// (in deterministic parent order) and the editor-specified parameters.
type Args struct {
	Params map[string]string
	Inputs []Value

	// Processors is the degree of parallelism requested through the task
	// properties panel; 1 for sequential mode.
	Processors int
}

// Param returns a named parameter or a default.
func (a Args) Param(key, def string) string {
	if v, ok := a.Params[key]; ok {
		return v
	}
	return def
}

// IntParam parses an integer parameter with a default.
func (a Args) IntParam(key string, def int) (int, error) {
	v, ok := a.Params[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("%w: %s=%q: %v", ErrBadParam, key, v, err)
	}
	return n, nil
}

// Func is an executable task implementation.
type Func func(ctx context.Context, args Args) (Value, error)

// Spec describes one library task: identity, cost metadata for the
// task-performance database, and the executable function.
type Spec struct {
	Name        string // fully qualified, e.g. "matrix.lu"
	Library     string // menu group
	Description string

	// BaseTime is the measured execution time on the base processor for a
	// unit-size input (seconds); the task-performance DB is seeded with it.
	BaseTime float64
	// MemReq is the memory requirement for a unit-size input (bytes).
	MemReq int64
	// OutputBytes is the output volume for a unit-size input (bytes).
	OutputBytes int64

	// CostScale maps editor parameters to a multiplier on BaseTime,
	// MemReq, and OutputBytes (e.g. an n³/base³ law for LU). nil = 1.
	CostScale func(params map[string]string) float64

	Fn Func
}

// Scale evaluates the spec's cost multiplier for the given parameters.
func (s Spec) Scale(params map[string]string) float64 {
	if s.CostScale == nil {
		return 1
	}
	f := s.CostScale(params)
	if f <= 0 {
		return 1
	}
	return f
}

// Registry is a concurrency-safe catalogue of task specs.
type Registry struct {
	mu    sync.RWMutex
	specs map[string]Spec // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{specs: make(map[string]Spec)}
}

// Register adds a spec; re-registering a name is an error.
func (r *Registry) Register(s Spec) error {
	if s.Name == "" || s.Fn == nil {
		return fmt.Errorf("tasklib: spec needs name and function")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.specs[s.Name]; ok {
		return fmt.Errorf("tasklib: duplicate task %q", s.Name)
	}
	r.specs[s.Name] = s
	return nil
}

// Get returns the spec for a fully qualified task name.
func (r *Registry) Get(name string) (Spec, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.specs[name]
	if !ok {
		return Spec{}, fmt.Errorf("%w: %q", ErrUnknownTask, name)
	}
	return s, nil
}

// Names returns every registered task name, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.specs))
	for n := range r.specs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Libraries returns the distinct library groups, sorted (the editor's menu).
func (r *Registry) Libraries() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	seen := map[string]bool{}
	for _, s := range r.specs {
		seen[s.Library] = true
	}
	out := make([]string, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// ByLibrary returns the task names in one library group, sorted.
func (r *Registry) ByLibrary(lib string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for n, s := range r.specs {
		if s.Library == lib {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Execute runs the named task.
func (r *Registry) Execute(ctx context.Context, name string, args Args) (Value, error) {
	s, err := r.Get(name)
	if err != nil {
		return Value{}, err
	}
	if args.Processors < 1 {
		args.Processors = 1
	}
	return s.Fn(ctx, args)
}

var defaultOnce sync.Once
var defaultRegistry *Registry

// Default returns the registry pre-populated with every built-in VDCE task
// library (matrix, fourier, c3i, synthetic).
func Default() *Registry {
	defaultOnce.Do(func() {
		defaultRegistry = NewRegistry()
		mustRegisterBuiltins(defaultRegistry)
	})
	return defaultRegistry
}
