package scheduler

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// The policy registry: every scheduling heuristic registers itself by name
// so callers — site.Manager, vdce-server's -policy flag, the experiments
// harness — select algorithms as data. A new
// heuristic is a Policy implementation plus one Register call.

// ErrUnknownPolicy reports a Lookup for a name nothing registered.
var ErrUnknownPolicy = errors.New("scheduler: unknown policy")

// registry is the name → implementation table behind both the policy and
// the re-planner registries: registration at init, lookup by name, sorted
// names for error messages and flag help.
type registry[T interface{ Name() string }] struct {
	kind    string // "policy" / "replanner", for panic messages
	unknown error  // sentinel a failed lookup wraps
	mu      sync.RWMutex
	m       map[string]T
}

// register installs v under v.Name(). It panics on an empty name or a
// duplicate registration — both are programming errors caught at init.
func (r *registry[T]) register(v T) {
	name := v.Name()
	if name == "" {
		panic(fmt.Sprintf("scheduler: %s registered with empty name", r.kind))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		panic(fmt.Sprintf("scheduler: %s %q registered twice", r.kind, name))
	}
	r.m[name] = v
}

// lookup resolves name, or returns an error wrapping r.unknown that lists
// every registered name.
func (r *registry[T]) lookup(name string) (T, error) {
	r.mu.RLock()
	v, ok := r.m[name]
	r.mu.RUnlock()
	if !ok {
		return v, fmt.Errorf("%w %q (available: %s)",
			r.unknown, name, strings.Join(r.names(), ", "))
	}
	return v, nil
}

// names returns the registered names, sorted.
func (r *registry[T]) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for name := range r.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

var policies = registry[Policy]{kind: "policy", unknown: ErrUnknownPolicy, m: map[string]Policy{}}

// Register installs a policy under p.Name(). It panics on an empty name or
// a duplicate registration — both are programming errors caught at init.
func Register(p Policy) { policies.register(p) }

// Lookup resolves a policy by name. Unknown names return an error wrapping
// ErrUnknownPolicy that lists every registered policy.
func Lookup(name string) (Policy, error) { return policies.lookup(name) }

// Policies returns the registered policy names, sorted.
func Policies() []string { return policies.names() }

// The built-in policies. The site policies (faithful/eft/ledger) wrap the
// paper's Site Scheduler engine, heft/cpop are the headline list heuristics
// of Topcuoglu et al., and the rest are the naive evaluation baselines.
func init() {
	Register(sitePolicy{name: "faithful"})
	Register(sitePolicy{name: "eft", eft: true})
	Register(sitePolicy{name: "ledger", eft: true})
	Register(heftPolicy{})
	Register(cpopPolicy{})
	Register(baselinePolicy{kind: "random"})
	Register(baselinePolicy{kind: "roundrobin"})
	Register(baselinePolicy{kind: "minload"})
	Register(baselinePolicy{kind: "fastest"})
}
