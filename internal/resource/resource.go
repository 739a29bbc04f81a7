// Package resource models the heterogeneous VDCE hosts and their dynamics.
//
// The paper's testbed was a campus network of heterogeneous workstations
// whose relevant properties reach the scheduler as numbers: architecture
// type, total/available memory, a per-task computing-power weight relative
// to a base processor, and a time-varying CPU load. This package supplies a
// synthetic but faithful stand-in: hosts with static attributes and an AR(1)
// background-load process, plus failure injection for the fault-tolerance
// paths (§2.3.1 "the machine is marked as down").
package resource

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// Arch is an architecture type as stored in the resource-performance
// database's static attributes ("architecture type, OS type", §2).
type Arch string

// Architecture types used across the test environment.
const (
	ArchSolaris Arch = "solaris"
	ArchSGI     Arch = "sgi"
	ArchLinux   Arch = "linux"
	ArchAlpha   Arch = "alpha"
)

// HostSpec holds the static attributes of a VDCE machine, mirroring the
// resource-performance database's static part: host name, IP address,
// architecture type, OS type, and total memory size.
type HostSpec struct {
	Name        string
	Site        string
	IPAddr      string
	Arch        Arch
	OSType      string
	TotalMemory int64 // bytes

	// SpeedFactor is the machine's raw computing power relative to the
	// base processor (1.0 = base). Effective per-task weights are derived
	// from it by the trial-run machinery in internal/predict.
	SpeedFactor float64
}

// LoadModel parameterises the synthetic background-load process.
type LoadModel struct {
	Baseline   float64 // long-run mean load, e.g. 0.3
	Volatility float64 // noise magnitude per step
	Rho        float64 // AR(1) persistence in [0,1)
}

// DefaultLoadModel is a moderately loaded shared workstation.
var DefaultLoadModel = LoadModel{Baseline: 0.3, Volatility: 0.1, Rho: 0.8}

// Host is a simulated VDCE machine: static spec plus mutable dynamic state
// (load, available memory, up/down). All methods are safe for concurrent
// use; the Monitor daemon, Application Controller, and Data Manager all
// touch the same host.
type Host struct {
	Spec HostSpec

	mu       sync.Mutex
	rng      *rand.Rand
	model    LoadModel
	bgLoad   float64 // background load from other users (AR(1))
	taskLoad float64 // load contributed by VDCE tasks running here
	usedMem  int64
	down     bool
}

// NewHost creates a host with the given spec, load model, and deterministic
// seed for the background-load process.
func NewHost(spec HostSpec, model LoadModel, seed int64) *Host {
	if spec.SpeedFactor <= 0 {
		spec.SpeedFactor = 1
	}
	h := &Host{
		Spec:   spec,
		rng:    rand.New(rand.NewSource(seed)),
		model:  model,
		bgLoad: model.Baseline,
	}
	return h
}

// StepLoad advances the background-load process one tick and returns the new
// total load. The Monitor daemon calls this on its measurement period.
func (h *Host) StepLoad() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	m := h.model
	noise := h.rng.NormFloat64() * m.Volatility
	h.bgLoad = m.Rho*h.bgLoad + (1-m.Rho)*m.Baseline + noise
	if h.bgLoad < 0 {
		h.bgLoad = 0
	}
	return h.bgLoad + h.taskLoad
}

// Load returns the current total CPU load (background + VDCE tasks).
func (h *Host) Load() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bgLoad + h.taskLoad
}

// AvailableMemory returns total memory minus memory claimed by running tasks.
func (h *Host) AvailableMemory() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.Spec.TotalMemory - h.usedMem
}

// The ways BeginTask refuses a task. A host that is down stays unusable;
// one out of memory is healthy and frees up as its running tasks end; a
// negative request is the task's own fault, and no host grants it.
var (
	ErrHostDown       = errors.New("resource: host is down")
	ErrOutOfMemory    = errors.New("resource: host out of memory")
	ErrNegativeMemory = errors.New("resource: negative memory request")
)

// BeginTask registers a running task: one load unit and mem bytes claimed.
// It returns an error wrapping ErrHostDown if the host is down, one wrapping
// ErrNegativeMemory if mem is negative and one wrapping ErrOutOfMemory if
// memory is insufficient.
func (h *Host) BeginTask(mem int64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.down {
		return fmt.Errorf("%w: %s", ErrHostDown, h.Spec.Name)
	}
	if mem < 0 {
		return fmt.Errorf("%w: %d bytes on %s", ErrNegativeMemory, mem, h.Spec.Name)
	}
	if mem > h.Spec.TotalMemory-h.usedMem { // used+mem could wrap
		return fmt.Errorf("%w: %s (%d used, %d requested, %d total)",
			ErrOutOfMemory, h.Spec.Name, h.usedMem, mem, h.Spec.TotalMemory)
	}
	h.usedMem += mem
	h.taskLoad++
	return nil
}

// EndTask releases what BeginTask claimed.
func (h *Host) EndTask(mem int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.usedMem -= mem
	if h.usedMem < 0 {
		h.usedMem = 0
	}
	h.taskLoad--
	if h.taskLoad < 0 {
		h.taskLoad = 0
	}
}

// SetDown marks the host failed (true) or repaired (false).
func (h *Host) SetDown(down bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.down = down
}

// IsDown reports the failure state.
func (h *Host) IsDown() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.down
}

// EffectiveSeconds converts a base-processor cost into wall seconds on this
// host under its current load: cost × weight × (1 + load). weight is the
// task-specific computing-power weight relative to the base processor
// (weight < 1 ⇒ faster than base). This is the ground-truth execution model
// the prediction functions in internal/predict try to approximate.
func (h *Host) EffectiveSeconds(baseCost, weight float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	load := h.bgLoad + h.taskLoad
	return baseCost * weight * (1 + load)
}

// Pool is a named collection of hosts belonging to one site, with stable
// iteration order and group assignment (the paper's Group Manager owns a
// group of hosts with a group-leader machine).
type Pool struct {
	mu    sync.RWMutex
	hosts map[string]*Host
	order []string
}

// NewPool returns an empty host pool.
func NewPool() *Pool {
	return &Pool{hosts: make(map[string]*Host)}
}

// Add inserts a host; duplicate names are rejected.
func (p *Pool) Add(h *Host) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.hosts[h.Spec.Name]; ok {
		return fmt.Errorf("resource: duplicate host %q", h.Spec.Name)
	}
	p.hosts[h.Spec.Name] = h
	p.order = append(p.order, h.Spec.Name)
	sort.Strings(p.order)
	return nil
}

// Get returns the named host or nil.
func (p *Pool) Get(name string) *Host {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.hosts[name]
}

// Names returns all host names in sorted order.
func (p *Pool) Names() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]string(nil), p.order...)
}

// Hosts returns all hosts in name order.
func (p *Pool) Hosts() []*Host {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]*Host, 0, len(p.order))
	for _, n := range p.order {
		out = append(out, p.hosts[n])
	}
	return out
}

// Len returns the number of hosts.
func (p *Pool) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.hosts)
}

// GenerateSite builds a pool of n heterogeneous hosts for the given site
// name, cycling through architecture types and spreading speed factors in
// [1, spread]. Deterministic for a given seed.
func GenerateSite(site string, n int, spread float64, seed int64) *Pool {
	if spread < 1 {
		spread = 1
	}
	rng := rand.New(rand.NewSource(seed))
	archs := []Arch{ArchSolaris, ArchSGI, ArchLinux, ArchAlpha}
	oses := map[Arch]string{ArchSolaris: "SunOS", ArchSGI: "IRIX", ArchLinux: "Linux", ArchAlpha: "OSF1"}
	pool := NewPool()
	for i := 0; i < n; i++ {
		arch := archs[i%len(archs)]
		speed := 1 + rng.Float64()*(spread-1)
		spec := HostSpec{
			Name:        fmt.Sprintf("%s-node%02d", site, i),
			Site:        site,
			IPAddr:      fmt.Sprintf("10.%d.0.%d", len(site)%255, i+1),
			Arch:        arch,
			OSType:      oses[arch],
			TotalMemory: int64(64+rng.Intn(4)*64) << 20, // 64–256 MB, 1997-flavoured
			SpeedFactor: speed,
		}
		model := LoadModel{
			Baseline:   0.1 + rng.Float64()*0.5,
			Volatility: 0.05 + rng.Float64()*0.15,
			Rho:        0.7 + rng.Float64()*0.25,
		}
		h := NewHost(spec, model, rng.Int63())
		if err := pool.Add(h); err != nil {
			panic(err) // names are generated unique; unreachable
		}
	}
	return pool
}
