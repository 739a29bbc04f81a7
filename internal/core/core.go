// Package core is the top-level VDCE facade: it assembles a multi-site
// Virtual Distributed Computing Environment (Fig 1) and exposes the full
// software-development cycle the paper describes — build an application
// flow graph (Application Editor), map it onto the best available
// resources (Application Scheduler), and execute it under the Runtime
// System's control — behind a small API:
//
//	env, _ := core.NewEnvironment(core.Options{})
//	env.AddSite("syracuse", 8)
//	env.AddSite("rome", 8)
//	g, _ := workload.LinearSolver(nil, 128, 1, false, 0)
//	res, _ := env.Submit(ctx, "syracuse", g)
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/afg"
	"repro/internal/netsim"
	"repro/internal/resource"
	"repro/internal/runtime"
	"repro/internal/scheduler"
	"repro/internal/site"
	"repro/internal/tasklib"
)

// Common errors.
var (
	ErrUnknownSite   = errors.New("core: unknown site")
	ErrDuplicateSite = errors.New("core: duplicate site")
)

// Options configures an environment.
type Options struct {
	// Net is the WAN model; nil builds a star topology over the sites as
	// they are added (10 ms base latency) with delays compressed by
	// DelayScale.
	Net *netsim.Network
	// DelayScale compresses injected WAN delays when Net is nil
	// (default 0.001: a 10 ms hop sleeps 10 µs).
	DelayScale float64
	// Registry is the task library (nil = tasklib.Default()).
	Registry *tasklib.Registry
	// SiteConfig is applied to every site.
	SiteConfig site.Config
	// SpeedSpread is the host heterogeneity within a site (default 4).
	SpeedSpread float64
	// Seed makes host generation deterministic (default 1).
	Seed int64
}

// Environment is a running multi-site VDCE.
type Environment struct {
	opts  Options
	net   *netsim.Network
	sites map[string]*site.Manager
	order []string
}

// NewEnvironment creates an empty environment.
func NewEnvironment(opts Options) *Environment {
	if opts.Registry == nil {
		opts.Registry = tasklib.Default()
	}
	if opts.DelayScale <= 0 {
		opts.DelayScale = 0.001
	}
	if opts.SpeedSpread <= 0 {
		opts.SpeedSpread = 4
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	env := &Environment{opts: opts, sites: make(map[string]*site.Manager)}
	if opts.Net != nil {
		env.net = opts.Net
	} else {
		env.net = netsim.New(netsim.DefaultLAN, opts.DelayScale)
	}
	return env
}

// Net exposes the WAN model.
func (e *Environment) Net() *netsim.Network { return e.net }

// AddSite generates `hosts` heterogeneous machines, wires the site into the
// WAN (10 ms × distance to each existing site when the caller did not
// provide a topology), and starts its repository/monitoring plane.
func (e *Environment) AddSite(name string, hosts int) (*site.Manager, error) {
	if _, ok := e.sites[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateSite, name)
	}
	pool := resource.GenerateSite(name, hosts, e.opts.SpeedSpread, e.opts.Seed+int64(len(e.order))*7919)
	m, err := site.NewManager(name, pool, e.net, e.opts.Registry, e.opts.SiteConfig)
	if err != nil {
		return nil, err
	}
	if e.opts.Net == nil {
		for i, other := range e.order {
			e.net.Connect(name, other, netsim.PathSpec{
				Latency:   time.Duration(i+1) * 10 * time.Millisecond,
				Bandwidth: 19.4e6,
			})
		}
	}
	e.sites[name] = m
	e.order = append(e.order, name)
	// Prime the repository with one monitoring round so the scheduler has
	// dynamic data from the start.
	m.TickMonitors()
	return m, nil
}

// Site returns a site manager by name.
func (e *Environment) Site(name string) (*site.Manager, error) {
	m, ok := e.sites[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSite, name)
	}
	return m, nil
}

// Sites lists site names in creation order.
func (e *Environment) Sites() []string {
	return append([]string(nil), e.order...)
}

// TickMonitors runs one synchronous monitoring round everywhere.
func (e *Environment) TickMonitors() {
	for _, name := range e.order {
		e.sites[name].TickMonitors()
	}
}

// StartMonitors runs all sites' group managers until ctx is done.
func (e *Environment) StartMonitors(ctx context.Context, period time.Duration) {
	for _, name := range e.order {
		e.sites[name].StartMonitors(ctx, period)
	}
}

// ResolveHost finds a host handle anywhere in the environment. Sites are
// asked in creation order, so when two pools share a host name the site
// added first answers, every time.
func (e *Environment) ResolveHost(name string) *resource.Host {
	for _, site := range e.order {
		if h := e.sites[site].Pool.Get(name); h != nil {
			return h
		}
	}
	return nil
}

// localAndRemotes resolves localSite and lists every other site's selector
// as a remote (the in-process equivalent of the AFG multicast;
// cmd/vdce-server wires the same thing over RPC).
func (e *Environment) localAndRemotes(localSite string) (*site.Manager, []scheduler.HostSelector, error) {
	local, err := e.Site(localSite)
	if err != nil {
		return nil, nil, err
	}
	var remotes []scheduler.HostSelector
	for _, name := range e.order {
		if name != localSite {
			remotes = append(remotes, e.sites[name].Selector)
		}
	}
	return local, remotes, nil
}

// Schedule maps an application arriving at localSite onto the whole
// environment under the named policy (empty = the site's default) without
// executing it.
func (e *Environment) Schedule(ctx context.Context, localSite, policy string, g *afg.Graph) (*scheduler.AllocationTable, error) {
	local, remotes, err := e.localAndRemotes(localSite)
	if err != nil {
		return nil, err
	}
	return local.SchedulePolicy(ctx, policy, g, remotes)
}

// Submit runs the full cycle for an application arriving at localSite:
// distributed scheduling, then execution across the chosen hosts with the
// local site's QoS/fault policies.
func (e *Environment) Submit(ctx context.Context, localSite string, g *afg.Graph) (*runtime.Result, *scheduler.AllocationTable, error) {
	local, remotes, err := e.localAndRemotes(localSite)
	if err != nil {
		return nil, nil, err
	}
	return local.ExecuteLocal(ctx, g, remotes, e.ResolveHost)
}

// HostCount sums hosts across sites.
func (e *Environment) HostCount() int {
	n := 0
	for _, s := range e.sites {
		n += s.Pool.Len()
	}
	return n
}

// TruthModel returns the ground-truth execution model over the live hosts:
// base cost × weight(speed) × (1 + current actual load). Benchmarks score
// allocation tables against it via scheduler.Simulate.
func (e *Environment) TruthModel() scheduler.TimeModel {
	return func(task *afg.Task, host string) float64 {
		h := e.ResolveHost(host)
		if h == nil {
			return task.ComputeCost
		}
		return h.EffectiveSeconds(task.ComputeCost, 1/h.Spec.SpeedFactor)
	}
}

// SortedHostNames lists every host in the environment, sorted.
func (e *Environment) SortedHostNames() []string {
	var out []string
	for _, s := range e.sites {
		out = append(out, s.Pool.Names()...)
	}
	sort.Strings(out)
	return out
}
