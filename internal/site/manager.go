// Package site implements the VDCE Site Manager: "the server software ...
// which handles the inter-site communications and bridges the VDCE modules
// to the web-based repository" (paper §2). One Manager runs per VDCE site;
// it owns the site repository, the host pool with its Group Managers
// (Resource Controller, Fig 6), the site-local Host Selection service, and
// the RPC endpoint remote sites use during distributed scheduling.
package site

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/afg"
	"repro/internal/datamgr"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/predict"
	"repro/internal/repository"
	"repro/internal/resource"
	"repro/internal/runtime"
	"repro/internal/scheduler"
	"repro/internal/tasklib"
)

// Config tunes a site manager.
type Config struct {
	// GroupSize is the number of hosts per Group Manager (0 = 8).
	GroupSize int
	// Monitor is the Group Manager configuration.
	Monitor monitor.Config
	// LoadThreshold is the runtime QoS bound passed to executions.
	LoadThreshold float64
	// UseSockets makes executions ship data through real TCP proxies.
	UseSockets bool
	// SchedulerConcurrency bounds the Site Scheduler's fan-out worker
	// pool and ScheduleBatchOpts' per-application workers
	// (0 = GOMAXPROCS, 1 = serial).
	SchedulerConcurrency int

	// Policy names the scheduling policy this site runs by default
	// (scheduler.Lookup name: "faithful", "eft", "heft", "cpop", ...).
	// Empty selects "faithful".
	Policy string
}

// frontierReplanner names the frontier re-planner every site's executions
// run after a mid-execution host failure (scheduler.LookupReplanner name).
// "dup" would re-plan exactly as "eft" does: its hedges are duplicate runs,
// and live execution runs none.
const frontierReplanner = "eft"

// BatchOptions tunes one ScheduleBatchOpts call; the zero value follows
// the site Config.
type BatchOptions struct {
	// Policy selects the scheduling policy by registry name for this
	// batch; empty follows the site default (Config.Policy). The "ledger"
	// policy shares one load ledger across the batch, so its graphs spread
	// around each other's in-flight placements.
	Policy string
	// Seed feeds the randomized policies ("random"), so callers can vary
	// placements between otherwise identical calls.
	Seed int64
}

// Manager is one VDCE site.
type Manager struct {
	Site     string
	Repo     *repository.Repository
	Pool     *resource.Pool
	Groups   []*monitor.GroupManager
	Selector *scheduler.LocalSelector
	Cache    *predict.Cache // pricing counters of the site's selector
	Net      *netsim.Network
	Registry *tasklib.Registry
	Gate     *datamgr.Gate

	cfg       Config
	replanner scheduler.Replanner // frontierReplanner, resolved once

	// Deviation fan-out: in-flight executions subscribe here and receive
	// the names of hosts the monitoring plane reports down (§2.3.1).
	subMu   sync.Mutex
	subs    map[int]chan string
	nextSub int
}

// NewManager builds a site around an existing host pool: every host is
// registered in the resource-performance database, hosts are partitioned
// into groups with a Group Manager each, and the task-performance database
// is seeded from the task registry ("measured time on the base processor").
func NewManager(siteName string, pool *resource.Pool, nw *netsim.Network, reg *tasklib.Registry, cfg Config) (*Manager, error) {
	if reg == nil {
		reg = tasklib.Default()
	}
	if cfg.GroupSize <= 0 {
		cfg.GroupSize = 8
	}
	rp, err := scheduler.LookupReplanner(frontierReplanner)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		Site:      siteName,
		Repo:      repository.New(),
		Pool:      pool,
		Cache:     predict.NewCache(),
		Net:       nw,
		Registry:  reg,
		Gate:      datamgr.NewGate(),
		cfg:       cfg,
		replanner: rp,
	}
	for _, h := range pool.Hosts() {
		err := m.Repo.Resources.Register(repository.ResourceStatic{
			HostName:    h.Spec.Name,
			IPAddr:      h.Spec.IPAddr,
			Site:        siteName,
			Arch:        string(h.Spec.Arch),
			OSType:      h.Spec.OSType,
			TotalMemory: h.Spec.TotalMemory,
			SpeedFactor: h.Spec.SpeedFactor,
		})
		if err != nil {
			return nil, err
		}
	}
	// Partition hosts into monitor groups.
	hosts := pool.Hosts()
	for i := 0; i < len(hosts); i += cfg.GroupSize {
		end := i + cfg.GroupSize
		if end > len(hosts) {
			end = len(hosts)
		}
		gm := monitor.NewGroupManager(
			fmt.Sprintf("%s-group%d", siteName, i/cfg.GroupSize),
			siteName, hosts[i:end], m, cfg.Monitor, nw)
		m.Groups = append(m.Groups, gm)
	}
	m.Selector = &scheduler.LocalSelector{Site: siteName, Repo: m.Repo, Cache: m.Cache}
	m.seedTaskDatabase()
	return m, nil
}

// seedTaskDatabase installs every registry task's cost metadata into the
// task-performance database.
func (m *Manager) seedTaskDatabase() {
	for _, name := range m.Registry.Names() {
		spec, err := m.Registry.Get(name)
		if err != nil {
			continue
		}
		m.Repo.Tasks.Put(repository.TaskRecord{
			Function:  spec.Name,
			BaseTime:  spec.BaseTime,
			MemReq:    spec.MemReq,
			CommBytes: spec.OutputBytes,
		})
	}
}

// monitor.Sink implementation ------------------------------------------------

// UpdateWorkload stores a significantly changed measurement in the
// resource-performance database ("the Site Manager stores/updates the
// relevant VDCE database with the received values"); the next walk reads it.
func (m *Manager) UpdateWorkload(ms monitor.Measurement) {
	m.Repo.Resources.UpdateDynamic(ms.Host, ms.Load, ms.AvailMem, ms.At)
}

// HostDown marks the host "down" in the repository so no further tasks are
// mapped onto it, and notifies subscribed in-flight executions so they can
// re-plan their unstarted frontier off the dead host.
func (m *Manager) HostDown(host string, at time.Time) {
	m.Repo.Resources.SetDown(host, true)
	m.subMu.Lock()
	ids := make([]int, 0, len(m.subs))
	for id := range m.subs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		select {
		case m.subs[id] <- host:
		default: // subscriber lagging: it will see the repo mark instead
		}
	}
	m.subMu.Unlock()
}

// HostUp clears the down mark after recovery.
func (m *Manager) HostUp(host string, at time.Time) {
	m.Repo.Resources.SetDown(host, false)
}

var _ monitor.Sink = (*Manager)(nil)

// -----------------------------------------------------------------------------

// TickMonitors runs one synchronous monitoring round over all groups.
func (m *Manager) TickMonitors() {
	for _, g := range m.Groups {
		g.Tick()
	}
}

// StartMonitors runs all group managers until ctx is cancelled.
func (m *Manager) StartMonitors(ctx context.Context, period time.Duration) {
	for _, g := range m.Groups {
		go g.Run(ctx, period)
	}
}

// Authenticate validates a user against the user-accounts database; the
// Application Editor calls this before loading (§2.1).
func (m *Manager) Authenticate(user, password string) (repository.UserAccount, error) {
	return m.Repo.Users.Authenticate(user, password)
}

// Host resolves a host by name for the runtime.
func (m *Manager) Host(name string) *resource.Host { return m.Pool.Get(name) }

// Rescheduler returns the site's task-rescheduling service: it re-runs host
// selection for the single task under the site's own cost model — the
// task's kind, machine-type preference and constraints count as they did
// when it was planned — excluding the hosts already tried (the Application
// Controller → Group Manager rescheduling request, §2.3.1).
func (m *Manager) Rescheduler() runtime.Rescheduler {
	return func(ctx context.Context, task *afg.Task, exclude []string) (scheduler.Assignment, error) {
		bad := make(map[string]bool, len(exclude))
		for _, h := range exclude {
			bad[h] = true
			// A host excluded because it is actually down gets marked in
			// the repository immediately ("the machine is marked as
			// 'down' and the Site Manager is informed in order to
			// prevent further task mappings", §2.3.1) rather than
			// waiting for the next monitor round.
			if ph := m.Pool.Get(h); ph != nil && ph.IsDown() {
				m.Repo.Resources.SetDown(h, true)
			}
		}
		costs := m.Selector.CostModel()
		best := scheduler.Assignment{Predicted: math.Inf(1)}
		for _, h := range m.Repo.Resources.UpHosts() {
			if bad[h] {
				continue
			}
			if pred := costs(task, h); pred < best.Predicted {
				best = scheduler.Assignment{Task: task.ID, Site: m.Site, Host: h, Predicted: pred}
			}
		}
		if best.Host == "" {
			return scheduler.Assignment{}, scheduler.ErrNoEligibleHost
		}
		return best, nil
	}
}

// SubscribeDeviations registers a listener for monitor-reported host
// failures. The returned cancel must be called when the execution ends;
// sends never block (a lagging subscriber just misses the nudge and relies
// on the repository's down marks instead).
func (m *Manager) SubscribeDeviations() (<-chan string, func()) {
	m.subMu.Lock()
	defer m.subMu.Unlock()
	if m.subs == nil {
		m.subs = make(map[int]chan string)
	}
	id := m.nextSub
	m.nextSub++
	ch := make(chan string, 16)
	m.subs[id] = ch
	return ch, func() {
		m.subMu.Lock()
		defer m.subMu.Unlock()
		delete(m.subs, id)
	}
}

// FrontierReplanner builds the runtime's whole-frontier rescheduling
// callback from the site's re-planner (frontierReplanner): candidate hosts
// come from the resource-performance database minus every host the
// execution or the repository knows down; costs come from the site's own
// cost model (what the original placement was priced with), or from the
// table for a task it keeps on a host that model cannot price; settled
// tasks are modelled as running to their predicted finish, and the repaired
// table is certified by ValidateSchedule before any assignment is adopted.
func (m *Manager) FrontierReplanner() runtime.FrontierReplan {
	return func(ctx context.Context, g *afg.Graph, table *scheduler.AllocationTable, settled map[afg.TaskID]bool, dead []string) (map[afg.TaskID]scheduler.Assignment, error) {
		down := make(map[string]bool, len(dead))
		for _, h := range dead {
			down[h] = true
		}
		// The model prices down hosts too — settled work already sitting on
		// them must still simulate — but they contribute no candidate
		// columns. List is sorted by host name and a site is one site, so
		// the columns are in the gather's order. A pair the site cannot
		// price, such as a task the table keeps on a peer's host, is priced
		// by the table's own prediction when that host is the task's.
		local := m.Selector.CostModel()
		costs := func(task *afg.Task, host string) float64 {
			p := local(task, host)
			if a, ok := table.Get(task.ID); ok && math.IsNaN(p) && a.Host == host {
				return a.Predicted
			}
			return p
		}
		var hosts []scheduler.HostRef
		for _, rec := range m.Repo.Resources.List() {
			if rec.Dynamic.Down {
				down[rec.Static.HostName] = true
			}
			if !down[rec.Static.HostName] {
				hosts = append(hosts, scheduler.HostRef{Site: rec.Static.Site, Host: rec.Static.HostName})
			}
		}
		// Settled tasks keep their slots: model each as running until its
		// predicted finish so the re-planner seeds host timelines from them
		// (sorted walk: the request must not depend on map order).
		running := make(map[afg.TaskID]float64, len(settled))
		for _, id := range g.TaskIDs() {
			if !settled[id] {
				continue
			}
			if a, ok := table.Get(id); ok {
				running[id] = a.Predicted
			}
		}
		rep, err := m.replanner.Replan(&scheduler.ReplanRequest{
			Graph:   g,
			Table:   table,
			Running: running,
			Down:    down,
			Event:   scheduler.Deviation{Kind: scheduler.DeviationHostDown},
			Costs:   costs,
			Hosts:   hosts,
			Net:     m.Net,
		})
		if err != nil {
			return nil, err
		}
		if _, err := scheduler.CertifyReplan(g, rep.Table, costs, m.Net); err != nil {
			return nil, err
		}
		moved := make(map[afg.TaskID]scheduler.Assignment)
		for _, id := range g.TaskIDs() {
			if settled[id] {
				continue
			}
			if na, ok := rep.Table.Get(id); ok {
				moved[id] = na
			}
		}
		return moved, nil
	}
}

// Policy resolves the scheduling policy one call should run: the explicit
// override, else the site's configured default, else "faithful".
func (m *Manager) Policy(override string) (scheduler.Policy, error) {
	name := override
	if name == "" {
		name = m.cfg.Policy
	}
	if name == "" {
		name = "faithful"
	}
	return scheduler.Lookup(name)
}

// policyRequest assembles the policy environment for this site: the local
// Host Selection service, the given remotes, the network model, and the
// fan-out concurrency.
func (m *Manager) policyRequest(g *afg.Graph, remotes []scheduler.HostSelector, concurrency int, seed int64) *scheduler.Request {
	return scheduler.NewRequest(g, m.Selector, remotes, m.Net,
		scheduler.WithConcurrency(concurrency), scheduler.WithSeed(seed))
}

// SchedulePolicy schedules one application under the named policy (empty =
// the site default) against this site plus the given remote selectors.
func (m *Manager) SchedulePolicy(ctx context.Context, policy string, g *afg.Graph, remotes []scheduler.HostSelector) (*scheduler.AllocationTable, error) {
	p, err := m.Policy(policy)
	if err != nil {
		return nil, err
	}
	return p.Schedule(ctx, m.policyRequest(g, remotes, m.cfg.SchedulerConcurrency, 0))
}

// ScheduleBatchOpts schedules many applications concurrently against this
// site (plus the given remote selectors), sharing the repository and its
// pricing counters (Manager.Cache) across all of them; results come back in
// input order.
// It fails fast on an unknown policy name; per-graph failures report
// through the items. SchedulerConcurrency is one budget, not two: with several graphs in
// flight it bounds the batch workers and each schedule fans out serially;
// a single graph gets the whole budget as fan-out instead. Without this,
// the effective parallelism would be the square of the configured bound.
func (m *Manager) ScheduleBatchOpts(graphs []*afg.Graph, remotes []scheduler.HostSelector, opts BatchOptions) ([]scheduler.BatchItem, error) {
	p, err := m.Policy(opts.Policy)
	if err != nil {
		return nil, err
	}
	concurrency := m.cfg.SchedulerConcurrency
	if len(graphs) > 1 {
		concurrency = 1
	}
	env := m.policyRequest(nil, remotes, concurrency, opts.Seed)
	b := &scheduler.Batch{Policy: p, Env: *env, Workers: m.cfg.SchedulerConcurrency}
	return b.Schedule(graphs), nil
}

// ExecuteLocal schedules (against this site only, plus the given remote
// selectors) and executes an application whose tasks all resolve to hosts
// this manager can reach through resolve. It also records measured
// execution times back into the task-performance database ("After an
// application execution is completed, the newly measured execution time of
// each application task is stored").
func (m *Manager) ExecuteLocal(ctx context.Context, g *afg.Graph, remotes []scheduler.HostSelector, resolve func(string) *resource.Host) (*runtime.Result, *scheduler.AllocationTable, error) {
	table, err := m.SchedulePolicy(ctx, "", g, remotes)
	if err != nil {
		return nil, nil, err
	}
	if resolve == nil {
		resolve = m.Host
	}
	res, err := m.execute(ctx, g, table, resolve, nil)
	return res, table, err
}

// execute runs a scheduled application on this site — the one execution
// body behind ExecuteLocal and executeDistributed: it subscribes the
// run to monitor-reported failures, wires the site's recovery services into
// the runtime, and records measured times once the run succeeds. Hosts
// resolve does not know go to remoteExec (nil: they are an error).
func (m *Manager) execute(ctx context.Context, g *afg.Graph, table *scheduler.AllocationTable, resolve func(string) *resource.Host,
	remoteExec func(context.Context, scheduler.Assignment, *afg.Task, []tasklib.Value) (tasklib.Value, error)) (*runtime.Result, error) {
	dev, cancelDev := m.SubscribeDeviations()
	defer cancelDev()
	res, err := runtime.Execute(ctx, g, table, runtime.Options{
		Registry:       m.Registry,
		Hosts:          resolve,
		Net:            m.Net,
		Gate:           m.Gate,
		UseSockets:     m.cfg.UseSockets,
		LoadThreshold:  m.cfg.LoadThreshold,
		Reschedule:     m.Rescheduler(),
		FrontierReplan: m.FrontierReplanner(),
		Deviations:     dev,
		MaxAttempts:    m.Pool.Len() + 1, // worst case: every other host fails first
		RemoteExec:     remoteExec,
	})
	if err == nil {
		m.recordExecutions(g, res)
	}
	return res, err
}

// recordExecutions feeds completed task timings into the task-performance
// database in the Result's Index order, which is sorted task order, so the
// recorded sample history is reproducible run to run.
func (m *Manager) recordExecutions(g *afg.Graph, res *runtime.Result) {
	ix, _ := g.Index()
	for i, tr := range res.TaskResults {
		if tr.Err != nil {
			continue
		}
		m.Repo.Tasks.RecordExecution(ix.Task(i).Function, repository.ExecutionSample{
			Host: tr.Host, Elapsed: tr.Elapsed, At: time.Now(),
		})
	}
}

// ExecuteDistributed schedules an application across this site and the
// given RPC peers, then executes it: tasks assigned locally run on this
// site's hosts, tasks assigned to a peer are forwarded to that peer's
// RunTask endpoint — the full multi-process execution path of Fig 6/7.
func (m *Manager) ExecuteDistributed(ctx context.Context, g *afg.Graph, peers []*RemoteSelector) (*runtime.Result, *scheduler.AllocationTable, error) {
	remotes := make([]scheduler.HostSelector, len(peers))
	for i, p := range peers {
		remotes[i] = p
	}
	return m.executeDistributed(ctx, g, peers, remotes, "")
}

// executeDistributed is ExecuteDistributed scheduling under the named policy
// (empty = the site default), asking the peers through remotes, which
// Service.Submit fills with the calls it started on its client's bytes.
func (m *Manager) executeDistributed(ctx context.Context, g *afg.Graph, peers []*RemoteSelector, remotes []scheduler.HostSelector, policy string) (*runtime.Result, *scheduler.AllocationTable, error) {
	byName := make(map[string]*RemoteSelector, len(peers))
	for _, p := range peers {
		byName[p.Name] = p
	}
	table, err := m.SchedulePolicy(ctx, policy, g, remotes)
	if err != nil {
		return nil, nil, err
	}
	// Local hosts only; remote hosts go to the owning peer's RunTask.
	res, err := m.execute(ctx, g, table, m.Host, func(ctx context.Context, assign scheduler.Assignment, task *afg.Task, inputs []tasklib.Value) (tasklib.Value, error) {
		peer, ok := byName[assign.Site]
		if !ok {
			return tasklib.Value{}, fmt.Errorf("site: no peer for site %q", assign.Site)
		}
		if m.Net != nil {
			var bytes int64
			for _, v := range inputs {
				bytes += v.SizeBytes()
			}
			m.Net.InjectDelay(m.Site, assign.Site, bytes)
		}
		return peer.RunTask(assign.Host, task, inputs)
	})
	return res, table, err
}

// RunTrialWeights performs the paper's "trial runs ... to obtain the
// computing power weights of processors for each task": it derives a weight
// for every (function, host) pair from the host's speed factor plus a
// deterministic per-(arch, library) affinity, and stores it in the
// task-performance database. The affinity models the observation that "the
// performance of the processors changes from one application to another".
func (m *Manager) RunTrialWeights() {
	for _, name := range m.Registry.Names() {
		spec, err := m.Registry.Get(name)
		if err != nil {
			continue
		}
		for _, h := range m.Pool.Hosts() {
			w := predict.WeightFromSpeed(h.Spec.SpeedFactor) * archAffinity(string(h.Spec.Arch), spec.Library)
			m.Repo.Tasks.SetWeight(name, h.Spec.Name, w)
		}
	}
}

// archAffinity is the deterministic task-architecture interaction used by
// trial runs: e.g. SGI boxes shine on matrix code, Alphas on FFTs.
func archAffinity(arch, library string) float64 {
	type key struct{ a, l string }
	table := map[key]float64{
		{"sgi", "matrix"}:      0.8,
		{"sgi", "fourier"}:     1.1,
		{"alpha", "fourier"}:   0.75,
		{"alpha", "matrix"}:    1.05,
		{"solaris", "c3i"}:     0.9,
		{"linux", "synthetic"}: 0.85,
	}
	if f, ok := table[key{arch, library}]; ok {
		return f
	}
	return 1
}
