// Package runtime implements the VDCE Runtime System's application
// execution plane (paper §2.3): the Application Controller sets up the
// execution environment for a scheduled application (activating Data
// Managers, creating point-to-point communication channels, collecting
// acknowledgements, and releasing the execution startup signal — Fig 7),
// runs every task on its assigned machine, and maintains the performance
// and fault-tolerance requirements: a task on an overloaded or failed host
// is terminated and rescheduled through the Group Manager (§2.3.1).
package runtime

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/afg"
	"repro/internal/datamgr"
	"repro/internal/netsim"
	"repro/internal/resource"
	"repro/internal/scheduler"
	"repro/internal/tasklib"
)

// Common errors.
var (
	ErrUnknownHost    = errors.New("runtime: assignment names unknown host")
	ErrHostFailed     = errors.New("runtime: host failed")
	ErrOverloaded     = errors.New("runtime: host over its load threshold or out of memory")
	ErrNoReschedule   = errors.New("runtime: no rescheduler available")
	ErrTooManyRetries = errors.New("runtime: task exceeded retry budget")
)

// TaskResult records one task's execution outcome.
type TaskResult struct {
	Task     afg.TaskID
	Host     string
	Site     string
	Started  time.Time     // when the task left the input-gather barrier
	Elapsed  time.Duration // placement attempts + execution
	Attempts int           // 1 = no rescheduling was needed
	Err      error
}

// Result is a completed application execution.
type Result struct {
	App             string
	Outputs         map[afg.TaskID]tasklib.Value
	TaskResults     map[afg.TaskID]TaskResult
	Makespan        time.Duration
	Rescheduled     int // number of per-task reschedule events
	FrontierReplans int // number of whole-frontier re-plan events
}

// Rescheduler supplies a fresh assignment when a task's host is failed or
// overloaded — the paper's "sends a task rescheduling request to the Group
// Manager". exclude lists the hosts this task already tried plus every host
// the execution knows dead.
type Rescheduler func(ctx context.Context, task *afg.Task, exclude []string) (scheduler.Assignment, error)

// FrontierReplan re-plans every task that can still move after a host
// failure — the Group Manager's frontier rescheduling path (§2.3.1), backed
// by a scheduler.Replanner. settled lists tasks whose placements must be
// preserved (finished, or started on a host not known dead); down is every
// host the execution knows dead so far, sorted; the returned map carries
// the new assignments for the frontier. An error falls back to the per-task
// Rescheduler.
type FrontierReplan func(ctx context.Context, g *afg.Graph, table *scheduler.AllocationTable, settled map[afg.TaskID]bool, down []string) (map[afg.TaskID]scheduler.Assignment, error)

// Options configures an execution.
type Options struct {
	// Registry resolves task functions; nil uses tasklib.Default().
	Registry *tasklib.Registry
	// Hosts resolves a host name from the allocation table to its
	// simulated machine. Required.
	Hosts func(name string) *resource.Host
	// Net injects WAN delays on cross-site transfers (socket mode) and is
	// informational otherwise. May be nil.
	Net *netsim.Network
	// Gate is the console service; nil means never paused.
	Gate *datamgr.Gate
	// UseSockets ships inter-task values through Data Manager
	// communication proxies (real TCP). False hands values over in
	// memory — the fast path for scheduler-focused experiments.
	UseSockets bool
	// LoadThreshold is the QoS bound: a task landing on a host whose
	// current load exceeds it is rescheduled ("If the current load on any
	// of these machines is more than a predefined threshold value").
	// 0 disables the check.
	LoadThreshold float64
	// Reschedule handles failed/overloaded placements; nil fails the task.
	Reschedule Rescheduler
	// FrontierReplan, if set, re-plans the whole frontier when a host
	// fails, before the per-task Reschedule fallback patches the one
	// failing task. Re-plans run one at a time, each told every host known
	// dead so far, at most one per newly learnt host.
	FrontierReplan FrontierReplan
	// Deviations, if set, feeds monitor-reported failed-host names into the
	// execution: each received host joins the dead set and triggers a
	// frontier re-plan even before any of this application's tasks touches
	// it. The channel is drained until closed or the execution ends.
	Deviations <-chan string
	// RemoteExec runs a task whose assigned host is not locally
	// resolvable — the cross-site execution path: the local Application
	// Controller forwards the invocation to the owning site's Manager
	// (over RPC in multi-process deployments). nil means unresolvable
	// hosts are an error.
	RemoteExec func(ctx context.Context, assign scheduler.Assignment, task *afg.Task, inputs []tasklib.Value) (tasklib.Value, error)
	// MaxAttempts bounds placements per task (0 = 3).
	MaxAttempts int
	// OnTaskDone, if set, observes each task completion (visualization
	// service feed).
	OnTaskDone func(TaskResult)
}

type taskOutcome struct {
	id  afg.TaskID
	val tasklib.Value
	res TaskResult
}

// Execute runs a scheduled application to completion.
func Execute(ctx context.Context, g *afg.Graph, table *scheduler.AllocationTable, opts Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if opts.Hosts == nil {
		return nil, fmt.Errorf("runtime: Options.Hosts is required")
	}
	if opts.Registry == nil {
		opts.Registry = tasklib.Default()
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	for _, id := range g.TaskIDs() {
		if _, ok := table.Get(id); !ok {
			return nil, fmt.Errorf("runtime: task %q missing from allocation table", id)
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	env, err := newExecEnv(g, table, opts)
	if err != nil {
		return nil, err
	}
	defer env.close()

	if opts.Deviations != nil {
		go func() {
			for {
				select {
				case h, ok := <-opts.Deviations:
					if !ok {
						return
					}
					env.hostFailed(ctx, h)
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	start := time.Now()
	outcomes := make(chan taskOutcome, g.Len())
	var wg sync.WaitGroup
	for _, id := range g.TaskIDs() {
		wg.Add(1)
		go func(id afg.TaskID) {
			defer wg.Done()
			env.runTask(ctx, id, outcomes)
		}(id)
	}
	go func() {
		wg.Wait()
		close(outcomes)
	}()

	res := &Result{
		App:         g.Name,
		Outputs:     make(map[afg.TaskID]tasklib.Value, g.Len()),
		TaskResults: make(map[afg.TaskID]TaskResult, g.Len()),
	}
	var firstErr error
	for o := range outcomes {
		res.TaskResults[o.id] = o.res
		res.Rescheduled += o.res.Attempts - 1
		if o.res.Err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("task %q: %w", o.id, o.res.Err)
				cancel() // abort the rest of the application
			}
			continue
		}
		res.Outputs[o.id] = o.val
		if opts.OnTaskDone != nil {
			opts.OnTaskDone(o.res)
		}
	}
	res.Makespan = time.Since(start)
	res.FrontierReplans = env.replanCount()
	if firstErr != nil {
		return res, firstErr
	}
	return res, nil
}

// execEnv is the per-application execution environment (Fig 7): the wiring
// that moves values between tasks, in memory or through sockets.
type execEnv struct {
	g     *afg.Graph
	table *scheduler.AllocationTable
	opts  Options

	// Live placement state: the current assignment per task (re-plans and
	// reschedules move it), which tasks have started and which delivered,
	// and the execution-wide dead set — every host a task found failed or
	// the monitor reported — with the subset some re-plan was already told
	// about. replanning is a one-slot semaphore serialising re-plans, so a
	// second discoverer waits for the first one's assignments instead of
	// racing past them.
	mu         sync.Mutex
	cur        map[afg.TaskID]scheduler.Assignment
	started    map[afg.TaskID]bool
	finished   map[afg.TaskID]bool
	dead       map[string]bool
	planned    map[string]bool
	replans    int
	replanning chan struct{}

	// in-memory mode: one buffered channel per link.
	mem map[afg.Link]chan tasklib.Value

	// socket mode: one communication proxy per task.
	proxies map[afg.TaskID]*datamgr.Proxy
}

func newExecEnv(g *afg.Graph, table *scheduler.AllocationTable, opts Options) (*execEnv, error) {
	env := &execEnv{
		g: g, table: table, opts: opts,
		cur:      make(map[afg.TaskID]scheduler.Assignment, g.Len()),
		started:  make(map[afg.TaskID]bool, g.Len()),
		finished: make(map[afg.TaskID]bool, g.Len()),
		dead:     make(map[string]bool),
		planned:  make(map[string]bool),
	}
	env.replanning = make(chan struct{}, 1)
	for _, id := range g.TaskIDs() {
		a, _ := table.Get(id)
		env.cur[id] = a
	}
	if !opts.UseSockets {
		env.mem = make(map[afg.Link]chan tasklib.Value)
		for _, l := range g.Links() {
			env.mem[l] = make(chan tasklib.Value, 1)
		}
		return env, nil
	}
	// Phase 1 (Fig 7 steps 1–2): activate a Data Manager proxy per task.
	env.proxies = make(map[afg.TaskID]*datamgr.Proxy, g.Len())
	for _, id := range g.TaskIDs() {
		a, _ := table.Get(id)
		p, err := datamgr.NewProxy(string(id), a.Site, opts.Net)
		if err != nil {
			env.close()
			return nil, err
		}
		env.proxies[id] = p
	}
	// Phase 2 (steps 3–4): create point-to-point channels parent→child and
	// collect the acknowledgements; ConnectTo returning nil is the ACK.
	for _, l := range g.Links() {
		child := env.proxies[l.To]
		ca, _ := table.Get(l.To)
		if err := env.proxies[l.From].ConnectTo(datamgr.PeerInfo{
			Task: string(l.To),
			Addr: child.Addr(),
			Site: ca.Site,
		}); err != nil {
			env.close()
			return nil, fmt.Errorf("runtime: channel setup %s->%s: %w", l.From, l.To, err)
		}
	}
	// All ACKs in: the caller proceeding to runTask goroutines is the
	// execution startup signal (step 5).
	return env, nil
}

// claim marks the task started and returns its current assignment — which a
// frontier re-plan may have moved since the table was multicast.
func (e *execEnv) claim(id afg.TaskID) scheduler.Assignment {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.started[id] = true
	return e.cur[id]
}

// settledLocked reports whether a re-plan must leave the task where it is:
// it delivered, or it started on a host not known dead. A task claimed on a
// dead host is frontier — its result is or will be lost. Caller holds mu.
func (e *execEnv) settledLocked(id afg.TaskID) bool {
	return e.finished[id] || (e.started[id] && !e.dead[e.cur[id].Host])
}

// hostFailed adds host to the dead set and, unless an earlier re-plan was
// already told about it, re-plans the frontier around every host known dead
// so far, installing the new assignment of each task still free to move.
// Re-plans run one at a time: when this returns, any re-plan that knew
// about host has finished installing.
func (e *execEnv) hostFailed(ctx context.Context, host string) {
	e.mu.Lock()
	e.dead[host] = true
	e.mu.Unlock()
	if e.opts.FrontierReplan == nil {
		return
	}
	select {
	case e.replanning <- struct{}{}:
		defer func() { <-e.replanning }()
	case <-ctx.Done():
		return
	}
	e.mu.Lock()
	if e.planned[host] {
		e.mu.Unlock()
		return
	}
	down := e.deadLocked()
	for _, h := range down {
		e.planned[h] = true
	}
	settled := make(map[afg.TaskID]bool, len(e.started))
	for id := range e.started {
		if e.settledLocked(id) {
			settled[id] = true
		}
	}
	e.mu.Unlock()
	moved, err := e.opts.FrontierReplan(ctx, e.g, e.table, settled, down)
	if err != nil || len(moved) == 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.replans++
	for id, a := range moved {
		if !e.settledLocked(id) {
			e.cur[id] = a
		}
	}
}

// reassigned re-reads a failed task's assignment after hostFailed; ok is
// false when it still names a host known dead (no re-plan moved the task,
// or one moved it onto a host that has since died too).
func (e *execEnv) reassigned(id afg.TaskID) (a scheduler.Assignment, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	a = e.cur[id]
	return a, !e.dead[a.Host]
}

// deadLocked returns the dead set, sorted. Caller holds mu.
func (e *execEnv) deadLocked() []string {
	down := make([]string, 0, len(e.dead))
	for h := range e.dead {
		down = append(down, h)
	}
	sort.Strings(down)
	return down
}

// reschedule is the per-task path: a fresh assignment from the Rescheduler,
// excluding every host known dead and the hosts this task tried.
func (e *execEnv) reschedule(ctx context.Context, task *afg.Task, tried []string) (scheduler.Assignment, error) {
	e.mu.Lock()
	exclude := e.deadLocked()
	for _, h := range tried {
		if !e.dead[h] {
			exclude = append(exclude, h)
		}
	}
	e.mu.Unlock()
	a, err := e.opts.Reschedule(ctx, task, exclude)
	if err == nil {
		e.mu.Lock()
		e.cur[task.ID] = a
		e.mu.Unlock()
	}
	return a, err
}

// finish marks the task delivered: no re-plan may move it any more.
func (e *execEnv) finish(id afg.TaskID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.finished[id] = true
}

func (e *execEnv) replanCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.replans
}

func (e *execEnv) close() {
	ids := make([]afg.TaskID, 0, len(e.proxies))
	for id := range e.proxies {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		e.proxies[id].Close()
	}
}

// gatherInputs blocks until all parent values have arrived, returning them
// in deterministic parent-link order.
func (e *execEnv) gatherInputs(ctx context.Context, id afg.TaskID) ([]tasklib.Value, error) {
	parents := e.g.Parents(id)
	if len(parents) == 0 {
		return nil, nil
	}
	if !e.opts.UseSockets {
		vals := make([]tasklib.Value, len(parents))
		for i, l := range parents {
			select {
			case v := <-e.mem[l]:
				vals[i] = v
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return vals, nil
	}
	proxy := e.proxies[id]
	byFrom := make(map[string]tasklib.Value, len(parents))
	type recvResult struct {
		m  datamgr.Message
		ok bool
	}
	for len(byFrom) < len(parents) {
		ch := make(chan recvResult, 1)
		go func() {
			m, ok := proxy.Recv()
			ch <- recvResult{m, ok}
		}()
		select {
		case r := <-ch:
			if !r.ok {
				return nil, fmt.Errorf("runtime: channel closed while gathering inputs for %q", id)
			}
			v, err := tasklib.DecodeValue(r.m.Payload)
			if err != nil {
				return nil, err
			}
			byFrom[r.m.From] = v
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	vals := make([]tasklib.Value, len(parents))
	for i, l := range parents {
		vals[i] = byFrom[string(l.From)]
	}
	return vals, nil
}

// deliver sends a task's output to all its children.
func (e *execEnv) deliver(ctx context.Context, id afg.TaskID, v tasklib.Value) error {
	children := e.g.Children(id)
	if !e.opts.UseSockets {
		for _, l := range children {
			select {
			case e.mem[l] <- v:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	}
	payload, err := v.Encode()
	if err != nil {
		return err
	}
	proxy := e.proxies[id]
	for _, l := range children {
		if err := proxy.Send(string(l.To), payload); err != nil {
			return err
		}
	}
	return nil
}

// runTask executes one task: gather inputs, wait at the console gate, pick
// (and if necessary re-pick) a host, run the function, deliver outputs.
func (e *execEnv) runTask(ctx context.Context, id afg.TaskID, out chan<- taskOutcome) {
	task := e.g.Task(id)
	res := TaskResult{Task: id}
	fail := func(err error) {
		res.Err = err
		out <- taskOutcome{id: id, res: res}
	}

	inputs, err := e.gatherInputs(ctx, id)
	if err != nil {
		fail(err)
		return
	}
	if e.opts.Gate != nil {
		if err := e.opts.Gate.Wait(ctx); err != nil {
			fail(err)
			return
		}
	}

	assign := e.claim(id)
	var tried []string
	begin := time.Now()
	res.Started = begin
	for attempt := 1; ; attempt++ {
		res.Attempts = attempt
		if attempt > e.opts.MaxAttempts {
			fail(fmt.Errorf("%w (%d attempts, hosts %v)", ErrTooManyRetries, attempt-1, tried))
			return
		}
		host := e.opts.Hosts(assign.Host)
		if host == nil {
			if e.opts.RemoteExec == nil {
				fail(fmt.Errorf("%w: %q", ErrUnknownHost, assign.Host))
				return
			}
			val, err := e.opts.RemoteExec(ctx, assign, task, inputs)
			if err != nil {
				fail(fmt.Errorf("runtime: remote execution on %s/%s: %w", assign.Site, assign.Host, err))
				return
			}
			e.finish(id)
			res.Host = assign.Host
			res.Site = assign.Site
			res.Elapsed = time.Since(begin)
			if err := e.deliver(ctx, id, val); err != nil {
				fail(err)
				return
			}
			out <- taskOutcome{id: id, val: val, res: res}
			return
		}
		placeErr := e.checkPlacement(host)
		if placeErr == nil {
			val, runErr := e.runOn(ctx, host, task, inputs)
			if runErr == nil && host.IsDown() {
				// The host died while the task ran: its result is lost,
				// exactly the failure Fig 6's keep-alive packets detect.
				runErr = ErrHostFailed
			}
			if runErr == nil {
				e.finish(id)
				res.Host = assign.Host
				res.Site = assign.Site
				res.Elapsed = time.Since(begin)
				if err := e.deliver(ctx, id, val); err != nil {
					fail(err)
					return
				}
				out <- taskOutcome{id: id, val: val, res: res}
				return
			}
			if !errors.Is(runErr, ErrHostFailed) && !errors.Is(runErr, ErrOverloaded) {
				fail(runErr) // genuine task error: no point rescheduling
				return
			}
			placeErr = runErr
		}
		// Host unusable: request rescheduling. A dead host joins the
		// execution's dead set and the frontier — this task included — is
		// re-planned around the whole set; retry where that put the task
		// unless that host is known dead too, in which case (as for an
		// overloaded host) fall through to the per-task path.
		tried = append(tried, assign.Host)
		if errors.Is(placeErr, ErrHostFailed) {
			e.hostFailed(ctx, assign.Host)
			if na, ok := e.reassigned(id); ok {
				assign = na
				continue
			}
		}
		if e.opts.Reschedule == nil {
			fail(fmt.Errorf("%w: host %s: %v", ErrNoReschedule, assign.Host, placeErr))
			return
		}
		na, err := e.reschedule(ctx, task, tried)
		if err != nil {
			fail(fmt.Errorf("runtime: reschedule %q: %w", id, err))
			return
		}
		assign = na
	}
}

// checkPlacement enforces the Application Controller's QoS checks before a
// task starts on a host.
func (e *execEnv) checkPlacement(h *resource.Host) error {
	if h.IsDown() {
		return ErrHostFailed
	}
	if e.opts.LoadThreshold > 0 && h.Load() > e.opts.LoadThreshold {
		return ErrOverloaded
	}
	return nil
}

// runOn claims the host, executes the task function, and releases the host.
func (e *execEnv) runOn(ctx context.Context, h *resource.Host, task *afg.Task, inputs []tasklib.Value) (tasklib.Value, error) {
	if err := h.BeginTask(task.MemReq); err != nil {
		// A full host is not a dead host: only a host that is down joins
		// the dead set; this task alone goes elsewhere when memory is short.
		if errors.Is(err, resource.ErrHostDown) {
			return tasklib.Value{}, fmt.Errorf("%w: %v", ErrHostFailed, err)
		}
		return tasklib.Value{}, fmt.Errorf("%w: %v", ErrOverloaded, err)
	}
	defer h.EndTask(task.MemReq)
	procs := 1
	if task.Mode == afg.Parallel {
		procs = task.Processors
	}
	return e.opts.Registry.Execute(ctx, task.Function, tasklib.Args{
		Params:     task.Params,
		Inputs:     inputs,
		Processors: procs,
	})
}

// ExitOutputs filters a result down to the graph's exit-task outputs — the
// values the I/O/visualization services present to the user.
func ExitOutputs(g *afg.Graph, r *Result) map[afg.TaskID]tasklib.Value {
	out := make(map[afg.TaskID]tasklib.Value)
	var exits []afg.TaskID
	exits = append(exits, g.Exits()...)
	sort.Slice(exits, func(i, j int) bool { return exits[i] < exits[j] })
	for _, id := range exits {
		if v, ok := r.Outputs[id]; ok {
			out[id] = v
		}
	}
	return out
}
