// Package runtime implements the VDCE Runtime System's application
// execution plane (paper §2.3): the Application Controller sets up the
// execution environment for a scheduled application (activating Data
// Managers, creating point-to-point communication channels, collecting
// acknowledgements, and releasing the execution startup signal — Fig 7),
// runs every task on its assigned machine, and maintains the performance
// and fault-tolerance requirements: a task on an overloaded or failed host
// is terminated and rescheduled through the Group Manager (§2.3.1).
//
// A task starts when its last parent delivers. Each task counts the parents
// that have not delivered yet, and the parent that takes a child's count to
// zero readies it — the ready rule the scheduler's executor and validator
// run on the same afg.Index. A task runs on the goroutine of the parent that
// readied it last, not on a new one, unless that parent readied another child
// after it. So an execution's goroutines are its running tasks, a chain runs
// on one, and none is parked waiting for inputs or a channel per link.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
	Elapsed  time.Duration // placement attempts + execution
	Attempts int           // 1 = no rescheduling was needed
	Err      error
}

// Result is a completed application execution. Outputs and TaskResults are
// the execution's own per-task slots, indexed by afg.Index position, which
// is sorted task-id order; Output and TaskResult read them by id.
type Result struct {
	App             string
	Outputs         []tasklib.Value // the zero Value for a task with no output
	TaskResults     []TaskResult
	Makespan        time.Duration
	Rescheduled     int // number of per-task reschedule events
	FrontierReplans int // number of whole-frontier re-plan events
	// FrontierRefusals counts FrontierReplan calls that returned an error;
	// each left the frontier as it was, to the per-task Reschedule.
	FrontierRefusals int

	ix *afg.Index
}

// Output returns task id's output: the zero Value for a task that failed or
// never ran, which has none, or that the graph does not have.
func (r *Result) Output(id afg.TaskID) tasklib.Value {
	if i := r.ix.Of(id); i >= 0 {
		return r.Outputs[i]
	}
	return tasklib.Value{}
}

// TaskResult returns task id's outcome, the zero TaskResult for a task the
// graph does not have.
func (r *Result) TaskResult(id afg.TaskID) TaskResult {
	if i := r.ix.Of(id); i >= 0 {
		return r.TaskResults[i]
	}
	return TaskResult{}
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
	// MaxAttempts bounds the dispatches of one task (0 = 3); moving a task
	// off a host known dead dispatches nothing.
	MaxAttempts int
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

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	env, err := newExecEnv(g, table, opts, cancel)
	if err != nil {
		return nil, err
	}
	defer env.close()
	// A cancelled run closes the proxies, so a child reading its own stops.
	defer context.AfterFunc(ctx, env.close)()

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
	for i := range env.ix.Len() {
		if env.ix.NumParents(i) == 0 {
			env.launch(ctx, i)
		}
	}
	env.wg.Wait()

	res := &Result{App: g.Name, Outputs: env.vals, TaskResults: env.results, Makespan: time.Since(start), ix: env.ix}
	res.FrontierReplans, res.FrontierRefusals = env.replanCounts()
	for i := range env.results {
		tr := &env.results[i]
		if tr.Task == "" {
			// No parent launched the task, because an upstream task failed.
			*tr = TaskResult{Task: env.ix.ID(i), Err: ctx.Err()}
		}
		if tr.Err != nil {
			env.vals[i] = tasklib.Value{}
		}
		res.Rescheduled += max(tr.Attempts-1, 0) // a task that never reached a host moved nowhere
	}
	return res, env.firstErr
}

// execEnv is the per-application execution environment (Fig 7): the wiring
// that moves values between tasks, in memory or through sockets, and the
// ready rule that starts each task once its inputs are there. Every slice
// is indexed by the task's dense afg.Index position.
type execEnv struct {
	g     *afg.Graph
	ix    *afg.Index
	table *scheduler.AllocationTable
	opts  Options

	// The ready rule: pending[i] counts task i's parents that have not
	// delivered yet, and the parent that takes it to zero readies i. wg
	// counts the task goroutines still running.
	pending []atomic.Int32
	wg      sync.WaitGroup

	// Task i's outcome and output, each written once by the goroutine that
	// ran it. vals[i] is written before any child's count drops, so in
	// memory mode a launched child reads its inputs there.
	results []TaskResult
	vals    []tasklib.Value

	// socket mode: one communication proxy per task.
	proxies   []*datamgr.Proxy
	closeOnce sync.Once

	// Live placement state: the current assignment per task (re-plans and
	// reschedules move it), which tasks have started and which delivered,
	// and the execution-wide dead set — every host a task found failed or
	// the monitor reported — with the subset some re-plan was already told
	// about. replanning is a one-slot semaphore serialising re-plans, so a
	// second discoverer waits for the first one's assignments instead of
	// racing past them. firstErr is the first task error; it cancels the run.
	mu         sync.Mutex
	firstErr   error
	cancel     context.CancelFunc
	cur        []scheduler.Assignment
	started    []bool
	finished   []bool
	dead       map[string]bool
	planned    map[string]bool
	replans    int
	refusals   int
	replanning chan struct{}
}

func newExecEnv(g *afg.Graph, table *scheduler.AllocationTable, opts Options, cancel context.CancelFunc) (*execEnv, error) {
	ix, err := g.Index()
	if err != nil {
		return nil, err
	}
	n := ix.Len()
	env := &execEnv{
		g: g, ix: ix, table: table, opts: opts, cancel: cancel,
		pending:    make([]atomic.Int32, n),
		results:    make([]TaskResult, n),
		vals:       make([]tasklib.Value, n),
		cur:        make([]scheduler.Assignment, n),
		started:    make([]bool, n),
		finished:   make([]bool, n),
		dead:       make(map[string]bool),
		planned:    make(map[string]bool),
		replanning: make(chan struct{}, 1),
	}
	for i, id := range ix.IDs() {
		a, ok := table.Get(id)
		if !ok {
			return nil, fmt.Errorf("runtime: task %q missing from allocation table", id)
		}
		env.cur[i] = a
		env.pending[i].Store(int32(ix.NumParents(i)))
	}
	if !opts.UseSockets {
		return env, nil
	}
	// Phase 1 (Fig 7 steps 1–2): activate a Data Manager proxy per task.
	env.proxies = make([]*datamgr.Proxy, n)
	for i, id := range ix.IDs() {
		p, err := datamgr.NewProxy(string(id), env.cur[i].Site, opts.Net)
		if err != nil {
			env.close()
			return nil, err
		}
		env.proxies[i] = p
	}
	// Phase 2 (steps 3–4): create point-to-point channels parent→child and
	// collect the acknowledgements; ConnectTo returning nil is the ACK.
	for i, p := range env.proxies {
		for _, a := range ix.Children(i) {
			c := int(a.Peer)
			if err := p.ConnectTo(datamgr.PeerInfo{
				Task: string(ix.ID(c)),
				Addr: env.proxies[c].Addr(),
				Site: env.cur[c].Site,
			}); err != nil {
				env.close()
				return nil, fmt.Errorf("runtime: channel setup %s->%s: %w", ix.ID(i), ix.ID(c), err)
			}
		}
	}
	// All ACKs in: the caller launching the entry tasks is the execution
	// startup signal (step 5).
	return env, nil
}

// launch starts task i, whose last parent has just delivered (or which has
// none), on a goroutine that goes on with the child each task hands it.
func (e *execEnv) launch(ctx context.Context, i int) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for i >= 0 {
			i = e.runTask(ctx, i)
		}
	}()
}

// claim marks the task started and returns its current assignment — which a
// frontier re-plan may have moved since the table was multicast, or since the
// task found its host failed — and whether its host is not known dead.
func (e *execEnv) claim(i int) (a scheduler.Assignment, live bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.started[i] = true
	return e.cur[i], !e.dead[e.cur[i].Host]
}

// settledLocked reports whether a re-plan must leave the task where it is:
// it delivered, or it started on a host not known dead. A task claimed on a
// dead host is frontier — its result is or will be lost. Caller holds mu.
func (e *execEnv) settledLocked(i int) bool {
	return e.finished[i] || (e.started[i] && !e.dead[e.cur[i].Host])
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
	settled := make(map[afg.TaskID]bool)
	for i, id := range e.ix.IDs() {
		if e.settledLocked(i) {
			settled[id] = true
		}
	}
	e.mu.Unlock()
	moved, err := e.opts.FrontierReplan(ctx, e.g, e.table, settled, down)
	e.mu.Lock()
	defer e.mu.Unlock()
	if err != nil {
		e.refusals++
		return
	}
	if len(moved) == 0 {
		return
	}
	e.replans++
	for i, id := range e.ix.IDs() {
		if a, ok := moved[id]; ok && !e.settledLocked(i) {
			e.cur[i] = a
		}
	}
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
func (e *execEnv) reschedule(ctx context.Context, i int, tried []string) (scheduler.Assignment, error) {
	e.mu.Lock()
	exclude := e.deadLocked()
	for _, h := range tried {
		if !e.dead[h] {
			exclude = append(exclude, h)
		}
	}
	e.mu.Unlock()
	a, err := e.opts.Reschedule(ctx, e.ix.Task(i), exclude)
	if err == nil {
		e.mu.Lock()
		e.cur[i] = a
		e.mu.Unlock()
	}
	return a, err
}

// finish marks the task delivered: no re-plan may move it any more.
func (e *execEnv) finish(i int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.finished[i] = true
}

func (e *execEnv) replanCounts() (replans, refusals int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.replans, e.refusals
}

// close shuts every proxy, once; a second caller waits for the first.
func (e *execEnv) close() {
	e.closeOnce.Do(func() {
		for _, p := range e.proxies {
			if p != nil {
				p.Close()
			}
		}
	})
}

// gatherInputs returns the task's inputs in input-port order. Every parent
// has delivered by the time the task is launched: in memory its output slot
// is written; over sockets its Send has returned, so the value is on its way
// to this task's proxy.
func (e *execEnv) gatherInputs(ctx context.Context, i int) ([]tasklib.Value, error) {
	parents := e.ix.Parents(i)
	if len(parents) == 0 {
		return nil, nil
	}
	vals := make([]tasklib.Value, len(parents))
	if e.proxies == nil {
		for k, a := range parents {
			vals[k] = e.vals[a.Peer]
		}
		return vals, nil
	}
	for range parents {
		m, ok := e.proxies[i].Recv()
		if !ok {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("runtime: channel closed while gathering inputs for %q", e.ix.ID(i))
		}
		from := int32(e.ix.Of(afg.TaskID(m.From)))
		k := slices.IndexFunc(parents, func(a afg.Arc) bool { return a.Peer == from })
		if k < 0 {
			return nil, fmt.Errorf("runtime: input for %q from %q, which is not its parent", e.ix.ID(i), m.From)
		}
		v, err := tasklib.DecodeValue(m.Payload)
		if err != nil {
			return nil, err
		}
		vals[k] = v
	}
	return vals, nil
}

// deliver hands the task's output to its children — into its output slot,
// or through its proxy to each child's — and readies every child whose count
// of parents still to deliver this takes to zero. It launches each readied
// child but the last, which it returns for the caller to run (-1 if none).
func (e *execEnv) deliver(ctx context.Context, i int, v tasklib.Value) (next int, err error) {
	e.vals[i] = v
	var payload []byte
	if e.proxies != nil {
		if payload, err = v.Encode(); err != nil {
			return -1, err
		}
	}
	next = -1
	for _, a := range e.ix.Children(i) {
		c := int(a.Peer)
		if e.proxies != nil {
			if err := e.proxies[i].Send(string(e.ix.ID(c)), payload); err != nil {
				return -1, err
			}
		}
		if e.pending[c].Add(-1) == 0 {
			if next >= 0 {
				e.launch(ctx, next)
			}
			next = c
		}
	}
	return next, nil
}

// runTask runs one readied task and records its outcome; a task that
// succeeds delivers its output first, and one that fails cancels the run.
// It returns the readied child to run next, or -1.
func (e *execEnv) runTask(ctx context.Context, i int) int {
	res := TaskResult{Task: e.ix.ID(i)}
	val, err := e.place(ctx, i, &res)
	next := -1
	if err == nil {
		next, err = e.deliver(ctx, i, val)
	}
	res.Err = err
	e.results[i] = res
	if err != nil {
		e.mu.Lock()
		if e.firstErr == nil {
			e.firstErr = fmt.Errorf("task %q: %w", res.Task, err)
		}
		e.mu.Unlock()
		e.cancel() // abort the rest of the application
		return -1
	}
	return next
}

// place gathers the task's inputs, waits at the console gate, picks (and if
// necessary re-picks) a host, and runs the function there.
func (e *execEnv) place(ctx context.Context, i int, res *TaskResult) (tasklib.Value, error) {
	if err := ctx.Err(); err != nil {
		return tasklib.Value{}, err
	}
	inputs, err := e.gatherInputs(ctx, i)
	if err != nil {
		return tasklib.Value{}, err
	}
	if e.opts.Gate != nil {
		if err := e.opts.Gate.Wait(ctx); err != nil {
			return tasklib.Value{}, err
		}
	}

	task := e.ix.Task(i)
	assign, live := e.claim(i)
	var tried []string
	begin := time.Now()
	res.Attempts = 1
	// Each pass places the task once more; only a dispatch spends the retry
	// budget, so a host known dead is left at once, without one.
	for dispatched := 0; ; res.Attempts++ {
		err := ErrHostFailed
		if live {
			if dispatched++; dispatched > e.opts.MaxAttempts {
				return tasklib.Value{}, fmt.Errorf("%w (%d attempts, hosts %v)", ErrTooManyRetries, dispatched-1, tried)
			}
			var val tasklib.Value
			switch host := e.opts.Hosts(assign.Host); {
			case host != nil:
				val, err = e.runOn(ctx, host, task, inputs)
			case e.opts.RemoteExec == nil:
				return tasklib.Value{}, fmt.Errorf("%w: %q", ErrUnknownHost, assign.Host)
			default:
				// A remote failure is final: the task is not rescheduled.
				if val, err = e.opts.RemoteExec(ctx, assign, task, inputs); err != nil {
					return tasklib.Value{}, fmt.Errorf("runtime: remote execution on %s/%s: %w", assign.Site, assign.Host, err)
				}
			}
			if err == nil {
				e.finish(i)
				res.Host, res.Site, res.Elapsed = assign.Host, assign.Site, time.Since(begin)
				return val, nil
			}
			if !errors.Is(err, ErrHostFailed) && !errors.Is(err, ErrOverloaded) {
				return tasklib.Value{}, err // genuine task error: no point rescheduling
			}
			tried = append(tried, assign.Host)
		}
		// Host unusable: request rescheduling. A dead host joins the
		// execution's dead set and the frontier — this task included — is
		// re-planned around the whole set; retry where that put the task
		// unless that host is known dead too, in which case (as for an
		// overloaded host) fall through to the per-task path.
		if errors.Is(err, ErrHostFailed) {
			e.hostFailed(ctx, assign.Host)
			if assign, live = e.claim(i); live {
				continue
			}
		}
		if e.opts.Reschedule == nil {
			return tasklib.Value{}, fmt.Errorf("%w: host %s: %v", ErrNoReschedule, assign.Host, err)
		}
		if assign, err = e.reschedule(ctx, i, tried); err != nil {
			return tasklib.Value{}, fmt.Errorf("runtime: reschedule %q: %w", task.ID, err)
		}
		live = true
	}
}

// runOn runs the task on a local host under the Application Controller's
// QoS checks: ErrHostFailed or ErrOverloaded means the host could not, and
// the task may move.
func (e *execEnv) runOn(ctx context.Context, h *resource.Host, task *afg.Task, inputs []tasklib.Value) (tasklib.Value, error) {
	if h.IsDown() {
		return tasklib.Value{}, ErrHostFailed
	}
	if e.opts.LoadThreshold > 0 && h.Load() > e.opts.LoadThreshold {
		return tasklib.Value{}, ErrOverloaded
	}
	// Only a host that is down joins the dead set: a full one sends this task
	// elsewhere, and a request no host grants fails the task.
	switch err := h.BeginTask(task.MemReq); {
	case errors.Is(err, resource.ErrHostDown):
		return tasklib.Value{}, fmt.Errorf("%w: %v", ErrHostFailed, err)
	case errors.Is(err, resource.ErrOutOfMemory):
		return tasklib.Value{}, fmt.Errorf("%w: %v", ErrOverloaded, err)
	case err != nil:
		return tasklib.Value{}, err
	}
	defer h.EndTask(task.MemReq)
	procs := 1
	if task.Mode == afg.Parallel {
		procs = task.Processors
	}
	val, err := e.opts.Registry.Execute(ctx, task.Function, tasklib.Args{
		Params:     task.Params,
		Inputs:     inputs,
		Processors: procs,
	})
	if err == nil && h.IsDown() {
		// The host died while the task ran: its result is lost, exactly
		// the failure Fig 6's keep-alive packets detect.
		return tasklib.Value{}, ErrHostFailed
	}
	return val, err
}

// ExitOutputs filters a result down to the graph's exit-task outputs — the
// values the I/O/visualization services present to the user.
func ExitOutputs(g *afg.Graph, r *Result) map[afg.TaskID]tasklib.Value {
	out := make(map[afg.TaskID]tasklib.Value)
	for _, id := range g.Exits() {
		if i := r.ix.Of(id); i >= 0 && r.TaskResults[i].Err == nil {
			out[id] = r.Outputs[i]
		}
	}
	return out
}
