package main

import (
	"context"
	"fmt"
	"math"
	"net/rpc"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/afg"
	"repro/internal/core"
	"repro/internal/dagen"
	"repro/internal/netsim"
	vdceruntime "repro/internal/runtime"
	"repro/internal/scheduler"
	"repro/internal/site"
	"repro/internal/tasklib"
)

// workload is one named set of inputs; BENCHMARK.json and README.md say why
// each exists. setup builds everything an op needs from the seed —
// environment, graphs, servers — and runs the warm-up ops, so the whole of
// it is what setup_s measures.
type workload struct {
	name  string
	setup func(seed int64, small bool) (*instance, error)
}

// instance is one built workload. Op k runs input k % inputs; an input's
// results repeat exactly when it is run again, unless drifting is set.
type instance struct {
	inputs     int
	tasksPerOp int     // tasks scheduled (and, on submit, executed) by one op
	hosts      int     // hosts the scheduler chooses among
	genMs      float64 // dagen time inside setup
	drifting   bool    // ops change shared state (monitor ticks): results do not repeat
	op         func(input int, tr *tracer, parent int) (finish, error)
	close      func()
}

// finish runs after the op's clock has stopped: it checks the op's outputs
// and, in a traced op, replays stages that ran behind the RPC boundary.
type finish func() (opResult, error)

// opResult is what one op produced besides its wall time.
type opResult struct {
	// logSLR sums, over the op's tables, log(simulated makespan / a
	// reference makespan for the same graph: its lower bound, or on
	// churn-replan the plan's fault-free makespan). It repeats exactly for
	// (seed, input).
	logSLR float64
	tables int
	exact  map[string]float64 // counters that repeat exactly for (seed, input)
	loose  map[string]float64 // measurements that vary run to run
}

// score adds one table's simulated makespan to the op's schedule quality.
func (r *opResult) score(makespan, reference float64) {
	r.logSLR += math.Log(makespan / reference)
	r.tables++
}

var workloads = []workload{
	{"submit-local",
		func(seed int64, small bool) (*instance, error) {
			return setupSubmit(seed, submitConfig{tasks: pick(small, 120, 1000), graphs: 8, policy: "heft"})
		}},
	{"submit-2site",
		func(seed int64, small bool) (*instance, error) {
			return setupSubmit(seed, submitConfig{twoSite: true, tasks: pick(small, 80, 300), graphs: 8, policy: "eft"})
		}},
	{"plan-large",
		func(seed int64, small bool) (*instance, error) {
			return setupPlan(seed, pick(small, 300, 4000), 8, pick(small, 8, 64), pick(small, 2, 4))
		}},
	{"batch-policies",
		func(seed int64, small bool) (*instance, error) {
			return setupBatch(seed, pick(small, 150, 1000), pick(small, 8, 32), pick(small, 1, 2))
		}},
	{"churn-replan",
		func(seed int64, small bool) (*instance, error) {
			return setupChurn(seed, pick(small, 40, 50), pick(small, 6, 160))
		}},
}

func pick(small bool, s, full int) int {
	if small {
		return s
	}
	return full
}

// subSeed derives the seed of one generated input from the run's seed.
func subSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) }

// buildEnv adds the named sites, each with the same host count, to a fresh
// environment whose host speeds and load models derive from seed.
func buildEnv(seed int64, opts core.Options, names []string, hosts int) (*core.Environment, []*site.Manager, error) {
	opts.Seed = subSeed(seed, 1)
	env := core.NewEnvironment(opts)
	mgrs := make([]*site.Manager, len(names))
	for i, name := range names {
		m, err := env.AddSite(name, hosts)
		if err != nil {
			return nil, nil, err
		}
		mgrs[i] = m
	}
	return env, mgrs, nil
}

func siteNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("site%02d", i)
	}
	return out
}

// selectorsOf lists the managers' in-process Host Selection services.
func selectorsOf(mgrs []*site.Manager) []scheduler.HostSelector {
	out := make([]scheduler.HostSelector, len(mgrs))
	for i, m := range mgrs {
		out[i] = m.Selector
	}
	return out
}

// randomGraphs generates n dagen.Random graphs (alpha 1, out-degree 4) and
// returns them with the time generation took.
func randomGraphs(seed int64, n, tasks int, ccr func(i int) float64) ([]*afg.Graph, float64) {
	t0 := time.Now()
	out := make([]*afg.Graph, n)
	for i := range out {
		out[i] = dagen.Random(dagen.Params{Tasks: tasks, CCR: ccr(i), Alpha: 1, OutDegree: 4, Seed: subSeed(seed, 100+i)})
	}
	return out, msSince(t0)
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// lowerBound is the makespan no schedule of g can beat on the hosts truth
// describes, ignoring communication: the larger of the critical path on the
// fastest host and the total work spread over all hosts. truth is separable
// (base cost x a per-host factor), so one unit-cost probe per host suffices.
func lowerBound(g *afg.Graph, hosts []string, truth scheduler.TimeModel) (float64, error) {
	probe := &afg.Task{ID: "probe", ComputeCost: 1}
	fastest, rate := 0.0, 0.0
	for i, h := range hosts {
		f := truth(probe, h)
		if i == 0 || f < fastest {
			fastest = f
		}
		rate += 1 / f
	}
	cp, err := g.CriticalPathLength()
	if err != nil {
		return 0, err
	}
	return max(cp*fastest, g.TotalWork()/rate), nil
}

// warmUp runs the first n ops before anything is timed, to fill the
// prediction caches and scratch pools. Their outputs go unchecked: the same
// inputs are checked when the measured ops run them.
func warmUp(inst *instance, n int) error {
	for k := 0; k < n; k++ {
		if _, err := inst.op(k%inst.inputs, nil, -1); err != nil {
			return fmt.Errorf("warm-up op %d: %w", k, err)
		}
	}
	return nil
}

// --- submit-local, submit-2site ---------------------------------------------

type submitConfig struct {
	twoSite bool
	tasks   int
	graphs  int
	policy  string
}

// tracedPeer wraps the RPC peer for the traced replay, so that each
// Site.SelectHosts call made by the scheduler is a span. It is a plain
// HostSelector, like the RemoteSelector it wraps.
type tracedPeer struct {
	*site.RemoteSelector
	tr     *tracer
	parent int
}

func (p tracedPeer) SelectHosts(g *afg.Graph) (map[afg.TaskID]scheduler.Choice, error) {
	s := p.tr.begin("site.select_rpc", p.parent)
	defer p.tr.end(s)
	return p.RemoteSelector.SelectHosts(g)
}

func setupSubmit(seed int64, cfg submitConfig) (*instance, error) {
	opts := core.Options{SiteConfig: site.Config{Policy: cfg.policy}}
	names, hosts := []string{"syracuse"}, 16
	if cfg.twoSite {
		// Scale 1e-6 turns the modelled 5 ms WAN hop into a 5 ns sleep, so
		// injected delays stay far below 1 % of an op.
		opts.Net = netsim.NYNET(1e-6)
		names, hosts = []string{"syracuse", "rome"}, 8
	}
	env, mgrs, err := buildEnv(seed, opts, names, hosts)
	if err != nil {
		return nil, err
	}
	local := mgrs[0]

	var closers []func()
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	var peer *site.RemoteSelector
	var peers []*site.RemoteSelector
	if cfg.twoSite {
		addr, stop, err := mgrs[1].Serve("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		peer = site.NewRemoteSelector("rome", addr)
		peers = []*site.RemoteSelector{peer}
		closers = append(closers, stop, peer.Close)
	}
	addr, stop, err := local.ServeWithPeers("127.0.0.1:0", peers)
	if err != nil {
		closeAll()
		return nil, err
	}
	closers = append(closers, stop)
	client, err := rpc.Dial("tcp", addr)
	if err != nil {
		closeAll()
		return nil, err
	}
	closers = append(closers, func() { client.Close() })

	graphs, genMs := randomGraphs(seed, cfg.graphs, cfg.tasks, func(int) float64 { return 1 })
	truth, hostNames := env.TruthModel(), env.SortedHostNames()
	bounds := make([]float64, len(graphs))
	for i, g := range graphs {
		if bounds[i], err = lowerBound(g, hostNames, truth); err != nil {
			closeAll()
			return nil, err
		}
	}

	inst := &instance{inputs: len(graphs), tasksPerOp: cfg.tasks, hosts: env.HostCount(), genMs: genMs, close: closeAll}
	inst.op = func(input int, tr *tracer, parent int) (finish, error) {
		g := graphs[input]
		s := tr.begin("afg.encode", parent)
		data, err := g.Encode()
		tr.end(s)
		if err != nil {
			return nil, err
		}
		var reply site.SubmitReply
		s = tr.begin("site.submit_rpc", parent)
		err = client.Call("Site.Submit", site.SubmitArgs{AFG: data, Policy: cfg.policy}, &reply)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		return func() (opResult, error) {
			res := opResult{exact: map[string]float64{}, loose: map[string]float64{
				"encoded_bytes": float64(len(data)), "rescheduled": float64(reply.Rescheduled)}}
			table := scheduler.NewAllocationTableSized(g.Name, g.Len())
			remote := 0
			for _, id := range g.TaskIDs() {
				a, ok := reply.Table[id]
				if !ok {
					return res, fmt.Errorf("reply table misses task %s", id)
				}
				if a.Site != local.Site {
					remote++
				}
				table.Set(a)
			}
			if reply.Rescheduled != 0 {
				return res, fmt.Errorf("fault-free submit rescheduled %d tasks", reply.Rescheduled)
			}
			for _, id := range g.Exits() {
				if _, ok := reply.Outputs[id]; !ok {
					return res, fmt.Errorf("reply misses output of exit task %s", id)
				}
			}
			mk, err := scheduler.Simulate(g, table, truth, env.Net())
			if err != nil {
				return res, err
			}
			res.score(mk, bounds[input])
			res.exact["makespan."+cfg.policy] = mk
			res.exact["remote_tasks"] = float64(remote)
			if tr == nil {
				return res, nil
			}
			return res, replaySubmit(tr, local, peer, cfg.policy, data, res.loose)
		}, nil
	}
	// One pass over the inputs: the first submission of a graph allocates
	// four times what later ones do, its task costs being new to the site.
	if err := warmUp(inst, inst.inputs); err != nil {
		closeAll()
		return nil, err
	}
	return inst, nil
}

// replaySubmit reruns, in-process and on the bytes the RPC carried, the
// stages Site.Submit ran behind the RPC boundary, each as a span: decode,
// schedule under the same policy, execute. What the RPC took beyond their
// sum is the handler's own share (gob, loopback TCP, reply rendering).
// Execute gets the options Manager passes on a fault-free run; the
// rescheduling callbacks, which only a host failure reaches, are left out.
func replaySubmit(tr *tracer, local *site.Manager, peer *site.RemoteSelector, policy string, data []byte, loose map[string]float64) error {
	ctx := context.Background()
	root := tr.begin("replay", -1)
	defer tr.end(root)

	s := tr.begin("afg.decode", root)
	g, err := afg.Decode(data)
	tr.end(s)
	if err != nil {
		return err
	}

	s = tr.begin("scheduler.schedule."+policy, root)
	var remotes []scheduler.HostSelector
	if peer != nil {
		remotes = []scheduler.HostSelector{tracedPeer{peer, tr, s}}
	}
	table, err := local.SchedulePolicy(ctx, policy, g, remotes)
	tr.end(s)
	if err != nil {
		return err
	}

	s = tr.begin("runtime.execute", root)
	var calls atomic.Int64
	res, err := vdceruntime.Execute(ctx, g, table, vdceruntime.Options{
		Registry:    local.Registry,
		Hosts:       local.Host,
		Net:         local.Net,
		Gate:        local.Gate,
		MaxAttempts: local.Pool.Len() + 1,
		RemoteExec: func(ctx context.Context, a scheduler.Assignment, task *afg.Task, inputs []tasklib.Value) (tasklib.Value, error) {
			if peer == nil || a.Site != peer.Name {
				return tasklib.Value{}, fmt.Errorf("no peer for site %q", a.Site)
			}
			var bytes int64
			for _, v := range inputs {
				bytes += v.SizeBytes()
			}
			local.Net.InjectDelay(local.Site, a.Site, bytes)
			calls.Add(1)
			c := tr.begin("site.runtask_rpc", s)
			defer tr.end(c)
			return peer.RunTask(a.Host, task, inputs)
		},
	})
	tr.end(s)
	if err != nil {
		return err
	}
	loose["runtask_calls"] = float64(calls.Load())
	loose["rescheduled"] += float64(res.Rescheduled)
	loose["frontier_replans"] = float64(res.FrontierReplans)
	return nil
}

// --- plan-large ---------------------------------------------------------------

func setupPlan(seed int64, tasks, sites, hostsPerSite, graphCount int) (*instance, error) {
	env, mgrs, err := buildEnv(seed, core.Options{}, siteNames(sites), hostsPerSite)
	if err != nil {
		return nil, err
	}
	heft, err := scheduler.Lookup("heft")
	if err != nil {
		return nil, err
	}
	graphs, genMs := randomGraphs(seed, graphCount, tasks, func(int) float64 { return 1 })
	truth, hostNames := env.TruthModel(), env.SortedHostNames()
	encoded := make([][]byte, len(graphs))
	bounds := make([]float64, len(graphs))
	for i, g := range graphs {
		if encoded[i], err = g.Encode(); err != nil {
			return nil, err
		}
		if bounds[i], err = lowerBound(g, hostNames, truth); err != nil {
			return nil, err
		}
	}
	graphs = nil // the op sees bytes only
	selectors := selectorsOf(mgrs)
	validated := make([]bool, len(encoded))
	// Every op plans an application the sites have not seen. Each (task,
	// host) pair of a dagen.Random graph is its own entry in the prediction
	// memo, ~0.9 GB per graph at this size; left in place, a second pass
	// would find them all and the heap would hold every graph's at once.
	forgetPredictions := func() {
		for _, m := range mgrs {
			m.Cache.InvalidateAll()
		}
	}

	inst := &instance{inputs: len(encoded), tasksPerOp: tasks, hosts: env.HostCount(), genMs: genMs, close: func() {}}
	inst.op = func(input int, tr *tracer, parent int) (finish, error) {
		ctx := context.Background()
		s := tr.begin("afg.decode", parent)
		g, err := afg.Decode(encoded[input])
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("afg.index", parent)
		_, err = g.Index()
		tr.end(s)
		if err != nil {
			return nil, err
		}
		// A cache per op: entries are keyed by graph identity and every op
		// decodes a fresh graph.
		req := scheduler.NewRequest(g, selectors[0], selectors[1:], env.Net(), scheduler.WithCostCache(scheduler.NewCostCache()))
		s = tr.begin("scheduler.costs", parent)
		err = req.PrewarmCosts()
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("scheduler.place", parent)
		table, err := heft.Schedule(ctx, req)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("scheduler.simulate", parent)
		mk, err := scheduler.Simulate(g, table, truth, env.Net())
		tr.end(s)
		if err != nil {
			return nil, err
		}
		return func() (opResult, error) {
			forgetPredictions()
			res := opResult{exact: map[string]float64{"makespan.heft": mk},
				loose: map[string]float64{"encoded_bytes": float64(len(encoded[input]))}}
			res.score(mk, bounds[input])
			// The audit takes a third as long as the op it checks, so an
			// input is audited the first time it runs and whenever the op
			// is traced (for the span); other passes are held to the first
			// pass's makespan by the runner.
			if validated[input] && tr == nil {
				return res, nil
			}
			validated[input] = true
			s := tr.begin("scheduler.validate", -1)
			audit, err := scheduler.ValidateSchedule(g, table, truth, env.Net())
			tr.end(s)
			if err != nil {
				return res, err
			}
			if audit.Makespan != mk { // bit-for-bit agreement is the check
				return res, fmt.Errorf("ValidateSchedule makespan %v differs from Simulate %v", audit.Makespan, mk)
			}
			return res, nil
		}, nil
	}
	if err := warmUp(inst, 1); err != nil {
		return nil, err
	}
	forgetPredictions()
	return inst, nil
}

// --- batch-policies -------------------------------------------------------------

var batchPolicies = []string{"faithful", "eft", "ledger", "heft", "cpop"}

const batchGraphs = 6

func setupBatch(seed int64, tasks, sites, warm int) (*instance, error) {
	env, mgrs, err := buildEnv(seed, core.Options{}, siteNames(sites), 4)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	graphs := make([]*afg.Graph, batchGraphs)
	for i := range graphs {
		graphs[i] = dagen.Scale(tasks, 25, 12, subSeed(seed, 100+i))
	}
	genMs := msSince(t0)
	local, remotes := mgrs[0], selectorsOf(mgrs[1:])
	truth, hostNames := env.TruthModel(), env.SortedHostNames()
	validated := false

	// Rounds are not repeats of one another: each starts with a monitor
	// tick that moves every host's load. The first four timed rounds are
	// the inputs whose makespans are summed.
	inst := &instance{inputs: 4, drifting: true, tasksPerOp: tasks * batchGraphs * len(batchPolicies),
		hosts: env.HostCount(), genMs: genMs, close: func() {}}
	inst.op = func(_ int, tr *tracer, parent int) (finish, error) {
		before := local.Cache.Stats()
		s := tr.begin("monitor.tick", parent)
		env.TickMonitors()
		tr.end(s)
		items := make([][]scheduler.BatchItem, len(batchPolicies))
		for p, name := range batchPolicies {
			s := tr.begin("scheduler.schedule."+name, parent)
			items[p], err = local.ScheduleBatchOpts(graphs, remotes, site.BatchOptions{Policy: name})
			tr.end(s)
			if err != nil {
				return nil, err
			}
		}
		after := local.Cache.Stats()
		return func() (opResult, error) {
			res := opResult{exact: map[string]float64{}, loose: map[string]float64{
				"cache_hits":   float64(after.Hits - before.Hits),
				"cache_misses": float64(after.Misses - before.Misses)}}
			// The tick moved the loads truth reads, so bounds are per round.
			bounds := make([]float64, len(graphs))
			for i, g := range graphs {
				if bounds[i], err = lowerBound(g, hostNames, truth); err != nil {
					return res, err
				}
			}
			for p, name := range batchPolicies {
				for i, it := range items[p] {
					if it.Err != nil {
						return res, fmt.Errorf("%s graph %d: %w", name, i, it.Err)
					}
					mk, err := scheduler.Simulate(graphs[i], it.Table, truth, env.Net())
					if err != nil {
						return res, fmt.Errorf("%s graph %d: %w", name, i, err)
					}
					// The ledger policy's tables depend on how the batch
					// workers interleave, so they are checked and reported
					// per layer but kept out of what must repeat exactly.
					if name == "ledger" {
						res.loose["makespan.ledger"] += mk
					} else {
						res.exact["makespan."+name] += mk
						res.score(mk, bounds[i])
					}
					if !validated {
						if _, err := scheduler.ValidateSchedule(graphs[i], it.Table, truth, env.Net()); err != nil {
							return res, fmt.Errorf("%s graph %d: %w", name, i, err)
						}
					}
				}
			}
			validated = true
			return res, nil
		}, nil
	}
	return inst, warmUp(inst, warm)
}

// --- churn-replan ---------------------------------------------------------------

var churnReplanners = []string{"eft", "heft", "dup"}

const churnWarmUp = 32 // episodes run before anything is timed

// setupChurn builds one campaign: every episode, each with its own graph and
// churn trace. The campaign is the only input, so every op of a run does the
// same work and the median over ops filters the machine, not the inputs;
// what one episode costs varies with where its failures fall (coefficient of
// variation 0.45), and summing all of them in every op is what keeps seeds
// close to one another.
func setupChurn(seed int64, tasks, episodes int) (*instance, error) {
	env, mgrs, err := buildEnv(seed, core.Options{}, siteNames(4), 4)
	if err != nil {
		return nil, err
	}
	heft, err := scheduler.Lookup("heft")
	if err != nil {
		return nil, err
	}
	for _, name := range churnReplanners {
		if !slices.Contains(scheduler.Replanners(), name) {
			return nil, fmt.Errorf("re-planner %q is not registered (have %v)", name, scheduler.Replanners())
		}
	}
	graphs, genMs := randomGraphs(seed, episodes, tasks, func(i int) float64 {
		if i%2 == 0 {
			return 0.5
		}
		return 2
	})
	selectors := selectorsOf(mgrs)
	truth, hostNames := env.TruthModel(), env.SortedHostNames()
	var refs []scheduler.HostRef
	for _, m := range mgrs {
		for _, h := range m.Pool.Names() {
			refs = append(refs, scheduler.HostRef{Site: m.Site, Host: h})
		}
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Site != refs[j].Site {
			return refs[i].Site < refs[j].Site
		}
		return refs[i].Host < refs[j].Host
	})

	// episode plans graph e, scripts its failures and lives through them
	// under each re-planner, adding what came of it to res.
	episode := func(e int, tr *tracer, parent int, res *opResult) error {
		g := graphs[e]
		s := tr.begin("scheduler.schedule.heft", parent)
		table, err := heft.Schedule(context.Background(), scheduler.NewRequest(g, selectors[0], selectors[1:], env.Net()))
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("scheduler.simulate", parent)
		fair, err := scheduler.Simulate(g, table, truth, env.Net())
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("scheduler.churn_trace", parent)
		trace := scheduler.GenerateChurnTrace(hostNames, fair, scheduler.DefaultChurnTrace, subSeed(seed, 100_000+e))
		tr.end(s)
		for _, name := range churnReplanners {
			s := tr.begin("scheduler.runchurn."+name, parent)
			// RunChurn certifies every re-plan it adopts, so an
			// error-free return is the episode's check.
			out, err := scheduler.RunChurn(g, table, truth, env.Net(), refs, trace, scheduler.ChurnConfig{Replanner: name})
			tr.end(s)
			if err != nil {
				return fmt.Errorf("episode %d, re-planner %s: %w", e, name, err)
			}
			// Scored against the same plan's fault-free makespan, not
			// the lower bound: how far the bound lies below any real
			// schedule depends on the seed's host pool, which all
			// episodes share, while the degradation does not.
			res.score(out.Makespan, fair)
			res.exact["degradation."+name] += out.Makespan / fair
			res.exact["replans."+name] += float64(out.Replans)
			res.exact["moved."+name] += float64(out.Moved)
			res.exact["killed."+name] += float64(out.Killed)
			res.exact["dup_runs"] += float64(out.DupRuns)
		}
		res.exact["episodes"]++
		return nil
	}

	inst := &instance{inputs: 1, tasksPerOp: tasks * episodes, hosts: env.HostCount(), genMs: genMs, close: func() {}}
	inst.op = func(_ int, tr *tracer, parent int) (finish, error) {
		res := opResult{exact: map[string]float64{}}
		for e := range graphs {
			if err := episode(e, tr, parent, &res); err != nil {
				return nil, err
			}
		}
		return func() (opResult, error) { return res, nil }, nil
	}
	// A fifth of the campaign fills the scratch pools and the prediction
	// memo (task costs repeat across graphs). Fewer episodes would tie
	// setup_s to the seed, a whole campaign would make it nothing else.
	warm := opResult{exact: map[string]float64{}}
	for e := 0; e < min(churnWarmUp, episodes); e++ {
		if err := episode(e, nil, -1, &warm); err != nil {
			return nil, fmt.Errorf("warm-up episode %d: %w", e, err)
		}
	}
	return inst, nil
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
