// Package repro is a Go reproduction of "The Software Architecture of a
// Virtual Distributed Computing Environment" (Topcuoglu, Hariri, Furmanski,
// Valente et al., HPDC 1997): the VDCE metacomputing middleware — the
// Application Editor, the distributed Application Scheduler with its
// performance-prediction model, and the Runtime System (Control Manager +
// Data Manager) — plus the substrates it depends on (task libraries, site
// repositories, resource monitoring, a WAN model) and an evaluation harness
// reproducing every figure in the paper.
//
// Scheduling is organised around a pluggable policy API: every heuristic
// implements scheduler.Policy (Name + Schedule(ctx, *Request)) and
// registers by name, so algorithms are selected as data end to end — the
// Site.ScheduleBatch RPC, vdce-server -policy, vdce-submit -policy, and
// the experiments harness all take a policy name. Policy.Schedule is the
// only way to run an algorithm and the registered name the only selector of
// which one runs: a Request (NewRequest plus With* options) describes the
// environment, and scheduler.Batch{Policy, Env} runs one policy over many
// graphs against one such environment. Registered policies:
// the paper-faithful Site Scheduler ("faithful"), its earliest-finish-time
// variants ("eft", "ledger" — the latter with a shared cross-application
// load ledger), the HEFT and CPOP list-scheduling heuristics of Topcuoglu
// et al. ("heft", "cpop"), and the naive baselines ("random", "roundrobin",
// "minload", "fastest"). experiments.PolicyComparison scores them all by
// combined simulated makespan on one workload, and one incremental
// event-driven executor (near-linear in tasks and links on realistic
// allocations) does the scoring at scale: scheduler.Simulate is that
// executor with nothing scripted, scheduler.RunChurn the same loop under a
// fault script. The paper-faithful algorithm remains the default policy and
// the evaluation baseline.
//
// # Evaluation methodology
//
// The evaluation reproduces the authors' methodology, not just their
// architecture. internal/dagen generates seeded parametric DAGs from the
// classic knobs — task count, CCR (communication-to-computation ratio),
// shape α, out-degree, and host-heterogeneity range β — plus structured
// Gaussian-elimination and FFT task graphs; internal/metrics scores
// schedules by Schedule Length Ratio (makespan over the critical-path
// lower bound), speedup against the best serial host, efficiency, and
// pairwise better/equal/worse counts; and scheduler.ValidateSchedule is an
// independent, deliberately naive replay of the execution semantics that
// audits every allocation table for precedence feasibility, per-host
// mutual exclusion, and transfer-time accounting — it shares the graph's
// dense index with the executor and no code, and its per-task intervals
// must match the executor's bit for bit. The RANKING experiment sweeps the grid
// (sizes × CCRs) across every registered policy (vdce-bench -exp RANKING,
// with -ranking-sizes/-ranking-ccrs/-ranking-graphs and -json for
// machine-readable output); a fixed-seed golden run is committed under
// internal/experiments/testdata and enforced by a regression test with an
// -update re-blessing flag. Fuzz targets (FuzzDagenValid, FuzzGraphIndex)
// pin the generator and dense-index invariants.
//
// # Performance
//
// The scheduling core is dense: afg.Graph caches an integer-indexed view
// (Graph.Index — TaskID→int, CSR adjacency, topological order), per-(task,
// host) predictions sit in one contiguous CostMatrix built in a single
// batched pass and shared across policies via a CostCache, ranks and
// ready-set walks run on slice-indexed priority heaps, host timelines
// binary-search their insertion gaps, and the cross-application LoadLedger
// is striped with bulk-snapshot LedgerViews instead of a global mutex. The
// site policies have one of each figure: a schedule evaluates its priority
// keys (Config.Priority, one key per task; nil is the paper's level rule,
// FIFOPriority the constant key) and sorts them once, the Fig 4 multicast
// hands that order to every in-process site's Fig 5 walk — the same walk
// LocalSelector.SelectHosts serves to RPC peers as an id-keyed map — and
// the ready heap reads the same keys.
// Invariants: dense indices follow ascending TaskID order (index
// tie-breaks equal id tie-breaks), arc transfer volumes are resolved when
// the index is built (task cost metadata is frozen during scheduling), and
// structural graph mutations invalidate the cached index. The map-keyed
// originals are retained as test oracles with equivalence tests pinning
// identical allocation tables. What each stage costs, per workload and per
// commit, is benchmark/README.md's to say.
//
// On top of the dense core, per-schedule working state — rank vectors,
// heap backing arrays, host timelines and their span slabs, the
// executor's event-loop state — is recycled through a pooled scratch
// arena (internal/scheduler/scratch.go documents the pooling contract:
// schedule output is never pooled, every pooled buffer is overwritten or
// explicitly reset, scratch is function-scoped). The RANKING grid
// parallelizes over (size, CCR, graph) cells with a bounded worker pool
// (RankingConfig.Workers, vdce-bench -ranking-workers) whose results are
// bit-identical to the serial run for any worker count — each cell seeds
// its own environment and RNG. The XL scale point, BenchmarkXLSchedule,
// schedules a 100k-task DAG across 1000 hosts (8 sites × 125) in one
// HEFT pass; a scheduled CI job tracks it weekly without gating merges.
//
// # Fault tolerance and rescheduling
//
// Executions recover from host churn on two levels. Mid-flight, a dead
// host joins one execution-wide dead set and the frontier is re-planned
// around the whole set (one re-plan at a time, at most one per newly
// learnt host): the runtime hands the tasks still free to move to a
// scheduler.Replanner, selected by name like a policy and priced by the
// site's own cost model (LocalSelector.CostModel). The three built-ins are strategies over the kernel the heft and
// cpop policies place with, started from the settled set: "heft" runs the
// heft policy's own pass over the whole frontier (with nothing settled it
// IS the heft policy), "eft" re-places, append-only, just the tasks
// touching a suspect host, and "dup" adds duplicates of those on idle
// hosts; every repaired table is certified before adoption
// (scheduler.CertifyReplan: the executor and ValidateSchedule must both
// replay it and agree), and the per-task §2.3.1 rescheduling request
// remains the fallback. Between executions, the monitoring plane catches
// up: a Group Manager round marks dead hosts down in the repository (no
// prediction outlives a walk, so the next one sees it), resets per-host
// filter state on recovery, and fans deviation signals out to in-flight executions
// (site.Manager.SubscribeDeviations), so subsequent schedules avoid the
// dead hosts outright. The CHURN experiment (vdce-bench -exp CHURN, flags
// -churn-sizes/-churn-ccrs/-churn-replanners/-churn-threshold) replays
// seeded host-failure/straggler traces over the dagen grid — RunChurn, the
// executor Simulate is, with the trace and a re-planner scripted — and scores
// every re-planner by makespan degradation against the fault-free run —
// deterministic and bit-identical for any worker count.
//
// See README.md for the architecture overview, the policy table, the
// per-experiment index, and how to run the benchmarks. The root-level
// bench_test.go wraps each experiment in a testing.B benchmark.
package repro
