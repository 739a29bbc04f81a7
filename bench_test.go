package repro

// One benchmark per paper figure (plus the two quantitative claims made in
// prose). Each wraps the corresponding experiment from internal/experiments
// and reports its headline numbers as custom benchmark metrics, so
// `go test -bench=. -benchmem` regenerates the whole evaluation.

import (
	"testing"

	"repro/internal/experiments"
)

func runExperiment(b *testing.B, f func(int64) (*experiments.Result, error)) {
	b.Helper()
	b.ReportAllocs()
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := f(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for name, v := range last.Metrics {
		b.ReportMetric(v, name)
	}
}

// BenchmarkFig1_MultiSiteEndToEnd — Fig 1: end-to-end execution across a
// growing number of sites at fixed total host count.
func BenchmarkFig1_MultiSiteEndToEnd(b *testing.B) {
	runExperiment(b, experiments.Fig1MultiSite)
}

// BenchmarkFig2_PipelineStages — Fig 2: editor → scheduler → runtime stage
// latency for the linear solver.
func BenchmarkFig2_PipelineStages(b *testing.B) {
	runExperiment(b, experiments.Fig2Pipeline)
}

// BenchmarkFig3_LinearSolver — Fig 3: the flagship Linear Equation Solver
// across problem sizes, sequential vs parallel LU mode.
func BenchmarkFig3_LinearSolver(b *testing.B) {
	runExperiment(b, experiments.Fig3LinearSolver)
}

// BenchmarkFig4_SiteScheduler — Fig 4: transfer-aware site selection vs the
// transfer-blind ablation as WAN latency grows.
func BenchmarkFig4_SiteScheduler(b *testing.B) {
	runExperiment(b, experiments.Fig4SiteScheduler)
}

// BenchmarkFig5_HostSelection — Fig 5: prediction-driven host selection vs
// random / round-robin / min-load / fastest-host baselines.
func BenchmarkFig5_HostSelection(b *testing.B) {
	runExperiment(b, experiments.Fig5HostSelection)
}

// BenchmarkFig6_Monitoring — Fig 6: change-filtered monitoring traffic vs
// send-all, and failure-detection latency.
func BenchmarkFig6_Monitoring(b *testing.B) {
	runExperiment(b, experiments.Fig6Monitoring)
}

// BenchmarkFig7_ExecSetup — Fig 7: Data Manager channel setup + execution
// over real sockets as task count grows.
func BenchmarkFig7_ExecSetup(b *testing.B) {
	runExperiment(b, experiments.Fig7ExecSetup)
}

// BenchmarkPredictionAccuracy — §2.2.1: prediction error by forecasting
// policy (the forecasting-window ablation).
func BenchmarkPredictionAccuracy(b *testing.B) {
	runExperiment(b, experiments.PredictionAccuracy)
}

// BenchmarkScheduleQuality — §2.2: level-priority list scheduling vs FIFO
// priority (ablation) and random placement, relative to the critical-path
// lower bound.
func BenchmarkScheduleQuality(b *testing.B) {
	runExperiment(b, experiments.ScheduleQuality)
}

// BenchmarkScaleScheduling — the ROADMAP's scale direction: batch dispatch
// throughput of 6×1000-task graphs against 32 sites, serial walk vs the
// concurrent subsystem (site fan-out + batch API). The
// headline metrics are speedup and tasks_per_s; the experiment itself
// verifies that both paths produce identical allocation tables.
func BenchmarkScaleScheduling(b *testing.B) {
	runExperiment(b, experiments.ScaleScheduling)
}

// BenchmarkLedgerScheduling — combined simulated makespan of the batch
// under the three placement configurations: paper-faithful (ledger-free
// concurrent batch), availability-aware (earliest finish time, private
// timelines), and availability-aware with the shared cross-application
// load ledger. Headline metrics are makespan_{faithful,eft,ledger} and
// ledger_improvement_pct.
func BenchmarkLedgerScheduling(b *testing.B) {
	runExperiment(b, experiments.AvailabilityScheduling)
}

// BenchmarkPolicyComparison — every registered scheduling policy (faithful,
// eft, ledger, heft, cpop, and the naive baselines) scored by combined
// simulated makespan on the 6×1000-task / 32-site workload. Headline
// metrics are makespan_<policy> plus faithful_over_{heft,cpop}.
func BenchmarkPolicyComparison(b *testing.B) {
	runExperiment(b, experiments.PolicyComparison)
}

// BenchmarkChurn — seeded host-churn fault injection: every registered
// frontier re-planner (heft rescan, eft patch, dup hedging) scored by mean
// makespan degradation vs the fault-free run over the dagen grid. Headline
// metrics are degradation_<replanner> plus reschedule/kill counters.
func BenchmarkChurn(b *testing.B) {
	runExperiment(b, experiments.Churn)
}
