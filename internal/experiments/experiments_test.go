package experiments

import (
	"math"
	"testing"

	"repro/internal/scheduler"
)

// Each experiment must run, produce a non-empty series, and support the
// qualitative claim it encodes. These are the repository's "does the
// evaluation reproduce" tests.

func TestFig1MultiSite(t *testing.T) {
	r, err := Fig1MultiSite(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Series.Rows))
	}
	for _, row := range r.Series.Rows {
		if row[1] <= 0 {
			t.Fatalf("non-positive makespan: %v", row)
		}
	}
}

func TestFig2PipelineStagesCheap(t *testing.T) {
	r, err := Fig2Pipeline(1)
	if err != nil {
		t.Fatal(err)
	}
	// Every stage is timed (a stage can be faster than the clock's tick, so
	// zero is legal; negative or missing is not) and the middleware stages
	// must be sub-second.
	for _, stage := range []string{"editor_ms", "scheduler_ms", "runtime_ms"} {
		if ms, ok := r.Metrics[stage]; !ok || ms < 0 {
			t.Fatalf("%s not timed: %v", stage, r.Metrics)
		}
	}
	if r.Metrics["editor_ms"] > 1000 || r.Metrics["scheduler_ms"] > 1000 {
		t.Fatalf("middleware too slow: %v", r.Metrics)
	}
}

func TestFig3SolverCorrectAndScales(t *testing.T) {
	r, err := Fig3LinearSolver(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Series.Rows {
		if row[3] > 1e-6 {
			t.Fatalf("residual too large at n=%v: %v", row[0], row[3])
		}
	}
	// Larger problems take longer sequentially.
	if r.Series.Rows[2][1] <= r.Series.Rows[0][1] {
		t.Fatalf("n=256 not slower than n=64: %v", r.Series.Rows)
	}
}

func TestFig4TransferAwarenessWins(t *testing.T) {
	r, err := Fig4SiteScheduler(1)
	if err != nil {
		t.Fatal(err)
	}
	// At the slowest WAN, the blind scheduler must be strictly worse.
	last := r.Series.Rows[len(r.Series.Rows)-1]
	aware, blind := last[1], last[2]
	if blind <= aware {
		t.Fatalf("transfer-blind (%v) should lose to aware (%v) on slow WAN", blind, aware)
	}
	// And the blind schedule must move strictly more data across hosts.
	if last[4] <= last[3] {
		t.Fatalf("blind comm (%v) should exceed aware comm (%v)", last[4], last[3])
	}
	// The gap should widen with latency.
	first := r.Series.Rows[0]
	if (blind / aware) <= (first[2]/first[1])*0.9 {
		t.Fatalf("gap did not grow: first ratio %v, last ratio %v",
			first[2]/first[1], blind/aware)
	}
}

func TestFig5PredictionBeatsBaselines(t *testing.T) {
	r, err := Fig5HostSelection(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Series.Rows {
		vdce := row[1]
		for i, name := range []string{"random", "roundrobin", "minload", "fastest"} {
			if row[2+i] < vdce*0.999 {
				t.Fatalf("%d hosts: %s (%v) beat vdce (%v)", int(row[0]), name, row[2+i], vdce)
			}
		}
	}
}

func TestFig6FilterSavesTraffic(t *testing.T) {
	r, err := Fig6Monitoring(1)
	if err != nil {
		t.Fatal(err)
	}
	// An all-idle site suppresses nearly everything.
	if r.Metrics["saving_pct_busy0.00"] < 90 {
		t.Fatalf("idle-site saving too small: %v", r.Metrics)
	}
	// Savings shrink as more hosts actually change.
	if r.Metrics["saving_pct_busy1.00"] >= r.Metrics["saving_pct_busy0.00"] {
		t.Fatalf("savings did not shrink with busy fraction: %v", r.Metrics)
	}
	// Failure detected within one round.
	if r.Metrics["failure_detect_rounds"] != 1 {
		t.Fatalf("failure detection rounds = %v", r.Metrics["failure_detect_rounds"])
	}
}

func TestFig7SetupScales(t *testing.T) {
	r, err := Fig7ExecSetup(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Series.Rows))
	}
	for _, row := range r.Series.Rows {
		if row[1] <= 0 {
			t.Fatalf("non-positive time: %v", row)
		}
	}
}

func TestPredictionAccuracyReasonable(t *testing.T) {
	r, err := PredictionAccuracy(1)
	if err != nil {
		t.Fatal(err)
	}
	// At low volatility every forecaster should be well under 10% MAPE.
	low := r.Series.Rows[0]
	for i := 1; i < len(low); i++ {
		if low[i] > 10 {
			t.Fatalf("low-volatility MAPE too high: %v", low)
		}
	}
	// Error grows with volatility for every forecaster.
	high := r.Series.Rows[len(r.Series.Rows)-1]
	if high[1] <= low[1] {
		t.Fatalf("volatility did not raise error: %v vs %v", low, high)
	}
}

func TestScheduleQualityLevelPriority(t *testing.T) {
	r, err := ScheduleQuality(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Series.Rows {
		level, random := row[1], row[3]
		if level < 0.999 {
			t.Fatalf("schedule beat the critical-path lower bound: %v", row)
		}
		if random < level*0.999 {
			t.Fatalf("random (%v) beat level scheduling (%v)", random, level)
		}
	}
	// On the largest graph the level rule must beat the FIFO ablation
	// (small graphs are heuristic noise either way).
	last := r.Series.Rows[len(r.Series.Rows)-1]
	if last[2] < last[1] {
		t.Fatalf("FIFO (%v) beat level priority (%v) on the largest graph", last[2], last[1])
	}
}

func TestFig1AggregationHelps(t *testing.T) {
	r, err := Fig1MultiSite(1)
	if err != nil {
		t.Fatal(err)
	}
	// More sites = more capacity = shorter makespan for this
	// compute-bound workload.
	rows := r.Series.Rows
	if rows[len(rows)-1][1] >= rows[0][1] {
		t.Fatalf("4 sites (%v) not faster than 1 site (%v)", rows[len(rows)-1][1], rows[0][1])
	}
}

func TestLedgerBeatsLedgerFreeBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("6×1000-task batches ×3 configurations in short mode")
	}
	r, err := AvailabilityScheduling(1)
	if err != nil {
		t.Fatal(err)
	}
	faithful := r.Metrics["makespan_faithful"]
	eft := r.Metrics["makespan_eft"]
	ledger := r.Metrics["makespan_ledger"]
	if faithful <= 0 || eft <= 0 || ledger <= 0 {
		t.Fatalf("non-positive makespans: %v", r.Metrics)
	}
	// The shared-ledger batch must beat the ledger-free concurrent batch
	// (the PR 1 code path) on combined simulated makespan...
	if ledger >= faithful {
		t.Fatalf("shared ledger (%v) did not beat the ledger-free faithful batch (%v)", ledger, faithful)
	}
	// ...and also the availability-aware-but-private-timeline ablation,
	// since the ledger's whole job is cross-application contention.
	if ledger >= eft {
		t.Fatalf("shared ledger (%v) did not beat private-timeline EFT (%v)", ledger, eft)
	}
}

func TestPolicyComparisonCoversRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("6×1000-task batches per registered policy in short mode")
	}
	r, err := PolicyComparison(1)
	if err != nil {
		t.Fatal(err)
	}
	names := scheduler.Policies()
	if len(r.Series.Rows) != len(names) {
		t.Fatalf("rows = %d, want one per registered policy (%d)", len(r.Series.Rows), len(names))
	}
	for _, name := range names {
		mk, ok := r.Metrics["makespan_"+name]
		if !ok {
			t.Fatalf("no makespan metric for registered policy %q", name)
		}
		if mk <= 0 || math.IsInf(mk, 0) || math.IsNaN(mk) {
			t.Fatalf("policy %q: bad combined makespan %v", name, mk)
		}
	}
	// The paper's headline heuristics must beat the contention-blind
	// faithful batch on combined makespan — that is their whole pitch.
	faithful := r.Metrics["makespan_faithful"]
	for _, h := range []string{"heft", "cpop"} {
		if r.Metrics["makespan_"+h] >= faithful {
			t.Fatalf("%s (%v) did not beat the faithful batch (%v)", h, r.Metrics["makespan_"+h], faithful)
		}
	}
}

// TestPolicyComparisonForSubset exercises the restricted form vdce-bench's
// -policies flag uses, on a cheap subset.
func TestPolicyComparisonForSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-task batches in short mode")
	}
	r, err := PolicyComparisonFor(1, []string{"fastest", "minload"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(r.Series.Rows))
	}
	if _, ok := r.Metrics["makespan_fastest"]; !ok {
		t.Fatalf("missing subset metric: %v", r.Metrics)
	}
}

func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in short mode")
	}
	results, err := All(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 14 {
		t.Fatalf("results = %d", len(results))
	}
	seen := map[string]bool{}
	for _, r := range results {
		if seen[r.ID] {
			t.Fatalf("duplicate id %s", r.ID)
		}
		seen[r.ID] = true
		if r.Series.Render() == "" || len(r.Series.Rows) == 0 {
			t.Fatalf("experiment %s empty", r.ID)
		}
	}
}
