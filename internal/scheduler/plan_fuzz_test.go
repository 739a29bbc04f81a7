package scheduler

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/afg"
	"repro/internal/metrics"
)

// FuzzPlan holds every registered policy to five oracles on instances no
// fixed grid has — one task, one host or one site, parallel tasks, both
// CCRs: its table passes ValidateSchedule; Simulate's makespan equals the
// audit's bit for bit; no makespan beats the critical-path lower bound (each
// task at its cheapest host, a parallel one split over as many hosts as it
// runs on, communication free); a warm rerun and a run with the scratch
// pool off give byte-identical table JSON; and heft's and cpop's tables
// equal the map-keyed oracles', which price every candidate with no bound.
// The corpus is seeded from churn_golden's cells, cut to 32 tasks.
func FuzzPlan(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(4000+seed, uint8(31), uint8(15), uint8(3), uint8(seed%2)|uint8(1-seed%2)<<3)
	}
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(1))  // one task, one host
	f.Add(int64(2), uint8(20), uint8(1), uint8(1), uint8(9)) // two sites of one host, parallel tasks
	planOracles := map[string]func(context.Context, *Request) (*AllocationTable, error){"heft": oracleHEFT, "cpop": oracleCPOP}
	f.Fuzz(func(t *testing.T, seed int64, tasksB, hostsB, sitesB, flags uint8) {
		in := decodePlanInstance(t, seed, tasksB, hostsB, sitesB, flags)
		input := fmt.Sprintf("seed %d tasks %d hosts %d sites %d flags %d", seed, tasksB, hostsB, sitesB, flags)
		names := make([]string, len(in.hosts))
		for i, h := range in.hosts {
			names[i] = h.Host
		}
		bound, err := metrics.CPLowerBound(in.g, names, func(task *afg.Task, host string) float64 {
			if task.Mode == afg.Parallel && task.Processors > 1 {
				return in.truth(task, host) / float64(min(task.Processors, len(names)))
			}
			return in.truth(task, host)
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { scratchPoolOff = false }()
		for _, policy := range Policies() {
			plan := func() (*AllocationTable, []byte) {
				table, err := runPolicy(policy, &in.env, in.g)
				if err != nil {
					t.Fatalf("%s, %s: %v", input, policy, err)
				}
				return table, tableJSONBytes(t, table)
			}
			table, first := plan()
			if oracle := planOracles[policy]; oracle != nil {
				req := in.env
				req.Graph = in.g
				want, err := oracle(context.Background(), &req)
				if err != nil {
					t.Fatalf("%s, %s oracle: %v", input, policy, err)
				}
				tablesEqual(t, input+", "+policy, table, want)
			}
			audit, err := ValidateSchedule(in.g, table, in.truth, in.net)
			if err != nil {
				t.Fatalf("%s, %s: %v", input, policy, err)
			}
			mk, err := Simulate(in.g, table, in.truth, in.net)
			if err != nil || math.Float64bits(mk) != math.Float64bits(audit.Makespan) {
				t.Fatalf("%s, %s: Simulate makespan %v (%v), audit %v", input, policy, mk, err, audit.Makespan)
			}
			if mk < bound {
				t.Fatalf("%s, %s: makespan %v beats the critical-path bound %v", input, policy, mk, bound)
			}
			if _, warm := plan(); !bytes.Equal(warm, first) {
				t.Fatalf("%s, %s: warm rerun %s, first run %s", input, policy, warm, first)
			}
			scratchPoolOff = true
			_, fresh := plan()
			scratchPoolOff = false
			if !bytes.Equal(fresh, first) {
				t.Fatalf("%s, %s: pool-off run %s, pooled run %s", input, policy, fresh, first)
			}
		}
	})
}
