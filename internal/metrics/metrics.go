// Package metrics implements the schedule-quality metrics of the paper's
// evaluation methodology: Schedule Length Ratio (makespan over the
// critical-path lower bound), speedup against the best serial host,
// efficiency, and the pairwise better/equal/worse counts used to rank
// scheduling heuristics across a parameter grid. The metrics are pure
// arithmetic over a cost model — they take a ground-truth execution-time
// function, never a scheduler — so the same numbers score any policy's
// allocation table.
package metrics

import (
	"errors"
	"math"

	"repro/internal/afg"
)

// CostModel returns the execution seconds of a task on a named host — the
// same shape as scheduler.TimeModel, redeclared here so the metrics stay
// free of scheduler internals.
type CostModel func(task *afg.Task, host string) float64

// ErrNoHosts reports a metric evaluated over an empty host pool.
var ErrNoHosts = errors.New("metrics: no hosts")

// CPLowerBound is the denominator of the SLR: the length of the graph's
// critical path when every task runs at its minimum cost over the host
// pool and communication is free — no schedule on these hosts can beat it.
func CPLowerBound(g *afg.Graph, hosts []string, model CostModel) (float64, error) {
	if len(hosts) == 0 {
		return 0, ErrNoHosts
	}
	order, err := g.TopoOrder()
	if err != nil {
		return 0, err
	}
	minCost := func(t *afg.Task) float64 {
		best := math.Inf(1)
		for _, h := range hosts {
			if c := model(t, h); c < best {
				best = c
			}
		}
		return best
	}
	longest := make(map[afg.TaskID]float64, g.Len())
	var cp float64
	for _, id := range order {
		var in float64
		for _, l := range g.Parents(id) {
			if v := longest[l.From]; v > in {
				in = v
			}
		}
		longest[id] = in + minCost(g.Task(id))
		if longest[id] > cp {
			cp = longest[id]
		}
	}
	return cp, nil
}

// SLR is the Schedule Length Ratio: makespan over the critical-path lower
// bound. 1.0 is unbeatable; lower is better among schedulers.
func SLR(makespan, cpLowerBound float64) float64 {
	if cpLowerBound <= 0 {
		return math.Inf(1)
	}
	return makespan / cpLowerBound
}

// BestSerial is the numerator of the speedup: the shortest time any single
// host needs to run every task of the graph back to back.
func BestSerial(g *afg.Graph, hosts []string, model CostModel) (float64, error) {
	if len(hosts) == 0 {
		return 0, ErrNoHosts
	}
	best := math.Inf(1)
	for _, h := range hosts {
		var sum float64
		for _, id := range g.TaskIDs() {
			sum += model(g.Task(id), h)
		}
		if sum < best {
			best = sum
		}
	}
	return best, nil
}

// Speedup is the serial-over-parallel ratio: best serial host time over the
// schedule's makespan. Higher is better; values above the host count mean
// the model is inconsistent.
func Speedup(bestSerial, makespan float64) float64 {
	if makespan <= 0 {
		return math.Inf(1)
	}
	return bestSerial / makespan
}

// Efficiency is speedup per host: Speedup / |hosts|, in [0, 1] for
// consistent models.
func Efficiency(speedup float64, hosts int) float64 {
	if hosts <= 0 {
		return 0
	}
	return speedup / float64(hosts)
}

// Tally is one directed cell of the pairwise comparison: how often the row
// policy's makespan was better (smaller), equal, or worse than the column
// policy's across a set of runs.
type Tally struct {
	Better, Equal, Worse int
}

// Pairwise compares every policy pair across runs: runs[r][p] is policy p's
// makespan in run r (every row must have the same width). tol is the
// relative tolerance under which two makespans count as equal (the paper
// counts float ties as "equal", not coin-flip wins). The result is square:
// out[a][b] tallies policy a against policy b; out[a][a] is all-Equal.
func Pairwise(runs [][]float64, tol float64) [][]Tally {
	if len(runs) == 0 {
		return nil
	}
	n := len(runs[0])
	out := make([][]Tally, n)
	for a := range out {
		out[a] = make([]Tally, n)
	}
	for _, row := range runs {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				switch {
				case ApproxEqual(row[a], row[b], tol):
					out[a][b].Equal++
				case row[a] < row[b]:
					out[a][b].Better++
				default:
					out[a][b].Worse++
				}
			}
		}
	}
	return out
}

// BestCounts returns, per policy, the number of runs in which it produced
// the (possibly jointly) best makespan — the paper's "occurrences of best
// result" column. Joint bests within tol all count.
func BestCounts(runs [][]float64, tol float64) []int {
	if len(runs) == 0 {
		return nil
	}
	out := make([]int, len(runs[0]))
	for _, row := range runs {
		best := math.Inf(1)
		for _, v := range row {
			if v < best {
				best = v
			}
		}
		for p, v := range row {
			if ApproxEqual(v, best, tol) {
				out[p]++
			}
		}
	}
	return out
}

// ApproxEqual reports |a−b| ≤ tol·max(|a|,|b|) (exact equality when
// tol=0). It is the repo's sanctioned way to compare computed float64
// quantities — makespans, ranks, EFTs — where exact ==/!= is a tolerance
// bug waiting to happen (the floateq analyzer flags those sites).
func ApproxEqual(a, b, tol float64) bool {
	//vdce:ignore floateq exact fast path: equal infinities would otherwise produce a NaN difference and compare false
	if a == b {
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		// Distinct infinities are never close: the relative formula below
		// would accept ±Inf for any tol > 0 (Inf ≤ tol·Inf).
		return false
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}
