package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sample is one successful op.
type sample struct {
	ms         float64
	allocBytes uint64
	mallocs    uint64
}

// measurement is what the timed loop collected.
type measurement struct {
	attempted, failed int
	firstErr          string
	untraced, traced  []sample
	tr                *tracer // nil unless the run is traced

	// Taken from the first pass over the inputs, which every run completes,
	// so they do not depend on how many ops fit into the run.
	logSLR float64
	tables int
	exact  map[string]float64

	loose       map[string]float64 // summed over all successful ops
	gcPauseMs   float64
	minCoverage float64 // smallest share of a traced op span its child spans cover
}

// measure runs ops in a closed loop — the next starts when the previous
// one's checks are done — for at least the given time and at least one pass
// over the inputs. Only the op itself is on the clock; its finish function
// (checks, traced replay) is not. A traced run runs every input twice in a
// row, untraced then traced, so that each input is timed both ways within
// the same moment of the machine and the ratio of the two medians is the
// tracing overhead.
func measure(inst *instance, seconds float64, trace bool) *measurement {
	m := &measurement{exact: map[string]float64{}, loose: map[string]float64{}, minCoverage: 1}
	minOps := inst.inputs
	if trace {
		m.tr = newTracer()
		minOps *= 2
	}
	firstPass := make([]opResult, inst.inputs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for k := 0; k < minOps || time.Since(start).Seconds() < seconds; k++ {
		j, tr := k, (*tracer)(nil)
		if trace {
			j = k / 2
			if k%2 == 1 {
				tr = m.tr
			}
		}
		input, first := j%inst.inputs, j < inst.inputs && tr == nil
		tr.setOp(k)
		b0, o0 := heapAllocs()
		t0 := time.Now()
		root := tr.begin("op", -1)
		fin, err := inst.op(input, tr, root)
		tr.end(root)
		s := sample{ms: msSince(t0)}
		b1, o1 := heapAllocs()
		s.allocBytes, s.mallocs = b1-b0, o1-o0

		m.attempted++
		var res opResult
		if err == nil {
			res, err = fin()
		}
		if err == nil && !first && !inst.drifting {
			err = sameResult(firstPass[input], res)
		}
		if err != nil {
			m.failed++
			if m.firstErr == "" {
				m.firstErr = fmt.Sprintf("op %d (input %d): %v", k, input, err)
			}
			continue
		}
		if first {
			firstPass[input] = res
			m.logSLR += res.logSLR
			m.tables += res.tables
			for key, v := range res.exact {
				m.exact[key] += v
			}
		}
		for key, v := range res.loose {
			m.loose[key] += v
		}
		if tr != nil {
			m.traced = append(m.traced, s)
		} else {
			m.untraced = append(m.untraced, s)
		}
	}
	runtime.ReadMemStats(&after)
	m.gcPauseMs = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	if trace {
		for _, c := range m.tr.childCoverage("op") {
			m.minCoverage = min(m.minCoverage, c)
		}
		// An op is a sequence of calls into layers with nothing between
		// them; a span tree that explains less than 95 % of one is broken.
		if m.minCoverage < 0.95 {
			m.failed++
			if m.firstErr == "" {
				m.firstErr = fmt.Sprintf("child spans cover only %.1f %% of an op span", 100*m.minCoverage)
			}
		}
	}
	return m
}

// sameResult holds a repeated input to what its first pass produced.
func sameResult(first, again opResult) error {
	if first.logSLR != again.logSLR { // exact repeat is the check
		return fmt.Errorf("schedule quality %v differs from the first pass's %v", again.logSLR, first.logSLR)
	}
	for key, v := range first.exact {
		if again.exact[key] != v {
			return fmt.Errorf("%s = %v differs from the first pass's %v", key, again.exact[key], v)
		}
	}
	return nil
}

var allocSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}

// heapAllocs reads the cumulative heap allocation counters (the quantities
// MemStats.TotalAlloc and Mallocs report) without stopping the world.
func heapAllocs() (bytes, objects uint64) {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64()
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

func opMs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.ms
	}
	return out
}

// quantile interpolates linearly between order statistics.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(v)-1)
	return v[lo] + (pos-float64(lo))*(v[hi]-v[lo])
}

func median(values []float64) float64 { return quantile(values, 0.5) }

// tailOf returns the highest percentile that still has ten samples beyond
// it, and which percentile that is. With too few samples for any percentile
// above the median to qualify, the tail is the median. It stops at p90: on a
// shared 2-vCPU machine the stalls of a bad minute double one op in twenty,
// which moved p95 of submit-2site from 53 to 68 ms between two sweeps of one
// commit while the median moved 3 %.
func tailOf(ms []float64) (value, percentile float64) {
	n := len(ms)
	q := 0.5
	if n > 21 {
		q = min(float64(n-11)/float64(n-1), 0.9)
	}
	return quantile(ms, q), 100 * q
}

// layerMetrics derives the per-layer numbers of a traced run, under the names
// BENCHMARK.json lists. A timing is the median, over the traced ops, of the
// time the op spent in spans of that name; a layer the workload never calls
// reads 0. Counts and makespans come from the first pass over the inputs and
// repeat exactly for a seed.
func layerMetrics(inst *instance, m *measurement) map[string]float64 {
	tr := m.tr
	spanMs := func(name string) float64 { return median(tr.perOp(name)) }
	ops := float64(len(m.traced) + len(m.untraced))
	tracedOps := float64(len(m.traced))
	inputs, tasks := float64(inst.inputs), float64(inst.tasksPerOp)

	out := map[string]float64{
		"dagen.generate_ms":          inst.genMs,
		"afg.encode_ms":              spanMs("afg.encode"),
		"afg.decode_ms":              spanMs("afg.decode"),
		"afg.index_ms":               spanMs("afg.index"),
		"afg.encoded_bytes_per_task": m.loose["encoded_bytes"] / ops / tasks,
		"scheduler.costs_ms":         spanMs("scheduler.costs"),
		"scheduler.place_ms":         spanMs("scheduler.place"),
		"scheduler.simulate_ms":      spanMs("scheduler.simulate"),
		"scheduler.validate_ms":      spanMs("scheduler.validate"),
		"predict.cache_misses":       m.loose["cache_misses"] / ops,
		"monitor.tick_ms":            spanMs("monitor.tick"),
		"scheduler.churn_trace_ms":   spanMs("scheduler.churn_trace"),
		"scheduler.dup_runs":         m.exact["dup_runs"],
		"site.submit_rpc_ms":         spanMs("site.submit_rpc"),
		"site.select_rpc_ms":         spanMs("site.select_rpc"),
		"site.runtask_rpc_ms":        median(tr.perCall("site.runtask_rpc")),
		"site.remote_task_share":     m.exact["remote_tasks"] / inputs / tasks,
		"runtime.execute_ms":         spanMs("runtime.execute"),
		"runtime.rescheduled":        m.loose["rescheduled"],
		"runtime.frontier_replans":   m.loose["frontier_replans"],
		"proc.peak_rss_mb":           peakRSSMB(),
		"proc.gc_pause_ms":           m.gcPauseMs / ops,
		"trace.overhead_ratio":       median(opMs(m.traced)) / median(opMs(m.untraced)),
		"trace.min_child_coverage":   m.minCoverage,

		"scheduler.cost_cells":    0,
		"predict.cache_hit_ratio": 0,
		"site.runtask_calls":      0,
		"site.submit_overhead_ms": 0,
	}
	if out["scheduler.costs_ms"] > 0 {
		out["scheduler.cost_cells"] = tasks * float64(inst.hosts)
	}
	if lookups := m.loose["cache_hits"] + m.loose["cache_misses"]; lookups > 0 {
		out["predict.cache_hit_ratio"] = m.loose["cache_hits"] / lookups
	}
	if tracedOps > 0 {
		out["site.runtask_calls"] = m.loose["runtask_calls"] / tracedOps
	}
	out["runtime.us_per_task"] = out["runtime.execute_ms"] * 1e3 / tasks
	for _, p := range batchPolicies {
		out["scheduler.schedule_ms."+p] = spanMs("scheduler.schedule." + p)
		out["scheduler.makespan_s."+p] = m.exact["makespan."+p]
	}
	for _, r := range churnReplanners {
		out["scheduler.runchurn_ms."+r] = spanMs("scheduler.runchurn." + r)
		out["scheduler.degradation."+r] = m.exact["degradation."+r] / max(m.exact["episodes"], 1)
		for _, c := range []string{"replans", "moved", "killed"} {
			out["scheduler."+c+"."+r] = m.exact[c+"."+r]
		}
	}
	// Ledger tables vary with worker interleaving: a pass's worth of the
	// mean, where the other policies report the first pass exactly.
	out["scheduler.makespan_s.ledger"] = m.loose["makespan.ledger"] / ops * inputs
	var mallocs float64
	for _, s := range append(m.traced, m.untraced...) {
		mallocs += float64(s.mallocs)
	}
	out["proc.mallocs_per_op"] = mallocs / ops

	// What Site.Submit took beyond the stages replayed in-process on the
	// same bytes: gob, loopback TCP and the handler's own reply rendering.
	if rpc := out["site.submit_rpc_ms"]; rpc > 0 {
		scheduleMs := 0.0 // only the policy the submit ran under reads non-zero
		for _, p := range batchPolicies {
			scheduleMs += out["scheduler.schedule_ms."+p]
		}
		out["site.submit_overhead_ms"] = rpc - out["afg.decode_ms"] - scheduleMs - out["runtime.execute_ms"]
	}
	return out
}
