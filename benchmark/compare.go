package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// compareMain implements `benchmark compare A B`: A and B are result files
// (one record per line, as -out writes them), A the base. For every
// workload and end-to-end metric it prints both medians, B over A, the
// bound from BENCHMARK.json and a verdict:
//
//	ok          B's median is not worse than A's by more than the bound
//	worse       it is
//	unresolved  it is not, but the run-to-run spread (quartile distance over
//	            median, the wider of the two sides) exceeds the bound, and B
//	            does not beat A on every run
//
// It returns 1 when any row is worse, 2 when the files cannot be compared.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition, for the bounds")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [-spec BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	spec, err := readSpec(*specPath)
	var a, b map[string][]record
	if err == nil {
		a, err = readRecords(fs.Arg(0))
	}
	if err == nil {
		b, err = readRecords(fs.Arg(1))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	return compareSets(spec, a, b)
}

// readRecords loads the untraced records of a result file by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !rec.Trace {
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
	}
	return out, sc.Err()
}

// differences lists what differs between two sets of runs of one workload
// that ought not to: medians of runs made under different conditions say
// nothing about the code.
func differences(a, b []record) []string {
	var diffs []string
	x, y := a[0], b[0]
	if x.GoVersion != y.GoVersion {
		diffs = append(diffs, fmt.Sprintf("go %s vs %s", x.GoVersion, y.GoVersion))
	}
	if x.NProc != y.NProc || x.GoMaxProcs != y.GoMaxProcs {
		diffs = append(diffs, fmt.Sprintf("nproc %d/%d vs %d/%d", x.NProc, x.GoMaxProcs, y.NProc, y.GoMaxProcs))
	}
	if x.Seconds != y.Seconds || x.Inputs != y.Inputs || x.TasksPerOp != y.TasksPerOp || x.Hosts != y.Hosts {
		diffs = append(diffs, "run length or input sizes differ")
	}
	if fmt.Sprint(seedsOf(a)) != fmt.Sprint(seedsOf(b)) {
		diffs = append(diffs, fmt.Sprintf("seeds %v vs %v", seedsOf(a), seedsOf(b)))
	}
	return diffs
}

func seedsOf(recs []record) []int64 {
	out := make([]int64, len(recs))
	for i, r := range recs {
		out[i] = r.Seed
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func valuesOf(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(v, n=4)
// gives (its default, exclusive method), so that it reads the same as the
// spread the benchmark's acceptance rule is stated in.
func spread(values []float64) float64 {
	med := median(values)
	if len(values) < 2 || med == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	quartile := func(i int) float64 {
		j := min(max(i*(len(v)+1)/4, 1), len(v)-1)
		delta := float64(i*(len(v)+1) - 4*j)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / med
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, lowerIsBetter bool) bool {
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if lowerIsBetter {
		return sb[len(sb)-1] < sa[0]
	}
	return sb[0] > sa[len(sa)-1]
}

// verdictOf judges B's runs of one metric against A's, and returns the
// run-to-run spread it judged them by.
func verdictOf(a, b []float64, m specMetric) (string, float64) {
	lower := m.Better == "lower"
	worseBy := (median(b) - median(a)) / median(a) // share of A's median by which B is worse
	if !lower {
		worseBy = -worseBy
	}
	sp := max(spread(a), spread(b))
	switch {
	case worseBy > m.Bound:
		return "worse", sp
	case sp > m.Bound && !allBetter(a, b, lower):
		return "unresolved", sp
	}
	return "ok", sp
}

func compareSets(spec *benchSpec, a, b map[string][]record) int {
	worse, incomparable := false, false
	for _, w := range spec.Workloads {
		ra, rb := a[w.Name], b[w.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Printf("%s: no runs on one side (%d vs %d)\n", w.Name, len(ra), len(rb))
			continue
		}
		fmt.Printf("%s: %d runs of %s vs %d runs of %s\n", w.Name, len(ra), ra[0].Commit, len(rb), rb[0].Commit)
		for _, d := range differences(ra, rb) {
			fmt.Printf("  not comparable: %s\n", d)
			incomparable = true
		}
		failedA, failedB := 0, 0
		for _, r := range ra {
			failedA += r.Failed
		}
		for _, r := range rb {
			failedB += r.Failed
		}
		verdict := "ok"
		if failedB > failedA {
			verdict, worse = "worse", true
		}
		fmt.Printf("  %-18s %14d %14d %31s  %s\n", "failed ops", failedA, failedB, "", verdict)
		for _, m := range spec.EndToEnd {
			va, vb := valuesOf(ra, m.Name), valuesOf(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, sp := verdictOf(va, vb, m)
			worse = worse || v == "worse"
			ma, mb := median(va), median(vb)
			fmt.Printf("  %-18s %14.6g %14.6g  B/A %.4f  spread %5.1f%%  bound %4.1f%%  %s\n",
				m.Name+" ("+m.Unit+")", ma, mb, mb/ma, 100*sp, 100*m.Bound, v)
		}
	}
	switch {
	case worse:
		return 1
	case incomparable:
		return 2
	}
	return 0
}
